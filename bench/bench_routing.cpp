// E-routing — DV reconvergence vs internetwork size (§1, §5.2). The
// paper assumes "the standard IP routing algorithms will deliver the
// packet to M's home network" and that they keep doing so across link
// failures; this bench measures what that assumption costs when the
// routing fabric is the dynamic routing::dv plane instead of a
// precomputed static oracle.
//
// For each size N the bench builds two identically-seeded ScaleWorld
// grids — one on DV, one on static routes — warms them up, then scripts
// the same backbone fault on both: the R0-R1 circuit (the link carrying
// the home agent's tunnels toward FA0) fails for a fixed outage and
// heals. Reported per point:
//
//   * time-to-reconverge for the fail and the heal epoch (seconds from
//     the fault-plane event to the last DV route change before the next
//     epoch) — the triggered-update path, not the periodic timer;
//   * CBR datagrams delivered during the outage, DV vs static twin: the
//     rerouting dividend (the static world blackholes FA0's cell);
//   * DV protocol overhead in steady state: update messages sent per
//     router-second and total route changes (wall_seconds sits next to
//     BENCH_scale.json's points for the cost of a process per router);
//   * suspected counting-to-infinity episodes (DvStats): poisoned reverse
//     stops only two-router loops, so larger loops are measured here.
//
// The bench exits 1 unless both twins' warm-ups pass bench/harness.hpp's
// slice rules (the outages record the same counts), convergence epochs
// were recorded, and DV out-delivers static during the outage.
//
// Usage: bench_routing [--small] [--out PATH]
//   --small    one tiny sweep point (CI smoke)
//   --out PATH where to write the JSON report (default BENCH_routing.json)
#include <cstdio>
#include <string>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "harness.hpp"
#include "scenario/scale_world.hpp"

using namespace mhrp;

namespace {

/// One twin's warm-up and outage slices.
struct Drive {
  scenario::ScaleRunStats warmup;
  scenario::ScaleRunStats outage;
};

struct RoutingResult {
  int routers = 0;
  int foreign_agents = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  std::uint64_t dv_updates_sent = 0;
  std::uint64_t dv_updates_received = 0;
  std::uint64_t dv_route_changes = 0;
  std::uint64_t dv_routes_withdrawn = 0;
  std::uint64_t dv_counting_to_infinity = 0;  // suspected episodes
  double updates_per_router_s = 0;
  std::vector<double> convergence_s;  // one per fault epoch
  Drive dv;
  Drive st;
};

scenario::ScaleWorldOptions world_options(int routers, bool dv) {
  scenario::ScaleWorldOptions opt;
  opt.routers = routers;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 2 * routers > 256 ? 256 : 2 * routers;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(3);
  opt.protocol.seed = 1;
  if (dv) opt.protocol.routing = routing::dv::Mode::kDv;
  opt.chaos.enabled = true;  // zero rates: armed plane, scripted events
  opt.chaos.fault_seed = 0xc4a05;
  return opt;
}

/// Warm up, fail bb0 (R0-R1) for `outage`, heal, settle.
Drive drive_scripted_outage(scenario::ScaleWorld& world, sim::Time warmup,
                            sim::Time outage) {
  Drive d;
  world.start();
  d.warmup = world.run_for(warmup);
  faults::FaultEvent fail;
  fail.at = world.topo.sim().now();
  fail.kind = faults::FaultKind::kLinkFail;
  fail.target = world.cells.size();  // cells register first, then bb0
  fail.duration = outage;
  world.fault_plane()->apply(fail);
  d.outage = world.run_for(outage);
  (void)world.run_for(sim::seconds(2));  // close the heal epoch
  return d;
}

RoutingResult run_point(bench::Harness& h, int routers, double steady_secs) {
  const sim::Time warmup = sim::from_seconds(steady_secs);
  const sim::Time outage = sim::seconds(8);

  RoutingResult r;
  scenario::ScaleWorld dv(world_options(routers, true));
  r.wall_seconds =
      h.timed([&] { r.dv = drive_scripted_outage(dv, warmup, outage); });

  scenario::ScaleWorld st(world_options(routers, false));
  r.st = drive_scripted_outage(st, warmup, outage);

  r.routers = routers;
  r.foreign_agents = static_cast<int>(dv.fa_routers.size());
  r.sim_seconds = sim::to_seconds(dv.topo.sim().now());
  for (const auto& process : dv.dv_processes) {
    r.dv_updates_sent += process->stats().updates_sent;
    r.dv_updates_received += process->stats().updates_received;
    r.dv_route_changes += process->stats().route_changes;
    r.dv_routes_withdrawn += process->stats().routes_withdrawn;
    r.dv_counting_to_infinity += process->stats().counting_to_infinity;
  }
  r.updates_per_router_s = double(r.dv_updates_sent) /
                           double(routers) / r.sim_seconds;
  r.convergence_s = dv.convergence_times();

  const std::string n = "N=" + std::to_string(routers);
  h.check_slice(n + " dv warm-up", r.dv.warmup);
  h.check_slice(n + " static warm-up", r.st.warmup);
  h.check(!r.convergence_s.empty(), n + ": no convergence epochs recorded");
  h.check(r.dv.outage.packets_delivered > r.st.outage.packets_delivered,
          n + ": DV failed to out-deliver static during the outage");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "BENCH_routing.json", /*seed=*/1);
  const bool small = h.small();

  std::printf("E-routing: DV reconvergence vs size (§1, §5.2)\n");
  std::printf("  scripted fault: bb0 (R0-R1, the HA->FA0 circuit), 8s\n");

  const std::vector<int> sizes =
      small ? std::vector<int>{16} : std::vector<int>{16, 64, 144, 256};
  const double steady = small ? 6.0 : 12.0;

  std::vector<RoutingResult> results;
  for (int n : sizes) {
    RoutingResult r = run_point(h, n, steady);
    results.push_back(r);
    std::printf(
        "\n  N=%-4d | %.2f updates/router/s | %llu route changes | "
        "%llu counting to infinity | "
        "delivered during outage dv=%llu static=%llu\n",
        r.routers, r.updates_per_router_s,
        static_cast<unsigned long long>(r.dv_route_changes),
        static_cast<unsigned long long>(r.dv_counting_to_infinity),
        static_cast<unsigned long long>(r.dv.outage.packets_delivered),
        static_cast<unsigned long long>(r.st.outage.packets_delivered));
    std::printf("    reconverge:");
    for (double c : r.convergence_s) std::printf(" %.3fs", c);
    std::printf("\n");
  }

  std::printf(
      "\n  §1/§5.2: reconvergence is a local triggered-update ripple —\n"
      "  it does not grow with N — and the outage dividend (packets the\n"
      "  DV world delivers that the static twin drops) is the mobility\n"
      "  protocol's routing substrate working as the paper assumes.\n");

  return h.finish([&] {
    h.field("outage_seconds", 8.0);
    h.rows("sweep", results, [&](const RoutingResult& r) {
      h.field("routers", r.routers);
      h.field("foreign_agents", r.foreign_agents);
      h.field("sim_seconds", r.sim_seconds);
      h.field("wall_seconds", r.wall_seconds);
      h.field("dv_updates_sent", r.dv_updates_sent);
      h.field("dv_updates_received", r.dv_updates_received);
      h.field("dv_route_changes", r.dv_route_changes);
      h.field("dv_routes_withdrawn", r.dv_routes_withdrawn);
      h.field("dv_counting_to_infinity", r.dv_counting_to_infinity);
      h.field("updates_per_router_sec", r.updates_per_router_s);
      h.values("convergence_s", r.convergence_s);
      h.object("delivered_during_outage", [&] {
        h.field("dv", r.dv.outage.packets_delivered);
        h.field("static", r.st.outage.packets_delivered);
      });
      h.object("counts", [&] {
        h.counts("dv_warmup", r.dv.warmup);
        h.counts("dv_outage", r.dv.outage);
        h.counts("static_warmup", r.st.warmup);
        h.counts("static_outage", r.st.outage);
      });
    });
  });
}
