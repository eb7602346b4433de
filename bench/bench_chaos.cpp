// E-chaos — fault recovery at scale (§5.2, §2). The paper's robustness
// claim is not just that MHRP survives individual failures but that
// recovery stays cheap as the internetwork grows: a mobile host behind a
// crashed foreign agent or a partitioned cell re-registers on its own
// timers, the home agent repairs its binding, and no global state needs
// rebuilding.
//
// This bench drives seeded scenario::ScaleWorld internetworks with the
// deterministic fault plane enabled, sweeping (fault rate x size), and
// reports for each point:
//
//   * recovery time percentiles — seconds from an FA crash or cell
//     partition to the affected mobile's next completed registration,
//   * packets lost per outage (expected CBR minus delivered while the
//     outage was open) and binding staleness at the home agent,
//   * fault-plane counters (outages injected/healed, crashes/reboots,
//     impairment bursts) so a run is auditable against its schedule,
//   * on DV points, reconvergence times and suspected counting-to-
//     infinity episodes (loops of three or more routers).
//
// A no-fault baseline point runs first with the same topology and
// workload as the BENCH_scale.json sweep's matching size; its events/sec
// bounds the cost of merely linking the fault plane (must stay within
// 2% — the plane is pure scheduled events, there is no per-packet hook
// on the no-fault path). The bench exits 1 unless the baseline passes
// bench/harness.hpp's slice rules; faulted points record the same counts.
//
// Usage: bench_chaos [--small] [--out PATH]
//   --small    one tiny sweep point (CI smoke)
//   --out PATH where to write the JSON report (default BENCH_chaos.json)
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "scenario/metrics.hpp"
#include "scenario/scale_world.hpp"

using namespace mhrp;

namespace {

struct ChaosPoint {
  int routers;
  int mobiles;
  double fault_rate;  // cell outages/sec; other rates derived from it
  bool dv = false;    // dynamic DV routing plane instead of static routes
};

struct ChaosResult {
  ChaosPoint point{};
  int foreign_agents = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  double events_per_s = 0;
  scenario::ScaleRunStats stats;
  faults::FaultPlaneStats faults{};
  scenario::PercentileSummary recovery{};
  scenario::PercentileSummary outage_loss{};
  scenario::PercentileSummary staleness{};
  scenario::PercentileSummary handoff{};
  scenario::PercentileSummary convergence{};  // DV points only
  std::uint64_t counting_to_infinity = 0;     // DV points only
};

ChaosResult run_point(bench::Harness& h, ChaosPoint point, double sim_secs) {
  scenario::ScaleWorldOptions opt =
      bench::sweep_options(point.routers, point.mobiles);
  if (point.dv) opt.protocol.routing = routing::dv::Mode::kDv;
  if (point.fault_rate > 0) {
    opt.chaos.enabled = true;
    opt.chaos.fault_seed = 0xc4a05;
    opt.chaos.horizon = sim::from_seconds(sim_secs);
    opt.chaos.cell_outages_per_sec = point.fault_rate;
    opt.chaos.backbone_outages_per_sec = point.fault_rate / 2;
    opt.chaos.fa_crashes_per_sec = point.fault_rate / 2;
    opt.chaos.loss_bursts_per_sec = point.fault_rate;
    opt.chaos.mean_outage = sim::seconds(2);
    opt.chaos.mean_downtime = sim::seconds(2);
  }
  scenario::ScaleWorld world(opt);
  world.start();
  world.run_for(sim::seconds(2));  // warm-up: discovery + first bindings

  ChaosResult r;
  r.point = point;
  r.foreign_agents = opt.foreign_agents;
  r.sim_seconds = sim_secs;
  r.wall_seconds = h.timed(
      [&] { r.stats = world.run_for(sim::from_seconds(sim_secs)); });
  r.events_per_s = double(r.stats.events_executed) / r.wall_seconds;
  if (world.fault_plane() != nullptr) {
    r.faults = world.fault_plane()->stats();
  }
  r.recovery = scenario::summarize(world.recovery_times());
  r.outage_loss = scenario::summarize(world.outage_losses());
  r.staleness = scenario::summarize(world.binding_staleness());
  r.handoff = scenario::summarize(world.handoff_latencies());
  r.convergence = scenario::summarize(world.convergence_times());
  for (const auto& process : world.dv_processes) {
    r.counting_to_infinity += process->stats().counting_to_infinity;
  }
  if (point.fault_rate == 0) {
    h.check_slice("baseline N=" + std::to_string(point.routers) +
                      " M=" + std::to_string(point.mobiles),
                  r.stats);
  }
  return r;
}

void print_summary_row(const char* tag,
                       const scenario::PercentileSummary& s) {
  std::printf("    %-12s | n=%-5llu p50=%-8.3f p90=%-8.3f p99=%-8.3f "
              "max=%.3f\n",
              tag, static_cast<unsigned long long>(s.count), s.p50, s.p90,
              s.p99, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "BENCH_chaos.json", /*seed=*/1);
  const bool small = h.small();

  std::printf("E-chaos: fault recovery at scale (§5.2, §2)\n");

  std::vector<ChaosPoint> points;
  double sim_secs = 0;
  if (small) {
    points = {{16, 8, 0.0}, {16, 8, 0.2}, {16, 8, 0.2, true}};
    sim_secs = 10;
  } else {
    // A no-fault baseline (events/sec comparable against the matching
    // BENCH_scale.json point), then fault rate x size on static routes,
    // then the same faulted points on the DV plane — the convergence_s
    // series measures time-to-reconverge per link-fault epoch, and the
    // staleness/handoff columns show whether route churn leaks into the
    // mobility protocol's latencies.
    points = {{64, 64, 0.0},        {64, 64, 0.1},
              {64, 64, 0.3},        {144, 128, 0.1},
              {256, 256, 0.1},      {64, 64, 0.1, true},
              {64, 64, 0.3, true},  {144, 128, 0.1, true}};
    sim_secs = 60;
  }

  std::vector<ChaosResult> results;
  for (ChaosPoint p : points) {
    ChaosResult r = run_point(h, p, sim_secs);
    results.push_back(r);
    std::printf(
        "\n  N=%d M=%d fault_rate=%.2f/s routing=%s | %.0f events/s | "
        "faults %llu/%llu links, %llu/%llu nodes\n",
        r.point.routers, r.point.mobiles, r.point.fault_rate,
        r.point.dv ? "dv" : "static", r.events_per_s,
        static_cast<unsigned long long>(r.faults.link_failures),
        static_cast<unsigned long long>(r.faults.link_recoveries),
        static_cast<unsigned long long>(r.faults.node_crashes),
        static_cast<unsigned long long>(r.faults.node_reboots));
    if (r.point.fault_rate > 0) {
      print_summary_row("recovery s", r.recovery);
      print_summary_row("loss pkts", r.outage_loss);
      print_summary_row("staleness s", r.staleness);
      print_summary_row("handoff s", r.handoff);
      if (r.point.dv) {
        print_summary_row("converge s", r.convergence);
        std::printf("    %-12s | %llu\n", "count-to-inf",
                    static_cast<unsigned long long>(r.counting_to_infinity));
      }
    }
  }

  std::printf(
      "\n  §5.2: recovery is driven by the mobile host's own registration\n"
      "  timers and stays flat as the internetwork grows; outage loss is\n"
      "  bounded by the outage itself, not by any global repair.\n");

  return h.finish([&] {
    h.rows("sweep", results, [&](const ChaosResult& r) {
      h.field("routers", r.point.routers);
      h.field("foreign_agents", r.foreign_agents);
      h.field("mobiles", r.point.mobiles);
      h.field("fault_rate_per_sec", r.point.fault_rate);
      h.field("routing", r.point.dv ? "dv" : "static");
      h.field("sim_seconds", r.sim_seconds);
      h.field("wall_seconds", r.wall_seconds);
      h.field("events", r.stats.events_executed);
      h.field("events_per_sec", r.events_per_s);
      h.field("packets_delivered", r.stats.packets_delivered);
      h.field("registrations", r.stats.registrations);
      h.object("faults", [&] {
        h.field("link_failures", r.faults.link_failures);
        h.field("link_recoveries", r.faults.link_recoveries);
        h.field("node_crashes", r.faults.node_crashes);
        h.field("node_reboots", r.faults.node_reboots);
        h.field("impairment_bursts", r.faults.impairment_bursts);
      });
      h.summary("recovery_s", r.recovery);
      h.summary("outage_loss_pkts", r.outage_loss);
      h.summary("binding_staleness_s", r.staleness);
      h.summary("handoff_s", r.handoff);
      h.summary("convergence_s", r.convergence);
      if (r.point.dv) h.field("counting_to_infinity", r.counting_to_infinity);
      h.counts("counts", r.stats);
    });
  });
}
