// E-shard — multi-core executive throughput (DESIGN.md §13).
//
// Drives one scenario::ScaleWorld internetwork — in the full
// configuration the largest grid whose traffic still arrives, 484
// routers (a 10^4-router grid drops most of its datagrams until the
// address plan aggregates, ROADMAP item 1) — under sim::ShardedExecutive
// at 1/2/4/8 shards, and reports events/sec for each point. One shard is
// the baseline: it runs inline on the caller's thread, with no worker
// and no windows. Two rates are reported per point:
//
//   * wall_events_per_s   — events / wall-clock run time. This shows
//     real speedup only when the host grants the process that many
//     cores; on a core-restricted CI box it saturates at ~1x.
//   * agg_events_per_s    — sum over shards of executed / busy CPU time
//     (CLOCK_THREAD_CPUTIME_ID, barrier waits excluded). This is the
//     usual PDES aggregate event rate: how much event throughput the
//     partition exposes per CPU-second, net of all windowing and
//     mailbox overhead, independent of the host's core count. A host
//     with >= 8 free cores sees the same ratio in the wall-clock
//     column.
//
// Each point must report the same completed-registration count as the
// one-shard run and pass bench/harness.hpp's slice rules; the bench
// exits 1 when any of these fails.
//
// Usage: bench_shard [--small] [--out PATH]
//   --small     64-router smoke configuration, shards {1,2} (CI)
//   --out PATH  where to write the JSON report (default BENCH_shard.json)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "scenario/scale_world.hpp"
#include "sim/sharded_executive.hpp"

using namespace mhrp;

namespace {

struct PointResult {
  int shards = 1;
  scenario::ScaleRunStats stats;
  double wall_s = 0;
  double wall_events_per_s = 0;
  double agg_events_per_s = 0;
};

PointResult run_point(bench::Harness& h, scenario::ScaleWorldOptions opt,
                      int shards, sim::Time slice) {
  opt.shards = shards;
  scenario::ScaleWorld world(opt);
  world.start();
  world.run_for(sim::seconds(2));  // warm-up: discovery + first bindings

  PointResult r;
  r.shards = shards;
  r.wall_s = h.timed([&] { r.stats = world.run_for(slice); });
  r.wall_events_per_s = double(r.stats.events_executed) / r.wall_s;
  for (const auto& shard : world.topo.sim().shard_stats()) {
    if (shard.busy_ns > 0) {
      r.agg_events_per_s +=
          double(shard.executed) / (double(shard.busy_ns) * 1e-9);
    }
  }
  h.check_slice(std::to_string(shards) + " shards", r.stats);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "BENCH_shard.json", /*seed=*/7);

  const bool small = h.small();
  scenario::ScaleWorldOptions opt;
  opt.routers = small ? 64 : 484;
  opt.foreign_agents = small ? 24 : 240;
  opt.mobile_hosts = small ? 64 : 2000;
  opt.correspondents = small ? 8 : 64;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  // Pinned across the whole sweep so every point runs the same movement
  // program and registration counts are comparable.
  opt.movement_regions = 8;
  const sim::Time slice = sim::seconds(5);
  const std::vector<int> shard_points =
      small ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::printf("bench_shard: %d routers, %d mobiles, %d regions, %gs sim\n",
              opt.routers, opt.mobile_hosts, opt.movement_regions,
              sim::to_seconds(slice));
  std::printf("  %6s | %12s %8s | %14s %14s\n", "shards", "events", "wall s",
              "wall ev/s", "agg ev/s");

  std::vector<PointResult> sweep;
  for (int shards : shard_points) {
    PointResult r = run_point(h, opt, shards, slice);
    sweep.push_back(r);
    std::printf("  %6d | %12llu %8.2f | %14.0f %14.0f\n", r.shards,
                static_cast<unsigned long long>(r.stats.events_executed),
                r.wall_s, r.wall_events_per_s, r.agg_events_per_s);
    h.check(r.stats.registrations == sweep.front().stats.registrations,
            std::to_string(shards) +
                " shards: registrations differ from the 1-shard run");
  }

  const double base_agg = sweep.front().agg_events_per_s;
  const double base_wall = sweep.front().wall_events_per_s;
  double best_agg = 0;
  double best_wall = 0;
  for (const PointResult& r : sweep) {
    if (r.shards >= 2) {
      best_agg = std::max(best_agg, r.agg_events_per_s);
      best_wall = std::max(best_wall, r.wall_events_per_s);
    }
  }
  const double agg_speedup = base_agg > 0 ? best_agg / base_agg : 0;
  const double wall_speedup = base_wall > 0 ? best_wall / base_wall : 0;
  std::printf("  aggregate speedup (best vs 1 shard): %.2fx  (wall: %.2fx)\n",
              agg_speedup, wall_speedup);

  return h.finish([&] {
    h.field("schema", "mhrp.bench.shard.v2");
    h.object("config", [&] {
      h.field("routers", opt.routers);
      h.field("foreign_agents", opt.foreign_agents);
      h.field("mobile_hosts", opt.mobile_hosts);
      h.field("correspondents", opt.correspondents);
      h.field("movement_regions", opt.movement_regions);
      h.field("sim_seconds", sim::to_seconds(slice));
    });
    h.rows("sweep", sweep, [&](const PointResult& r) {
      h.field("shards", r.shards);
      h.field("events", r.stats.events_executed);
      h.field("registrations", r.stats.registrations);
      h.field("wall_s", r.wall_s);
      h.field("wall_events_per_s", r.wall_events_per_s);
      h.field("agg_events_per_s", r.agg_events_per_s);
      h.counts("counts", r.stats);
    });
    h.field("agg_speedup_max_vs_1shard", agg_speedup);
    h.field("wall_speedup_max_vs_1shard", wall_speedup);
  });
}
