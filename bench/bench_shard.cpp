// E-shard — multi-core executive wall clock (DESIGN.md §13.5).
//
// Drives one scenario::ScaleWorld internetwork — in the full
// configuration the largest grid whose traffic still arrives, 484
// routers (a 10^4-router grid drops most of its datagrams until the
// address plan aggregates, ROADMAP item 1) — under sim::ShardedExecutive
// at 1/2/4/8 shards. One shard is the baseline: it runs inline on the
// caller's thread, with no worker and no windows.
//
// The headline is the wall-clock time of a 5 s simulated slice. The
// bench runs 5 rounds, each of which runs every shard point once in
// turn, so a slow spell on the host lands on all points alike; each
// point reports the median over its rounds and the interquartile range
// (q1, q3), and its speedup is the one-shard median over its own.
// Wall clock shows real speedup only when the host grants the process
// that many cores; the run record holds the core count.
//
// Diagnostics per point, as medians over the rounds:
//
//   * agg_events_per_s — sum over shards of executed / busy CPU time
//     (CLOCK_THREAD_CPUTIME_ID, barrier waits excluded), the usual PDES
//     aggregate event rate: how much event throughput the partition
//     exposes per CPU-second, independent of the host's core count;
//   * windows, events per window and cross-shard messages per window
//     in the timed slice (these are the same in every round).
//
// Every round of a point must report the same events and counts as the
// point's first round (a fixed shard count replays byte for byte), every
// point the same completed-registration count as the one-shard run, and
// every slice must pass bench/harness.hpp's slice rules; the bench exits
// 1 when any of these fails.
//
// Usage: bench_shard [--small] [--out PATH]
//   --small     64-router smoke configuration, shards {1,2,4} (CI)
//   --out PATH  where to write the JSON report (default BENCH_shard.json)
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "scenario/metrics.hpp"
#include "scenario/scale_world.hpp"
#include "sim/sharded_executive.hpp"

using namespace mhrp;

namespace {

constexpr int kRounds = 5;

/// One timed slice at one shard count.
struct Run {
  scenario::ScaleRunStats stats;
  double wall_s = 0;
  double agg_events_per_s = 0;
  std::uint64_t windows = 0;   // in the timed slice; 0 with one shard
  std::uint64_t messages = 0;  // cross-shard, in the timed slice
};

/// Windows and cross-shard messages drained so far.
std::pair<std::uint64_t, std::uint64_t> sync_counts(
    const sim::ShardedExecutive& exec) {
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  for (const auto& shard : exec.shard_stats()) {
    windows = shard.windows;
    messages += shard.messages;
  }
  return {windows, messages};
}

Run run_once(bench::Harness& h, scenario::ScaleWorldOptions opt, int shards,
             sim::Time slice) {
  opt.shards = shards;
  scenario::ScaleWorld world(opt);
  world.start();
  world.run_for(sim::seconds(2));  // warm-up: discovery + first bindings

  Run r;
  const auto [windows_before, messages_before] = sync_counts(world.topo.sim());
  r.wall_s = h.timed([&] { r.stats = world.run_for(slice); });
  const auto [windows_after, messages_after] = sync_counts(world.topo.sim());
  r.windows = windows_after - windows_before;
  r.messages = messages_after - messages_before;
  for (const auto& shard : world.topo.sim().shard_stats()) {
    if (shard.busy_ns > 0) {
      r.agg_events_per_s +=
          double(shard.executed) / (double(shard.busy_ns) * 1e-9);
    }
  }
  h.check_slice(std::to_string(shards) + " shards", r.stats);
  return r;
}

bool same_counts(const scenario::ScaleRunStats& a,
                 const scenario::ScaleRunStats& b) {
  return a.events_executed == b.events_executed && a.cbr_sent == b.cbr_sent &&
         a.packets_delivered == b.packets_delivered && a.moves == b.moves &&
         a.registrations == b.registrations && a.ttl_drops == b.ttl_drops &&
         a.arp_timeouts == b.arp_timeouts &&
         a.no_route_drops == b.no_route_drops &&
         a.icmp_errors == b.icmp_errors;
}

/// Every round of one shard count, summarised.
struct Point {
  int shards = 1;
  std::vector<Run> runs;  // one per round
  std::vector<double> wall_s;
  double wall_q1 = 0, wall_median = 0, wall_q3 = 0;
  double agg_events_per_s = 0;  // median

  void summarise() {
    std::vector<double> agg;
    for (const Run& r : runs) {
      wall_s.push_back(r.wall_s);
      agg.push_back(r.agg_events_per_s);
    }
    wall_q1 = scenario::percentile(wall_s, 25);
    wall_median = scenario::percentile(wall_s, 50);
    wall_q3 = scenario::percentile(wall_s, 75);
    agg_events_per_s = scenario::percentile(agg, 50);
  }
  [[nodiscard]] const Run& first() const { return runs.front(); }
  [[nodiscard]] double per_window(std::uint64_t n) const {
    return first().windows > 0 ? double(n) / double(first().windows) : 0;
  }
};

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
      small ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  std::printf("bench_shard: %d routers, %d mobiles, %d regions, %gs sim, "
              "%d rounds\n",
              opt.routers, opt.mobile_hosts, opt.movement_regions,
              sim::to_seconds(slice), kRounds);

  std::vector<Point> sweep(shard_points.size());
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    sweep[p].shards = shard_points[p];
  }
  for (int round = 0; round < kRounds; ++round) {
    for (Point& point : sweep) {
      point.runs.push_back(run_once(h, opt, point.shards, slice));
      h.check(same_counts(point.runs.back().stats, point.first().stats),
              std::to_string(point.shards) + " shards: round " +
                  std::to_string(round) + " differs from round 0");
    }
  }

  const Point& base = sweep.front();
  std::printf("  %6s | %12s | %8s %8s %8s %7s | %14s | %8s %10s %10s\n",
              "shards", "events", "wall q1", "median", "q3", "speedup",
              "agg ev/s", "windows", "ev/window", "msg/window");
  for (Point& point : sweep) {
    point.summarise();
    const Run& r = point.first();
    std::printf(
        "  %6d | %12llu | %8.3f %8.3f %8.3f %6.2fx | %14.0f | %8llu %10.1f "
        "%10.1f\n",
        point.shards, static_cast<unsigned long long>(r.stats.events_executed),
        point.wall_q1, point.wall_median, point.wall_q3,
        base.wall_median / point.wall_median, point.agg_events_per_s,
        static_cast<unsigned long long>(r.windows),
        point.per_window(r.stats.events_executed), point.per_window(r.messages));
    h.check(r.stats.registrations == base.first().stats.registrations,
            std::to_string(point.shards) +
                " shards: registrations differ from the 1-shard run");
  }

  return h.finish([&] {
    h.field("schema", "mhrp.bench.shard.v3");
    h.object("config", [&] {
      h.field("routers", opt.routers);
      h.field("foreign_agents", opt.foreign_agents);
      h.field("mobile_hosts", opt.mobile_hosts);
      h.field("correspondents", opt.correspondents);
      h.field("movement_regions", opt.movement_regions);
      h.field("sim_seconds", sim::to_seconds(slice));
      h.field("rounds", kRounds);
    });
    h.rows("sweep", sweep, [&](const Point& point) {
      const Run& r = point.first();
      h.field("shards", point.shards);
      h.field("events", r.stats.events_executed);
      h.field("registrations", r.stats.registrations);
      h.field("wall_s_median", point.wall_median);
      h.field("wall_s_q1", point.wall_q1);
      h.field("wall_s_q3", point.wall_q3);
      h.field("wall_speedup_vs_1shard", base.wall_median / point.wall_median);
      h.values("wall_s_rounds", point.wall_s);
      h.field("agg_events_per_s", point.agg_events_per_s);
      h.field("windows", r.windows);
      h.field("events_per_window", point.per_window(r.stats.events_executed));
      h.field("messages_per_window", point.per_window(r.messages));
      h.counts("counts", r.stats);
    });
  });
}
