// ShardedExecutive: the simulation executive (DESIGN.md §13). The
// contract under test, in order of importance:
//
//  * the window protocol runs a shard's events in the order the
//    one-shard inline loop does — same firings, count and final clock;
//  * for a FIXED shard count, runs are byte-identical (the window
//    protocol and the fixed inbox drain order make sequence assignment
//    deterministic), including with the fault plane armed;
//  * a cross-shard post() whose timestamp lands inside the still-open
//    window is a hard LookaheadViolation — never a silent clamp into
//    the past (clamping would make results depend on worker timing);
//  * cancel() across shards is rejected (returns false, same answer as
//    an already-fired event) rather than racing a foreign queue, through
//    the executive's own handle and through a handle pinned to the
//    shard alike;
//  * between runs, a handle pinned to a shard (shard_view) schedules on
//    that shard and the executive's own handle on shard 0;
//  * a deadline behind the clock never moves it back;
//  * the caller's thread runs shard 0 and one worker each other shard;
//    workers wait at the barrier between runs and leave only at
//    shutdown, and an event's exception surfaces from run_until (the
//    lowest shard's when several shards throw in one window).
//
// Plus the refusal of single-threaded instruments (the text Tracer, the
// profiler, loss bursts) by worlds with more than one shard.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"
#include "scenario/tracer.hpp"
#include "sim/executive.hpp"
#include "sim/sharded_executive.hpp"
#include "sim/profiler.hpp"

namespace mhrp::sim {
namespace {

TEST(ShardedExecutive, ConstructorValidates) {
  EXPECT_THROW(ShardedExecutive(0), std::invalid_argument);
  EXPECT_THROW(ShardedExecutive(2, 0), std::invalid_argument);
  EXPECT_NO_THROW(ShardedExecutive(4, millis(1)));
  EXPECT_THROW(scenario::Topology(1, 0), std::invalid_argument);
  EXPECT_NO_THROW(scenario::Topology(1, 1));
}

TEST(ShardedExecutive, RunsLocalEventsInTimeOrder) {
  ShardedExecutive exec(1);
  std::vector<int> fired;
  (void)exec.at(millis(2), [&] { fired.push_back(2); });
  (void)exec.at(millis(1), [&] { fired.push_back(1); });
  (void)exec.at(millis(1), [&] { fired.push_back(10); });  // FIFO at ties
  EXPECT_EQ(exec.run_until(millis(5)), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(exec.now(), millis(5));  // drained run leaves clock at deadline
  EXPECT_EQ(exec.pending_events(), 0u);
}

TEST(ShardedExecutive, CrossShardPostRunsOnTargetShard) {
  ShardedExecutive exec(2, millis(1));
  std::uint32_t observed_shard = 99;
  Time observed_at = -1;
  // Quiesced posts go straight to the target queue; this one arms a
  // mid-run cross-shard post back the other way.
  exec.post(1, millis(1), [&] {
    exec.post(0, exec.now() + exec.lookahead(), [&] {
      observed_shard = exec.shard_id();
      observed_at = exec.now();
    });
  });
  (void)exec.run_until(millis(10));
  EXPECT_EQ(observed_shard, 0u);
  EXPECT_EQ(observed_at, millis(2));
}

TEST(ShardedExecutive, PostAtExactlyWindowEndIsLegal) {
  // From an event at time t in window [T, E), posting at now+lookahead
  // can land exactly on E — the first instant the target shard has not
  // yet committed to. That boundary must be accepted.
  ShardedExecutive exec(2, millis(1));
  bool ran = false;
  exec.post(0, 0, [&] {
    exec.post(1, exec.now() + exec.lookahead(), [&] { ran = true; });
  });
  (void)exec.run_until(millis(10));
  EXPECT_TRUE(ran);
}

TEST(ShardedExecutive, LookaheadViolationIsHardErrorNotClamp) {
  // A cross-shard send timestamped inside the still-open window would
  // have to arrive "in the past" of a shard that may already have run
  // beyond it. The executive refuses — LookaheadViolation surfaces on
  // the driver — rather than clamping, which would silently order the
  // event by worker timing instead of by simulated time.
  ShardedExecutive exec(2, millis(1));
  exec.post(0, 0, [&] {
    exec.post(1, exec.now() + 1, [] {});  // 1us ahead, window is 1ms wide
  });
  try {
    (void)exec.run_until(millis(10));
    FAIL() << "expected LookaheadViolation";
  } catch (const LookaheadViolation& v) {
    EXPECT_EQ(v.when(), 1);
    EXPECT_EQ(v.window_end(), millis(1));
    EXPECT_NE(std::string(v.what()).find("lookahead"), std::string::npos);
  }
}

TEST(ShardedExecutive, QuiescedPostIsNotALookaheadViolation) {
  // Between runs no window is open: driver-side posts (scenario setup)
  // schedule directly, with at()'s clamp-to-now semantics.
  ShardedExecutive exec(2, millis(1));
  bool ran = false;
  exec.post(1, 0, [&] { ran = true; });
  (void)exec.run_until(millis(1));
  EXPECT_TRUE(ran);
}

TEST(ShardedExecutive, CancelAcrossShardIsRejected) {
  ShardedExecutive exec(2, millis(1));
  bool victim_ran = false;
  bool cancel_result = true;
  const EventHandle victim =
      exec.shard_view(0).at(millis(5), [&] { victim_ran = true; });
  // Same-shard mid-run cancels still work; a foreign shard's handle is
  // rejected without touching that shard's queue.
  exec.post(1, millis(1), [&] { cancel_result = exec.cancel(victim); });
  (void)exec.run_until(millis(10));
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(victim_ran);

  // Quiesced, the driver owns every queue, so cancel finds the owner.
  bool later_ran = false;
  const EventHandle later =
      exec.shard_view(1).at(millis(20), [&] { later_ran = true; });
  EXPECT_TRUE(exec.cancel(later));
  (void)exec.run_until(millis(30));
  EXPECT_FALSE(later_ran);
}

TEST(ShardedExecutive, ForeignShardViewCancelIsRejectedMidRun) {
  // The handle pinned to a shard is the Executive its nodes hold; shard
  // 1's worker reaching shard 0's must get the executive's answer
  // (false), not write shard 0's queue while shard 0's thread runs it.
  ShardedExecutive exec(2, millis(1));
  bool victim_ran = false;
  bool cancel_result = true;
  const EventHandle victim =
      exec.shard_view(0).at(millis(5), [&] { victim_ran = true; });
  exec.post(1, millis(1),
            [&] { cancel_result = exec.shard_view(0).cancel(victim); });
  (void)exec.run_until(millis(10));
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(victim_ran);
}

TEST(ShardedExecutive, ForeignShardViewAtThrowsMidRun) {
  ShardedExecutive exec(2, millis(1));
  bool threw = false;
  exec.post(1, millis(1), [&] {
    try {
      (void)exec.shard_view(0).at(millis(5), [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  (void)exec.run_until(millis(10));
  EXPECT_TRUE(threw);
}

// A node's handle and the executive's own are one concrete class.
static_assert(!std::is_polymorphic_v<Executive>);

TEST(ShardedExecutive, HandlesScheduleOnTheirOwnShardBetweenRuns) {
  ShardedExecutive exec(2, millis(1));
  Executive& shard1 = exec.shard_view(1);
  EXPECT_EQ(shard1.shard_id(), 1u);  // on the caller's thread, quiesced
  EXPECT_EQ(exec.shard_id(), 0u);
  // Each shard's log is written only by the thread running that shard.
  std::vector<std::vector<Time>> fired_on(2);
  const auto log = [&] { fired_on[exec.shard_id()].push_back(exec.now()); };
  (void)shard1.at(millis(3), log);
  (void)exec.at(millis(10), log);
  (void)exec.run();
  EXPECT_EQ(fired_on[0], std::vector<Time>{millis(10)});
  EXPECT_EQ(fired_on[1], std::vector<Time>{millis(3)});
  // A drained run() leaves each clock at its shard's last event; the
  // executive's own handle reads the furthest, a pinned one its shard's.
  EXPECT_EQ(exec.now(), millis(10));
  (void)shard1.after(millis(2), log);
  (void)exec.run();
  EXPECT_EQ(fired_on[1], (std::vector<Time>{millis(3), millis(5)}));
  EXPECT_EQ(fired_on[0].size(), 1u);
}

TEST(ShardedExecutive, ProfilerIsRefused) {
  ShardedExecutive exec(2);
  EXPECT_NO_THROW(exec.set_profiler(nullptr));
  EventLoopProfiler profiler;
  EXPECT_THROW(exec.set_profiler(&profiler), std::logic_error);
}

TEST(ShardedExecutive, PastDeadlineNeverRewindsTheClock) {
  for (const Executive::ShardId shards : {1u, 2u}) {
    ShardedExecutive exec(shards);
    (void)exec.run_until(millis(10));
    (void)exec.run_until(millis(5));
    EXPECT_EQ(exec.now(), millis(10)) << shards << " shards";
    (void)exec.run_for(millis(3));
    EXPECT_EQ(exec.now(), millis(13)) << shards << " shards";
  }
}

/// A seeded program of self-rescheduling events, all on shard 0. Each
/// firing logs its id, schedules up to three successors 0-750 us ahead
/// (same-time ties, and firings on both sides of every 1 ms window
/// boundary), and sometimes cancels a handle that may have fired.
struct SelfReschedulingProgram {
  explicit SelfReschedulingProgram(ShardedExecutive& exec)
      : shard0(exec.shard_view(0)) {
    for (int i = 0; i < 8; ++i) spawn();
  }

  void spawn() {
    const int id = next_id++;
    const Time delay = static_cast<Time>(rng() % 4) * 250;
    handles.push_back(shard0.after(delay, [this, id] { fire(id); }));
  }

  void fire(int id) {
    fired.push_back(id);
    const auto children = rng() % 4;
    for (unsigned c = 0; c < children && next_id < 3000; ++c) spawn();
    if (rng() % 4 == 0) (void)shard0.cancel(handles[rng() % handles.size()]);
  }

  Executive& shard0;
  std::mt19937 rng{20261018};
  int next_id = 0;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
};

TEST(ShardedExecutive, WindowsRunAShardInTheInlineOrder) {
  // One shard runs inline on the caller's thread; two run the window
  // protocol (shard 1 idle). Shard 0's events must fire in the same
  // order, with the same count and the same final clock, either way.
  ShardedExecutive inline_exec(1);
  ShardedExecutive windowed(2, millis(1));
  SelfReschedulingProgram one(inline_exec);
  SelfReschedulingProgram two(windowed);
  const std::size_t executed_inline = inline_exec.run();
  const std::size_t executed_windowed = windowed.run();
  ASSERT_GT(one.fired.size(), 1000u);
  EXPECT_EQ(one.fired, two.fired);
  EXPECT_EQ(executed_inline, executed_windowed);
  EXPECT_EQ(inline_exec.now(), windowed.now());
  EXPECT_GT(inline_exec.now(), millis(1));
}

TEST(ShardedExecutive, CallerThreadRunsShardZero) {
  // An N-shard run uses N threads: the caller's runs shard 0, and one
  // worker runs each other shard. A hop chain visits every shard in turn
  // (each shard's log is written only by the thread running it).
  for (const Executive::ShardId shards : {2u, 4u}) {
    ShardedExecutive exec(shards, millis(1));
    std::vector<std::vector<std::thread::id>> ran_on(shards);
    const std::function<void(int)> hop = [&](int left) {
      const Executive::ShardId here = exec.shard_id();
      ran_on[here].push_back(std::this_thread::get_id());
      if (left > 0) {
        exec.post((here + 1) % shards, exec.now() + exec.lookahead(),
                  [&hop, left] { hop(left - 1); });
      }
    };
    for (Executive::ShardId s = 0; s < shards; ++s) {
      exec.post(s, micros(s), [&hop] { hop(12); });
    }
    (void)exec.run_until(millis(50));
    const std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> threads;
    for (Executive::ShardId s = 0; s < shards; ++s) {
      ASSERT_FALSE(ran_on[s].empty()) << shards << " shards, shard " << s;
      for (const std::thread::id id : ran_on[s]) {
        EXPECT_EQ(id, ran_on[s].front()) << shards << " shards, shard " << s;
        EXPECT_EQ(id == caller, s == 0) << shards << " shards, shard " << s;
      }
      threads.insert(ran_on[s].front());
    }
    EXPECT_EQ(threads.size(), shards);
  }
}

/// One hop chain per shard, each forwarding to the next shard at
/// now + lookahead + a multiple of the shard count, so chain c's events
/// all sit at times congruent to c: no two events on one shard ever
/// share a timestamp, and each shard's firing order is a function of
/// simulated time alone, however the run is cut into run_for() calls.
struct PingPong {
  explicit PingPong(ShardedExecutive& executive)
      : exec(executive), fired(executive.shard_count()) {
    for (Executive::ShardId c = 0; c < exec.shard_count(); ++c) {
      exec.post(c, micros(c), [this, c] { hop(c, 0); });
    }
  }

  void hop(Executive::ShardId chain, int n) {
    const Executive::ShardId here = exec.shard_id();
    const Executive::ShardId shards = exec.shard_count();
    fired[here].push_back(static_cast<int>(chain) * 100000 + n);
    const Time gap = exec.lookahead() + static_cast<Time>(shards * (n % 5));
    exec.post((here + 1) % shards, exec.now() + gap,
              [this, chain, n] { hop(chain, n + 1); });
  }

  ShardedExecutive& exec;
  std::vector<std::vector<int>> fired;  // per shard, by its own thread
};

TEST(ShardedExecutive, WorkersParkBetweenRunsAndExitOnlyOnShutdown) {
  // Between runs the workers wait at the barrier, and they leave only in
  // the phase whose completion published shutdown: a worker that left
  // at an ordinary end of run would strand the destructor at the
  // barrier. Each executive runs a few windows and is destroyed at once,
  // which gives such a race room to bite.
  for (int i = 0; i < 200; ++i) {
    ShardedExecutive exec(i % 2 == 0 ? 2 : 4, millis(1));
    PingPong program(exec);
    (void)exec.run_until(millis(5));
    ASSERT_GE(program.fired[1].size(), 2u) << "executive " << i;
  }
  // Many short runs fire each shard's events in the order of one long
  // run on a twin.
  ShardedExecutive chopped(4, millis(1));
  ShardedExecutive whole(4, millis(1));
  PingPong a(chopped);
  PingPong b(whole);
  for (int i = 0; i < 1000; ++i) (void)chopped.run_for(micros(500));
  (void)whole.run_until(millis(500));
  EXPECT_EQ(chopped.now(), whole.now());
  for (Executive::ShardId s = 0; s < 4; ++s) {
    EXPECT_GT(a.fired[s].size(), 100u) << "shard " << s;
    EXPECT_EQ(a.fired[s], b.fired[s]) << "shard " << s;
  }
}

TEST(ShardedExecutive, EventExceptionsSurfaceFromEitherSideOfTheBarrier) {
  // A LookaheadViolation raised on shard 0 (the caller's thread) or on
  // shard 1 (a worker) surfaces from run_until; when both throw in one
  // window, shard 0's does. Either way the executive then runs its
  // remaining events, and its destructor does not hang. Each violating
  // post lands 1 us after its event on shard 0 and 2 us after on shard
  // 1, which tells the two exceptions apart.
  struct Case {
    bool shard0_throws;
    bool shard1_throws;
    Time surfaced_when;
  };
  for (const Case c : {Case{true, false, 1}, Case{false, true, 2},
                       Case{true, true, 1}}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      ShardedExecutive exec(2, millis(1));
      if (c.shard0_throws) {
        exec.post(0, 0, [&exec] { exec.post(1, exec.now() + 1, [] {}); });
      }
      if (c.shard1_throws) {
        exec.post(1, 0, [&exec] { exec.post(0, exec.now() + 2, [] {}); });
      }
      bool later0 = false;
      bool later1 = false;
      exec.post(0, millis(5), [&later0] { later0 = true; });
      exec.post(1, millis(5), [&later1] { later1 = true; });
      try {
        (void)exec.run_until(millis(10));
        FAIL() << "expected LookaheadViolation";
      } catch (const LookaheadViolation& v) {
        EXPECT_EQ(v.when(), c.surfaced_when);
      }
      EXPECT_EQ(exec.pending_events(), 2u);
      EXPECT_EQ(exec.run_until(millis(10)), 2u);
      EXPECT_TRUE(later0);
      EXPECT_TRUE(later1);
    }
  }
}

TEST(ShardedExecutive, StopEndsRunAtWindowBoundary) {
  ShardedExecutive exec(2, millis(1));
  exec.post(0, millis(1), [&] { exec.stop(); });
  bool later_ran = false;
  exec.post(1, seconds(5), [&] { later_ran = true; });
  (void)exec.run();
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(exec.pending_events(), 1u);
}

}  // namespace
}  // namespace mhrp::sim

namespace mhrp::scenario {
namespace {

/// A ScaleWorld small enough for TSan but with every cross-shard path
/// live: 36 routers in 4 movement regions (9 routers, 3 cells, 6
/// mobiles each), correspondents on the far region's shard, CBR flows
/// crossing the backbone both ways. movement_regions is pinned so the
/// movement RNG draws are identical at every shard count.
ScaleWorldOptions sharded_options(int shards) {
  ScaleWorldOptions opt;
  opt.routers = 36;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 24;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  opt.shards = shards;
  opt.movement_regions = 4;
  return opt;
}

std::string run_digest(const ScaleWorldOptions& opt, sim::Time duration) {
  ScaleWorld world(opt);
  world.start();
  (void)world.run_for(duration);
  return world.metrics_digest();
}

TEST(ShardedScaleWorld, FixedShardCountIsDeterministic) {
  const std::string first = run_digest(sharded_options(4), sim::seconds(10));
  const std::string second = run_digest(sharded_options(4), sim::seconds(10));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ShardedScaleWorld, ControlPlaneObservablesAreShardCountIndependent) {
  // Across DIFFERENT shard counts full digests legitimately diverge:
  // a cross-shard frame is sequenced at inbox-drain time rather than at
  // transmit time, so two events at the same simulated microsecond on a
  // shared node (the home agent, a correspondent) can swap — data-plane
  // counters wobble by a few packets. The contract (DESIGN.md §13) is
  // that everything keyed by simulated time stays identical: movement,
  // completed registrations, and the handoff-latency series merged on
  // the canonical (time, mobile) key.
  ScaleWorld one(sharded_options(1));
  ScaleWorld four(sharded_options(4));
  one.start();
  four.start();
  const ScaleRunStats s1 = one.run_for(sim::seconds(10));
  const ScaleRunStats s4 = four.run_for(sim::seconds(10));
  EXPECT_EQ(s1.moves, s4.moves);
  EXPECT_EQ(s1.registrations, s4.registrations);
  EXPECT_GT(s1.registrations, 0u);
  EXPECT_EQ(one.handoff_latencies(), four.handoff_latencies());
  ASSERT_FALSE(one.handoff_latencies().empty());
}

TEST(ShardedScaleWorld, RejectsUnshardableConfigurations) {
  // at least one shard...
  EXPECT_THROW(ScaleWorld{sharded_options(0)}, std::invalid_argument);
  // ...regions must be a positive multiple of shards...
  ScaleWorldOptions bad = sharded_options(4);
  bad.movement_regions = 6;
  EXPECT_THROW(ScaleWorld{bad}, std::invalid_argument);
  // ...every region needs at least one cell...
  ScaleWorldOptions sparse = sharded_options(4);
  sparse.movement_regions = 16;
  sparse.foreign_agents = 8;
  EXPECT_THROW(ScaleWorld{sparse}, std::invalid_argument);
  // ...and single-threaded instruments stay on one shard.
  ScaleWorldOptions traced = sharded_options(2);
  traced.telemetry.trace = true;
  EXPECT_THROW(ScaleWorld{traced}, std::invalid_argument);
  ScaleWorldOptions profiled = sharded_options(2);
  profiled.telemetry.profiler = true;
  EXPECT_THROW(ScaleWorld{profiled}, std::invalid_argument);
  ScaleWorldOptions bursty = sharded_options(2);
  bursty.chaos.enabled = true;
  bursty.chaos.loss_bursts_per_sec = 0.2;
  EXPECT_THROW(ScaleWorld{bursty}, std::invalid_argument);
  // One shard accepts all three.
  ScaleWorldOptions observed = sharded_options(1);
  observed.telemetry.trace = true;
  observed.telemetry.profiler = true;
  observed.chaos.enabled = true;
  observed.chaos.loss_bursts_per_sec = 0.2;
  EXPECT_NO_THROW(ScaleWorld{observed});
}

TEST(ShardedScaleWorld, TracerConstructionFailsFast) {
  // ScaleWorld's own validation rejects telemetry.trace under shards,
  // but a Tracer can also be attached to a bare Topology by hand; it
  // must refuse a sharded world up front (one output stream, many
  // workers) instead of interleaving garbage, mirroring
  // ShardedExecutive::set_profiler.
  scenario::Topology sharded(1, 2);
  EXPECT_THROW(scenario::Tracer{sharded}, std::logic_error);
  scenario::Topology one_shard(1, 1);
  EXPECT_NO_THROW(scenario::Tracer{one_shard});
}

TEST(ShardedScaleWorld, ChaosRunIsDeterministicAcrossRepeats) {
  // The TSan chaos target: cell outages and FA crashes on worker
  // shards, HA crashes on shard 0, recovery clocks hopping shards via
  // lookahead-delayed posts. Two runs must agree byte for byte.
  ScaleWorldOptions opt = sharded_options(4);
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xc4a05;
  opt.chaos.horizon = sim::seconds(10);
  opt.chaos.cell_outages_per_sec = 0.3;
  opt.chaos.fa_crashes_per_sec = 0.2;
  opt.chaos.ha_crashes_per_sec = 0.05;
  opt.chaos.mean_outage = sim::seconds(2);
  opt.chaos.mean_downtime = sim::seconds(2);
  const std::string first = run_digest(opt, sim::seconds(10));
  const std::string second = run_digest(opt, sim::seconds(10));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mhrp::scenario
