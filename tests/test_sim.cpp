// Unit tests: discrete-event queue ordering, cancellation, the simulator
// executive, and timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sharded_executive.hpp"
#include "sim/timer.hpp"

namespace mhrp::sim {

/// Test-only backdoor into the queue's internals: forcing a slot's
/// generation counter near its wraparound point (2^32 schedule/cancel
/// cycles through one slot would otherwise take hours), and checking the
/// heap array's order.
struct EventQueueTestPeer {
  static void set_free_slot_generation(EventQueue& q, std::uint32_t slot,
                                       std::uint32_t generation) {
    q.slots_[slot].generation = generation;
  }
  /// True when every heap entry orders at or after its parent.
  static bool heap_ordered(const EventQueue& q) {
    for (std::size_t i = 1; i < q.heap_.size(); ++i) {
      if (EventQueue::before(q.heap_[i], q.heap_[(i - 1) / 2])) return false;
    }
    return true;
  }
};

namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.schedule(30, [&] { order.push_back(3); });
  (void)q.schedule(10, [&] { order.push_back(1); });
  (void)q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifoBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(q.cancel(handle));
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(handle));  // double cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST(EventQueue, SizeTracksLiveEventsOnly) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  auto b = q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_EQ(q.size(), 0u);
  (void)b;
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  auto handle = q.schedule(10, [] {});
  q.pop().action();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(q.cancel(handle));
}

TEST(EventQueue, DefaultHandleIsInvalidAndNotPending) {
  EventQueue q;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, HandleStaysDistinctAcrossSlotReuse) {
  EventQueue q;
  // `a` occupies the first slab slot; cancelling frees it for reuse.
  auto a = q.schedule(10, [] {});
  ASSERT_TRUE(q.cancel(a));
  // `b` reuses the same slot with a bumped generation: the old handle
  // must not come back to life, and cancelling it must not kill `b`.
  auto b = q.schedule(20, [] {});
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingSurvivesHeapOfStaleEntries) {
  EventQueue q;
  // Pile several cancelled entries for the same slot into the heap; the
  // one live event must still pop, alone.
  for (int i = 0; i < 8; ++i) {
    auto h = q.schedule(5, [] {});
    q.cancel(h);
  }
  int fired = 0;
  auto live = q.schedule(7, [&] { ++fired; });
  EXPECT_TRUE(live.pending());
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(live.pending());
}

TEST(EventQueue, GenerationWraparound) {
  EventQueue q;
  auto scrap = q.schedule(1, [] {});
  q.cancel(scrap);  // slot 0 is now free (its heap orphan is harmless)
  EventQueueTestPeer::set_free_slot_generation(q, 0, 0xFFFFFFFFu);

  auto old_gen = q.schedule(10, [] {});  // generation 0xFFFFFFFF
  EXPECT_TRUE(old_gen.pending());
  q.pop().action();  // fires; generation wraps to 0
  EXPECT_FALSE(old_gen.pending());

  auto wrapped = q.schedule(20, [] {});  // same slot, generation 0
  EXPECT_TRUE(wrapped.pending());
  EXPECT_FALSE(old_gen.pending());  // 0xFFFFFFFF != 0: still dead
  EXPECT_FALSE(q.cancel(old_gen));
  EXPECT_TRUE(q.cancel(wrapped));
}

TEST(EventQueue, CancelSelfInsideFiringActionReturnsFalse) {
  EventQueue q;
  EventHandle self;
  bool cancel_result = true;
  self = q.schedule(10, [&] { cancel_result = q.cancel(self); });
  q.pop().action();
  EXPECT_FALSE(cancel_result);  // the firing event is no longer pending
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPeerInsideFiringActionPreventsIt) {
  EventQueue q;
  bool peer_ran = false;
  EventHandle peer;
  (void)q.schedule(10, [&] { EXPECT_TRUE(q.cancel(peer)); });
  peer = q.schedule(10, [&] { peer_ran = true; });
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(peer_ran);
}

TEST(EventQueue, FifoSurvivesInterleavedCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 2) q.cancel(handles[std::size_t(i)]);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9, 11}));
}

/// A seeded program in the shape of a mobile host's agent-lifetime timer.
/// Eight self-rescheduling streams keep simulated time moving in small
/// steps, with same-time ties. Meanwhile 256 timers are re-armed far
/// ahead (cancel, then schedule anew); the pick is skewed, so low-index
/// timers are re-armed long before they could fire and the highest fire
/// mid-run. One-off near-term events are scheduled and cancelled too.
/// Every pop is checked against a reference model ordered by
/// (when, seq), and the queue is drained at the end. `after_cancel` runs
/// after every successful cancel.
void run_rearm_program(std::uint64_t seed,
                       const std::function<void(const EventQueue&)>&
                           after_cancel) {
  struct Key {
    Time when;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  struct Tracked {
    EventHandle handle;
    Key key;
  };
  constexpr int kSteps = 20'000;
  constexpr int kStreams = 8;
  constexpr std::size_t kTimers = 256;
  constexpr Time kHorizon = 500;  // re-arm distance; ties within 4

  EventQueue q;
  std::mt19937_64 rng(seed);
  std::map<Key, int> reference;  // pending events -> id
  std::vector<bool> stream_ids;  // by id
  std::uint64_t seq = 0;
  int fired_id = -1;
  Time now = 0;
  std::vector<std::optional<Tracked>> timers(kTimers);
  std::vector<Tracked> one_offs;  // some long fired or cancelled

  auto schedule = [&](Time when, bool stream) {
    const int id = static_cast<int>(stream_ids.size());
    stream_ids.push_back(stream);
    const Key key{when, seq++};
    reference.emplace(key, id);
    return Tracked{q.schedule(when, [&fired_id, id] { fired_id = id; }), key};
  };
  auto cancel = [&](const Tracked& t) {
    const bool pending = reference.erase(t.key) == 1;
    ASSERT_EQ(q.cancel(t.handle), pending);
    if (pending) after_cancel(q);
  };
  auto pop_and_check = [&](bool reschedule_streams) {
    ASSERT_FALSE(reference.empty());
    const auto expected = reference.begin();
    auto fired = q.pop();
    fired.action();
    ASSERT_EQ(fired.when, expected->first.when);
    ASSERT_EQ(fired_id, expected->second);
    now = fired.when;
    reference.erase(expected);
    if (reschedule_streams && stream_ids[std::size_t(fired_id)]) {
      (void)schedule(now + 1 + static_cast<Time>(rng() % 4), true);
    }
  };

  for (int i = 0; i < kStreams; ++i) (void)schedule(0, true);
  for (int step = 0; step < kSteps; ++step) {
    const auto op = rng() % 20;
    if (op < 9) {  // re-arm a timer far ahead
      std::optional<Tracked>& timer =
          timers[std::min(rng() % kTimers, rng() % kTimers)];
      if (timer) cancel(*timer);
      timer = schedule(now + kHorizon + static_cast<Time>(rng() % 4), false);
    } else if (op < 11) {  // a one-off near-term event
      one_offs.push_back(schedule(now + static_cast<Time>(rng() % 4), false));
    } else if (op < 12) {
      if (!one_offs.empty()) cancel(one_offs[rng() % one_offs.size()]);
    } else {
      pop_and_check(true);
    }
    ASSERT_EQ(q.size(), reference.size());
    if (::testing::Test::HasFatalFailure()) return;  // failed in a lambda
  }
  while (!q.empty() && !::testing::Test::HasFatalFailure()) {
    pop_and_check(false);
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, RearmChurnPopsInReferenceOrder) {
  for (std::uint64_t seed : {1u, 7u, 20261018u}) {
    SCOPED_TRACE(seed);
    std::size_t cancels = 0;
    run_rearm_program(seed, [&cancels](const EventQueue&) { ++cancels; });
    EXPECT_GT(cancels, 5'000u);  // the program really churns
  }
}

TEST(EventQueue, CancelKeepsHeapWithinTwiceTheLiveEvents) {
  // Each cancel orphans one heap entry; once orphans outnumber live
  // events, the cancel compacts them away. So after any cancel the heap
  // holds at most max(64, 2 x live) entries, in heap order. (Without
  // compaction this program's heap reaches ten entries per live event.)
  std::size_t cancels = 0;
  std::size_t over_bound = 0;
  std::size_t disordered = 0;
  run_rearm_program(7, [&](const EventQueue& q) {
    ++cancels;
    const std::size_t bound = std::max<std::size_t>(64, 2 * q.size());
    if (q.heap_entries() > bound) ++over_bound;
    if (!EventQueueTestPeer::heap_ordered(q)) ++disordered;
  });
  EXPECT_GT(cancels, 5'000u);
  EXPECT_EQ(over_bound, 0u);
  EXPECT_EQ(disordered, 0u);
}

TEST(Simulator, ClockFollowsEvents) {
  ShardedExecutive sim(1);
  Time seen = -1;
  (void)sim.after(millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, millis(5));
  EXPECT_EQ(sim.now(), millis(5));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  ShardedExecutive sim(1);
  int count = 0;
  (void)sim.after(millis(1), [&] { ++count; });
  (void)sim.after(millis(100), [&] { ++count; });
  sim.run_until(millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), millis(10));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  ShardedExecutive sim(1);
  std::vector<Time> times;
  std::function<void(int)> chain = [&](int depth) {
    times.push_back(sim.now());
    if (depth > 0) {
      (void)sim.after(millis(2), [&chain, depth] { chain(depth - 1); });
    }
  };
  (void)sim.after(0, [&] { chain(3); });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{0, millis(2), millis(4), millis(6)}));
}

TEST(Simulator, StopInterruptsRun) {
  ShardedExecutive sim(1);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    (void)sim.after(millis(i), [&sim, &count] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PastEventsClampToNow) {
  ShardedExecutive sim(1);
  (void)sim.after(millis(10), [] {});
  sim.run();
  bool ran = false;
  (void)sim.at(millis(1), [&] { ran = true; });  // in the past now
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), millis(10));
}

TEST(PeriodicTimer, FiresRepeatedlyUntilStopped) {
  ShardedExecutive sim(1);
  int fires = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++fires; });
  timer.start();
  sim.run_until(millis(55));
  EXPECT_EQ(fires, 5);
  timer.stop();
  sim.run_until(millis(200));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, ActionMayStopItself) {
  ShardedExecutive sim(1);
  int fires = 0;
  PeriodicTimer timer(sim, millis(10), [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start();
  sim.run_until(seconds(1));
  EXPECT_EQ(fires, 3);
}

TEST(OneShotTimer, ArmRearmsAndCancels) {
  ShardedExecutive sim(1);
  int fires = 0;
  OneShotTimer timer(sim, [&] { ++fires; });
  timer.arm(millis(10));
  timer.arm(millis(20));  // replaces the first
  sim.run_until(millis(15));
  EXPECT_EQ(fires, 0);
  sim.run_until(millis(25));
  EXPECT_EQ(fires, 1);
  timer.arm(millis(10));
  timer.cancel();
  sim.run_until(millis(100));
  EXPECT_EQ(fires, 1);
}

TEST(TimerDestruction, CancelsPendingWork) {
  ShardedExecutive sim(1);
  int fires = 0;
  {
    PeriodicTimer timer(sim, millis(10), [&] { ++fires; });
    timer.start();
  }
  sim.run_until(seconds(1));
  EXPECT_EQ(fires, 0);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(millis(3), 3'000);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
}

}  // namespace
}  // namespace mhrp::sim
