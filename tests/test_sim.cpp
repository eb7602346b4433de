// Unit tests: discrete-event queue ordering, cancellation, the simulator
// executive, and timers.
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/sharded_executive.hpp"
#include "sim/timer.hpp"

namespace mhrp::sim {

/// Test-only backdoor for forcing a slot's generation counter near its
/// wraparound point (2^32 schedule/cancel cycles through one slot would
/// otherwise take hours).
struct EventQueueTestPeer {
  static void set_free_slot_generation(EventQueue& q, std::uint32_t slot,
                                       std::uint32_t generation) {
    q.slots_[slot].generation = generation;
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
