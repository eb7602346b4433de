// The single-threaded simulation executive: owns the clock and the event
// queue, and runs events in timestamp order until the queue drains, a
// deadline passes, or stop() is called from inside an event. Implements
// sim::Executive as its one-shard special case (post() to shard 0 is
// at(); there is nothing to cross).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sim/event_category.hpp"
#include "sim/event_queue.hpp"
#include "sim/executive.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

class Simulator final : public Executive {
 public:
  using Action = EventQueue::Action;

  Simulator() = default;

  /// Current simulated time. Monotone non-decreasing across the run.
  [[nodiscard]] Time now() const override {
    serial_.assert_held();
    return now_;
  }

  /// Schedule `action` at absolute simulated time `when`; times in the
  /// past are clamped to `now()` (the event still fires, immediately
  /// after already-queued events at `now()`). Discarding the handle
  /// forfeits cancellation — cast to void at fire-and-forget sites.
  [[nodiscard]] MHRP_HOT_PATH EventHandle at(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral) override {
    serial_.assert_held();
    if (when < now_) when = now_;
    return queue_.schedule(when, std::move(action), category);
  }

  /// Schedule `action` after a relative delay (>= 0) from now.
  [[nodiscard]] MHRP_HOT_PATH EventHandle after(
      Time delay, Action action,
      EventCategory category = EventCategory::kGeneral) override {
    serial_.assert_held();
    return at(now_ + (delay < 0 ? 0 : delay), std::move(action), category);
  }

  bool cancel(const EventHandle& handle) override {
    return queue_.cancel(handle);
  }

  /// The one-shard post: target must be shard 0, and the cross-shard
  /// lookahead rules never engage — this is exactly at(), clamp included.
  void post(ShardId target, Time when, Action action,
            EventCategory category = EventCategory::kGeneral) override {
    if (target != 0) {
      throw std::out_of_range("Simulator::post: shard out of range");
    }
    (void)at(when, std::move(action), category);
  }

  /// Install (or clear, with nullptr) an event-loop profiler. The profiler
  /// observes wall-time only; scheduling and simulated time are unaffected,
  /// so profiled and unprofiled runs stay replay-identical. Takes effect at
  /// the next run()/run_until()/run_for() call: the loop body is selected
  /// once per run, so the unprofiled path carries no per-event check.
  void set_profiler(EventLoopProfiler* profiler) override {
    profiler_ = profiler;
  }
  [[nodiscard]] EventLoopProfiler* profiler() const { return profiler_; }

  /// Run until the queue is empty or stop() is called. Returns the number
  /// of events executed.
  std::size_t run() override {
    return run_until(std::numeric_limits<Time>::max());
  }

  /// Run events with timestamp <= deadline. The clock is advanced to
  /// `deadline` when the queue drains early (so subsequent `after()`
  /// calls are relative to the deadline). Returns events executed.
  std::size_t run_until(Time deadline) override {
    return profiler_ == nullptr ? run_loop<false>(deadline)
                                : run_loop<true>(deadline);
  }

  /// Run for a relative duration from the current clock.
  std::size_t run_for(Time duration) override {
    serial_.assert_held();
    return run_until(now_ + duration);
  }

  /// Request that the current run() / run_until() return after the
  /// currently executing event completes.
  void stop() override {
    serial_.assert_held();
    stopped_ = true;
  }

  [[nodiscard]] std::size_t pending_events() const override {
    return queue_.size();
  }

 private:
  /// The executive loop, instantiated with and without profiling so the
  /// unprofiled (default) build of the loop is instruction-identical to
  /// an executive with no telemetry at all — zero cost when disabled.
  template <bool kProfiled>
  std::size_t run_loop(Time deadline) {
    serial_.assert_held();
    stopped_ = false;
    std::size_t executed = 0;
    while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
      auto fired = queue_.pop();
      now_ = fired.when;
      if constexpr (kProfiled) {
        const auto started = profiler_->begin_event();
        fired.action();
        profiler_->end_event(fired.category, started);
      } else {
        fired.action();
      }
      ++executed;
    }
    if (!stopped_ && deadline != std::numeric_limits<Time>::max() &&
        now_ < deadline) {
      now_ = deadline;
    }
    return executed;
  }

  // Executive state is serial today; the phantom capability records that
  // for the future sharded executive (ROADMAP item 1) and a clang
  // -Wthread-safety build, at zero runtime cost. The clock and stop flag
  // are only touched between events, never concurrently with one.
  util::ExecutiveSerial serial_;
  EventQueue queue_;
  Time now_ MHRP_GUARDED_BY(serial_) = kTimeZero;
  bool stopped_ MHRP_GUARDED_BY(serial_) = false;
  EventLoopProfiler* profiler_ = nullptr;
};

}  // namespace mhrp::sim
