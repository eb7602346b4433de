// RAII timers layered on the simulation executive. A PeriodicTimer
// drives recurring protocol behavior (agent advertisements,
// distance-vector updates); a OneShotTimer drives timeouts (registration
// retransmission, movement detection). Both cancel themselves on
// destruction, so a node that is torn down never leaves dangling
// callbacks in the event queue.
#pragma once

#include <utility>

#include "sim/executive.hpp"

namespace mhrp::sim {

/// Fires `action` every `period` until stopped or destroyed. The first
/// firing happens after an initial delay (default: one period).
class PeriodicTimer {
 public:
  using Action = EventQueue::Action;

  PeriodicTimer(Executive& sim, Time period, Action action,
                EventCategory category = EventCategory::kGeneral)
      : sim_(sim),
        period_(period),
        action_(std::move(action)),
        category_(category) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { stop(); }

  void start() { start_after(period_); }

  void start_after(Time initial_delay) {
    stop();
    running_ = true;
    handle_ = sim_.after(initial_delay, [this] { fire(); }, category_);
  }

  void stop() {
    if (running_) {
      sim_.cancel(handle_);
      running_ = false;
    }
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Time period() const { return period_; }

 private:
  void fire() {
    // Re-arm before running the action so the action may call stop().
    handle_ = sim_.after(period_, [this] { fire(); }, category_);
    action_();
  }

  Executive& sim_;
  Time period_;
  Action action_;
  EventHandle handle_;
  EventCategory category_ = EventCategory::kGeneral;
  bool running_ = false;
};

/// Fires `action` once after `delay`; can be re-armed or cancelled.
class OneShotTimer {
 public:
  using Action = EventQueue::Action;

  OneShotTimer(Executive& sim, Action action,
               EventCategory category = EventCategory::kGeneral)
      : sim_(sim), action_(std::move(action)), category_(category) {}

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;
  ~OneShotTimer() { cancel(); }

  /// (Re)schedule the timer `delay` from now, replacing any pending firing.
  void arm(Time delay) {
    cancel();
    armed_ = true;
    handle_ = sim_.after(
        delay,
        [this] {
          armed_ = false;
          action_();
        },
        category_);
  }

  void cancel() {
    if (armed_) {
      sim_.cancel(handle_);
      armed_ = false;
    }
  }

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  Executive& sim_;
  Action action_;
  EventHandle handle_;
  EventCategory category_ = EventCategory::kGeneral;
  bool armed_ = false;
};

}  // namespace mhrp::sim
