// sim::Executive — the scheduling handle every consumer of the clock and
// event queue programs against (nodes, timers, links, the fault plane,
// the durable store). It is one concrete class, with no virtual member,
// and every handle belongs to a sim::ShardedExecutive: one EventQueue and
// clock per shard, the caller's thread running shard 0 and one worker
// thread each further shard, synchronized conservatively in
// lookahead-sized windows (DESIGN.md §13). A handle comes in two kinds:
//  * pinned to one shard — shard_view(s), which the nodes placed on
//    shard s hold, so everything they schedule, even at construction
//    time, lands on their own shard's queue;
//  * the ShardedExecutive itself, which acts on the shard the calling
//    thread runs, and between runs on shard 0 (now() then reads the
//    furthest shard clock and cancel() finds the owning queue).
// Every node lives on exactly one shard; frames crossing shards travel
// as cross-shard messages (post()). Driving a run — run_until(), stop()
// and the rest — is ShardedExecutive's own API: nothing drives one
// through an Executive&.
//
// Scheduling semantics:
//  * at()/after() are SHARD-LOCAL: they schedule on the handle's shard.
//    Times in the past are clamped to now() — a local event can always
//    legally fire "immediately". Mid-run, at() through a handle pinned
//    to another shard than the calling thread's throws std::logic_error.
//  * post() targets an explicit shard. Cross-shard posts are subject to
//    the lookahead contract: during a run, an event posted into another
//    shard must land at or after the end of the current synchronization
//    window, or the executive throws LookaheadViolation. There is no
//    clamping across shards — a cross-shard send arriving "in the past"
//    of the receiving shard is a protocol bug, never silently repaired
//    (contrast with the local-clamp rule above).
//  * post() returns no handle: a cross-shard event cannot be cancelled
//    (the handle would race the receiving shard). cancel() of a handle
//    owned by another shard's queue returns false, exactly like a handle
//    whose event already fired.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/event_category.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mhrp::sim {

/// A cross-shard post violated the conservative-synchronization contract:
/// the event's timestamp falls inside (or before) the window the sending
/// shard is still executing, so the receiving shard may already have
/// advanced past it. This is always a modeling error — cross-shard
/// latency must be >= the executive's lookahead — and is reported as a
/// hard error rather than clamped (DESIGN.md §13).
class LookaheadViolation : public std::logic_error {
 public:
  LookaheadViolation(Time when, Time window_end)
      : std::logic_error("cross-shard post at t=" + std::to_string(when) +
                         "us lands inside the open window (ends t=" +
                         std::to_string(window_end) +
                         "us): link latency < executive lookahead"),
        when_(when),
        window_end_(window_end) {}

  [[nodiscard]] Time when() const { return when_; }
  [[nodiscard]] Time window_end() const { return window_end_; }

 private:
  Time when_;
  Time window_end_;
};

class ShardedExecutive;
struct Shard;

class Executive {
 public:
  using Action = EventQueue::Action;
  using ShardId = std::uint32_t;

  Executive(const Executive&) = delete;
  Executive& operator=(const Executive&) = delete;

  /// Current simulated time of the handle's shard. Monotone
  /// non-decreasing across the run.
  [[nodiscard]] Time now() const;

  /// Schedule `action` at absolute simulated time `when` on the handle's
  /// shard; times in the past are clamped to now(). Discarding the handle
  /// forfeits cancellation — cast to void at fire-and-forget sites.
  [[nodiscard]] EventHandle at(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral);

  /// Schedule `action` after a relative delay (>= 0) from now, on the
  /// handle's shard.
  [[nodiscard]] EventHandle after(
      Time delay, Action action,
      EventCategory category = EventCategory::kGeneral);

  /// Cancel a pending event scheduled on the handle's shard. Returns
  /// false when the event already fired or was cancelled — or when the
  /// handle belongs to another shard's queue (cross-shard cancellation is
  /// rejected, never forwarded).
  bool cancel(const EventHandle& handle);

  /// Schedule `action` on shard `target` at absolute time `when`. On the
  /// shard that owns the caller this is at(); crossing shards, `when`
  /// must respect the lookahead contract (see LookaheadViolation) and no
  /// handle is returned — a cross-shard event cannot be cancelled.
  void post(ShardId target, Time when, Action action,
            EventCategory category = EventCategory::kGeneral);

  [[nodiscard]] ShardId shard_count() const;
  /// The shard this handle schedules onto. On the executive itself,
  /// mid-run, the shard the calling thread runs.
  [[nodiscard]] ShardId shard_id() const;
  /// The conservative lookahead window. A cross-shard post() from inside
  /// an event is always legal at `now() + lookahead()` or later.
  [[nodiscard]] Time lookahead() const;

 private:
  friend class ShardedExecutive;
  friend struct Shard;

  Executive(ShardedExecutive& owner, Shard* pinned)
      : owner_(owner), pinned_(pinned) {}
  // Private, so nothing deletes a ShardedExecutive through this
  // non-virtual base.
  ~Executive() = default;

  ShardedExecutive& owner_;
  Shard* const pinned_;  // nullptr: the shard the calling thread runs
};

}  // namespace mhrp::sim
