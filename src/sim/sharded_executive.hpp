// ShardedExecutive: the simulation executive (DESIGN.md §13).
//
// The internetwork is partitioned into shards; each shard owns a slab
// EventQueue and its own clock. With one shard (the default everywhere)
// run_until executes that queue inline on the caller's thread, in
// (time, seq) order, with no worker and no windows: stop() returns
// after the current event, and an event-loop profiler may watch the
// loop.
//
// With N >= 2 shards, the caller's thread runs shard 0 and one
// persistent worker thread runs each of shards 1..N-1. Shards
// synchronize conservatively in windows of width W = the executive's
// lookahead (the minimum cross-shard link latency, scenario-provided):
// every event in [T, T+W) can be executed with no input from any other
// shard, because anything another shard sends from inside the same
// window arrives at T+W or later. In a window each thread executes its
// shard's events with timestamp < E = T+W in (time, seq) order, exactly
// like the one-shard loop, and appends cross-shard work to a plain
// vector per (target, source) shard pair. Then the N threads meet at one
// std::barrier, whose completion runs on the last thread to arrive while
// the others wait: it drains every inbox in (target, source) order into
// the target's queue, so sequence numbers — and therefore same-timestamp
// FIFO order — are assigned deterministically, and publishes the next
// window's end or ends the run. Between runs the workers wait at the
// barrier; they exit only in the phase whose completion published
// shutdown.
//
// Determinism contract: for a FIXED shard count, runs are byte-identical
// (inbox drain order and per-shard (time, seq) order are both
// deterministic). Across DIFFERENT shard counts, same-timestamp
// interleaving at shared nodes differs (a cross-shard send is sequenced
// at inbox-drain time, not transmit time), so data-plane counters may
// wobble by a few packets; only simulated-time-keyed observables —
// movement, registration completions, series merged on a canonical
// (time, mobile) key — are comparable. See DESIGN.md §13 for the full
// contract.
//
// Cross-shard sends are subject to the lookahead contract: a post()
// whose timestamp lands inside the still-open window throws
// LookaheadViolation (see executive.hpp) — never a silent clamp.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <ctime>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_category.hpp"
#include "sim/event_queue.hpp"
#include "sim/executive.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

/// One shard of a ShardedExecutive: its queue and clock, the handle
/// pinned to it, the cross-shard mail addressed to it and the thread
/// that runs it. Only the executive and its handles touch it.
struct Shard {
  /// A cross-shard event in transit: appended by the source shard's
  /// thread during a window, drained by the barrier's completion.
  struct Mail {
    Time when;
    EventCategory category;
    Executive::Action action;
  };

  Shard(ShardedExecutive& exec, Executive::ShardId shard_id,
        Executive::ShardId shard_count)
      : owner(&exec), id(shard_id), view(exec, this), inbox(shard_count) {}

  ShardedExecutive* const owner;
  const Executive::ShardId id;
  /// The shard's serial domain: its queue, clock and counters are
  /// touched only by the thread running the shard during a window, and
  /// otherwise only by a barrier completion or the quiesced caller,
  /// which the barrier orders after the window.
  util::ExecutiveSerial serial;
  EventQueue queue;
  Time now = kTimeZero;
  std::uint64_t executed = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t messages = 0;
  std::exception_ptr error;  // thrown by an event in this run's last window
  /// The handle pinned to this shard, which shard_view() returns.
  Executive view;
  std::vector<std::vector<Mail>> inbox;  // indexed by source shard
  std::thread worker;                    // shards 1..N-1
};

class ShardedExecutive final : public Executive {
 public:
  /// `shards` (>= 1) queues, with one worker thread for each shard after
  /// the first; `lookahead` is the conservative window width W
  /// (>= 1 microsecond) — set it to the minimum latency of any
  /// cross-shard link before the first run.
  explicit ShardedExecutive(ShardId shards, Time lookahead = millis(1))
      : Executive(*this, nullptr),
        lookahead_(lookahead),
        barrier_(static_cast<std::ptrdiff_t>(shards), EndWindow{this}) {
    if (shards < 1) {
      throw std::invalid_argument("ShardedExecutive: shards < 1");
    }
    if (lookahead_ < 1) {
      throw std::invalid_argument("ShardedExecutive: lookahead < 1us");
    }
    shards_.reserve(shards);
    for (ShardId s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(*this, s, shards));
    }
    for (ShardId s = 1; s < shards; ++s) {
      Shard& shard = *shards_[s];
      shard.worker = std::thread([this, &shard] { worker_main(shard); });
    }
  }

  /// Publishes shutdown at the barrier, where the workers wait between
  /// runs, and joins them.
  ~ShardedExecutive() {
    if (shards_.size() == 1) return;
    shutdown_ = true;
    barrier_.arrive_and_wait();
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }

  /// Narrow the window width. Must be called while quiesced (between
  /// runs); the scenario layer calls it once partitioning is known.
  void set_lookahead(Time lookahead) {
    if (lookahead < 1) {
      throw std::invalid_argument("ShardedExecutive: lookahead < 1us");
    }
    lookahead_ = lookahead;
  }

  /// Per-shard work accounting, read while quiesced. `busy_ns` is the
  /// CPU time (CLOCK_THREAD_CPUTIME_ID) that the thread running the shard
  /// — a worker, or the caller's thread for shard 0 — spent executing
  /// the shard's events and the barrier completions (inbox drains) it
  /// happened to run — barrier waits excluded — so executed/busy_ns is
  /// the shard's event rate independent of how many cores the host
  /// actually granted (bench_shard reports the sum). `messages` counts
  /// the cross-shard messages drained into the shard; `windows` counts
  /// the executive's windows, which every shard takes part in. None of
  /// these feeds a replay digest.
  struct ShardStats {
    std::uint64_t executed = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t messages = 0;
    std::uint64_t windows = 0;
  };
  [[nodiscard]] std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> stats;
    stats.reserve(shards_.size());
    for (const auto& shard : shards_) {
      stats.push_back(
          {shard->executed, shard->busy_ns, shard->messages, windows_});
    }
    return stats;
  }

  /// The handle pinned to shard `shard`. Nodes placed on that shard
  /// hold it as their sim::Executive&, so everything they schedule —
  /// even at construction time, before any run — lands on their own
  /// shard's queue.
  [[nodiscard]] Executive& shard_view(ShardId shard) {
    return shards_.at(shard)->view;
  }

  // ---- Driving a run (from outside every event) ----

  /// Run until every queue is empty or stop() is called. Returns events
  /// executed (summed over shards).
  std::size_t run() { return run_until(kNever); }

  /// Run events with timestamp <= deadline; clocks advance to `deadline`
  /// when the queues drain early, and never move back. Returns events
  /// executed. An event's exception ends the run — at once with one
  /// shard, at the end of the window with more — and is rethrown here;
  /// when several shards threw in one window, the lowest shard's is.
  /// The events left queued run in the next run.
  std::size_t run_until(Time deadline) {
    if (current_shard() != nullptr) {
      throw std::logic_error(
          "ShardedExecutive::run_until called from inside a shard event");
    }
    const std::uint64_t before = total_executed();
    stopped_.store(false, std::memory_order_relaxed);
    {
      // The caller's thread runs shard 0, so now(), shard_id() and
      // cancel() resolve to it from inside its events; the mark is
      // restored on exit, exceptions included.
      struct Mark {
        explicit Mark(Shard& s) : outer(std::exchange(tls_shard_, &s)) {}
        ~Mark() { tls_shard_ = outer; }
        Mark(const Mark&) = delete;
        Mark& operator=(const Mark&) = delete;
        Shard* const outer;
      } const mark(*shards_.front());
      if (shards_.size() == 1) {
        run_inline(*shards_.front(), deadline);
      } else {
        run_windows(deadline);
      }
    }
    if (!stopped_.load(std::memory_order_relaxed) && deadline != kNever) {
      // A drained run leaves the clocks at the deadline, so subsequent
      // after() calls are deadline-relative. A deadline already behind
      // a clock leaves it where it is: clocks never run backwards.
      for (auto& shard : shards_) shard->now = std::max(shard->now, deadline);
    }
    return static_cast<std::size_t>(total_executed() - before);
  }

  /// Run for a relative duration from the current clock.
  std::size_t run_for(Time duration) { return run_until(now() + duration); }

  /// Request that the current run return: after the current event with
  /// one shard, at the next window boundary with more. Any shard's
  /// event may call it.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t pending_events() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->queue.size();
    return total;
  }

  /// Install (or clear, with nullptr) an event-loop profiler. It observes
  /// wall time only, so profiled and unprofiled runs stay
  /// replay-identical. It takes effect at the next run: the loop body is
  /// selected once per run, so the unprofiled loop carries no per-event
  /// check. Only a one-shard executive accepts one — per-event wall times
  /// from concurrent threads would interleave meaninglessly — but
  /// clearing is accepted at any shard count, so generic teardown paths
  /// need not special-case it.
  void set_profiler(EventLoopProfiler* profiler) {
    if (profiler != nullptr && shards_.size() > 1) {
      throw std::logic_error(
          "ShardedExecutive: profiler unsupported with more than one shard");
    }
    profiler_ = profiler;
  }

 private:
  friend class Executive;

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// What the last barrier completion published.
  enum class Phase { kWindow, kRunEnded, kShutdown };

  /// The barrier's completion function; std::barrier requires that it
  /// not throw.
  struct EndWindow {
    ShardedExecutive* exec;
    void operator()() const noexcept { exec->end_window(); }
  };

  [[nodiscard]] Shard* current_shard() const {
    Shard* s = tls_shard_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  [[nodiscard]] EventHandle schedule_local(Shard& shard, Time when,
                                           Action action,
                                           EventCategory category) {
    if (when < shard.now) when = shard.now;  // never into the shard's past
    return shard.queue.schedule(when, std::move(action), category);
  }

  /// Execute the shard's events with timestamp <= `last` in (time, seq)
  /// order, advancing its clock; events scheduled meanwhile inside the
  /// range run in the same pass. This is a shard's part of a window, and
  /// the whole of a one-shard run, which alone honours stop() after each
  /// event and may carry a profiler. One instantiation per mode keeps
  /// the unprofiled loop free of per-event checks.
  template <bool kInline, bool kProfiled>
  void run_events(Shard& shard, Time last) MHRP_REQUIRES(shard.serial) {
    while (!shard.queue.empty() && shard.queue.next_time() <= last) {
      auto fired = shard.queue.pop();
      shard.now = fired.when;
      if constexpr (kProfiled) {
        const auto started = profiler_->begin_event();
        fired.action();
        profiler_->end_event(fired.category, started);
      } else {
        fired.action();
      }
      ++shard.executed;
      if (kInline && stopped_.load(std::memory_order_relaxed)) return;
    }
  }

  /// One shard, on the caller's thread.
  void run_inline(Shard& shard, Time deadline) {
    shard.serial.assert_held();
    const std::uint64_t busy_start = thread_cpu_ns();
    if (profiler_ == nullptr) {
      run_events<true, false>(shard, deadline);
    } else {
      run_events<true, true>(shard, deadline);
    }
    shard.busy_ns += thread_cpu_ns() - busy_start;
  }

  /// Two or more shards: the caller's thread runs shard 0 through the
  /// windows until a completion ends the run, then rethrows the lowest
  /// shard's exception, if any shard's event threw.
  void run_windows(Time deadline) {
    limit_ = deadline == kNever ? kNever : deadline + 1;
    Shard& shard = *shards_.front();
    shard.serial.assert_held();
    (void)run_shard_windows(shard);
    std::exception_ptr first;
    for (auto& s : shards_) {
      std::exception_ptr error = std::exchange(s->error, nullptr);
      if (first == nullptr) first = error;
    }
    if (first != nullptr) std::rethrow_exception(first);
  }

  void worker_main(Shard& shard) {
    tls_shard_ = &shard;
    shard.serial.assert_held();
    while (run_shard_windows(shard) != Phase::kShutdown) {
      // The run ended; wait at the barrier for the next one.
    }
  }

  /// One thread's part of a run: meet the other shards' threads at the
  /// barrier, execute this shard's events before each window end the
  /// completion publishes, and return the phase that ended the run. An
  /// event's exception ends this shard's part of the window, and the
  /// completion then ends the run.
  Phase run_shard_windows(Shard& shard) MHRP_REQUIRES(shard.serial) {
    while (true) {
      barrier_.arrive_and_wait();
      if (phase_ != Phase::kWindow) return phase_;
      const std::uint64_t busy_start = thread_cpu_ns();
      try {
        run_events<false, false>(shard, window_end_ - 1);
      } catch (...) {
        shard.error = std::current_exception();
      }
      shard.busy_ns += thread_cpu_ns() - busy_start;
    }
  }

  /// The barrier's completion. It runs on the last thread to arrive
  /// while every other shard's thread waits, so it may touch every
  /// shard. It drains the inboxes in (target, source) order — the fixed
  /// order makes sequence-number assignment, and so same-timestamp FIFO
  /// order, deterministic for a fixed shard count — and then publishes
  /// the next window's end E = min(next event + W, deadline + 1), or
  /// ends the run when the queues are drained, the deadline is covered,
  /// stop() was called or an event threw. The drain can fail only by
  /// running out of memory to grow a queue, which terminates: the
  /// completion must not throw.
  void end_window() noexcept {
    if (shutdown_) {
      phase_ = Phase::kShutdown;
      return;
    }
    const std::uint64_t busy_start = thread_cpu_ns();
    Time next = kNever;
    bool failed = false;
    for (auto& to : shards_) {
      for (std::vector<Shard::Mail>& mail : to->inbox) {
        for (Shard::Mail& m : mail) {
          (void)schedule_local(*to, m.when, std::move(m.action), m.category);
        }
        to->messages += mail.size();
        mail.clear();
      }
      if (!to->queue.empty()) next = std::min(next, to->queue.next_time());
      failed = failed || to->error != nullptr;
    }
    if (failed || stopped_.load(std::memory_order_relaxed) || next >= limit_) {
      phase_ = Phase::kRunEnded;
    } else {
      window_end_ = next >= limit_ - lookahead_ ? limit_ : next + lookahead_;
      ++windows_;
      phase_ = Phase::kWindow;
    }
    if (Shard* s = current_shard()) s->busy_ns += thread_cpu_ns() - busy_start;
  }

  [[nodiscard]] static std::uint64_t thread_cpu_ns() {
    timespec ts{};
    // CPU-time accounting for bench_shard's aggregate event rate; the
    // value never feeds simulation state or replay digests.
    // mhrp-lint: allow(wallclock) per-thread CPU time for bench stats only
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  [[nodiscard]] std::uint64_t total_executed() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->executed;
    return total;
  }

  inline static thread_local Shard* tls_shard_ = nullptr;

  Time lookahead_;
  std::barrier<EndWindow> barrier_;
  // Written by the caller before it arrives at the barrier or by the
  // completion, and read after the barrier releases: it orders them.
  Time limit_ = kNever;  // the first timestamp the run does not cover
  Time window_end_ = 0;  // the end of the window being executed
  Phase phase_ = Phase::kRunEnded;
  bool shutdown_ = false;
  std::uint64_t windows_ = 0;
  std::atomic<bool> stopped_{false};  // stop() may come from any shard
  EventLoopProfiler* profiler_ = nullptr;  // one shard only
  // Last: the workers it holds use every member above.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mhrp::sim
