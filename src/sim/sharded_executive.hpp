// ShardedExecutive: the simulation executive (DESIGN.md §13).
//
// The internetwork is partitioned into shards; each shard owns a slab
// EventQueue and its own clock. With one shard (the default everywhere)
// run_until executes that queue inline on the caller's thread, in
// (time, seq) order, with no worker and no windows: stop() returns
// after the current event, and an event-loop profiler may watch the
// loop.
//
// With two or more shards, each shard runs on one persistent worker
// thread, and shards synchronize conservatively in windows of width
// W = the executive's lookahead (the minimum cross-shard link latency,
// scenario-provided): every event in [T, T+W) can be executed with no
// input from any other shard, because anything another shard sends from
// inside the same window arrives at T+W or later. Each window runs three
// phases, separated by one std::barrier:
//
//   A  the coordinator publishes the window end E = min-next-event + W
//      and releases the workers;
//   B  each worker executes its local events with timestamp < E in
//      (time, seq) order, exactly like the one-shard loop;
//      cross-shard work lands in per-(source,target) SPSC mailboxes;
//   C  each worker drains its own inboxes in ascending source-shard
//      order into its queue, so sequence numbers — and therefore
//      same-timestamp FIFO order — are assigned deterministically.
//
// Determinism contract: for a FIXED shard count, runs are byte-identical
// (mailbox drain order and per-shard (time, seq) order are both
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

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <ctime>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
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

class ShardedExecutive final : public Executive {
 public:
  /// `shards` (>= 1) queues, with one worker thread each when there are
  /// two or more; `lookahead` is the conservative window width W
  /// (>= 1 microsecond) — set it to the minimum latency of any
  /// cross-shard link before the first run.
  explicit ShardedExecutive(ShardId shards, Time lookahead = millis(1))
      : lookahead_(lookahead),
        barrier_(static_cast<std::ptrdiff_t>(shards) + 1) {
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
  }

  ~ShardedExecutive() override { shutdown_workers(); }

  /// Narrow the window width. Must be called while quiesced (between
  /// runs); the scenario layer calls it once partitioning is known.
  void set_lookahead(Time lookahead) {
    if (lookahead < 1) {
      throw std::invalid_argument("ShardedExecutive: lookahead < 1us");
    }
    lookahead_ = lookahead;
  }
  [[nodiscard]] Time lookahead() const override { return lookahead_; }

  /// Per-shard work accounting, read while quiesced. `busy_ns` is the
  /// CPU time (CLOCK_THREAD_CPUTIME_ID) of the thread that ran the shard
  /// — its worker, or the caller's thread inline — spent executing
  /// events and draining inboxes — barrier waits excluded — so
  /// executed/busy_ns is the shard's event rate independent of how many
  /// cores the host actually granted (bench_shard reports the sum).
  struct ShardStats {
    std::uint64_t executed = 0;
    std::uint64_t busy_ns = 0;
  };
  [[nodiscard]] std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> stats;
    stats.reserve(shards_.size());
    for (const auto& shard : shards_) {
      stats.push_back({shard->executed, shard->busy_ns});
    }
    return stats;
  }

  /// The per-shard scheduling facade. Nodes assigned to shard `s` hold
  /// this as their sim::Executive&, so everything they schedule — even
  /// at construction time, before any worker exists — lands on their
  /// own shard's queue.
  [[nodiscard]] Executive& shard_view(ShardId shard) {
    return shards_.at(shard)->view;
  }

  // ---- Executive ----

  /// The calling shard's clock mid-run; quiesced, the furthest clock
  /// any shard has reached.
  [[nodiscard]] Time now() const override {
    if (const Shard* s = current_shard()) return s->now;
    Time latest = kTimeZero;
    for (const auto& shard : shards_) latest = std::max(latest, shard->now);
    return latest;
  }

  [[nodiscard]] MHRP_HOT_PATH EventHandle at(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral) override {
    Shard* s = current_shard();
    if (s == nullptr) s = shards_.front().get();  // quiesced: shard 0
    return schedule_local(*s, when, std::move(action), category);
  }

  [[nodiscard]] MHRP_HOT_PATH EventHandle after(
      Time delay, Action action,
      EventCategory category = EventCategory::kGeneral) override {
    return at(now() + (delay < 0 ? 0 : delay), std::move(action), category);
  }

  bool cancel(const EventHandle& handle) override {
    if (Shard* s = current_shard()) {
      // Mid-run, only the calling shard's own events are cancellable; a
      // handle owned by another shard's queue reports false (the same
      // answer as an event that already fired), never races that queue.
      return s->queue.cancel(handle);
    }
    for (auto& shard : shards_) {  // quiesced: find the owning queue
      if (shard->queue.cancel(handle)) return true;
    }
    return false;
  }

  void post(ShardId target, Time when, Action action,
            EventCategory category = EventCategory::kGeneral) override {
    if (target >= shards_.size()) {
      throw std::out_of_range("ShardedExecutive::post: shard out of range");
    }
    Shard& to = *shards_[target];
    Shard* from = current_shard();
    if (from == nullptr || from == &to) {
      // Quiesced (no window open), or shard-local: plain scheduling.
      Shard& s = from != nullptr ? *from : to;
      (void)schedule_local(s, when, std::move(action), category);
      return;
    }
    const Time window_end = window_end_.load(std::memory_order_relaxed);
    if (when < window_end) throw LookaheadViolation(when, window_end);
    to.inbox[from->id].push(when, category, std::move(action));
  }

  [[nodiscard]] ShardId shard_count() const override {
    return static_cast<ShardId>(shards_.size());
  }

  [[nodiscard]] ShardId shard_id() const override {
    const Shard* s = current_shard();
    return s != nullptr ? s->id : 0;
  }

  std::size_t run() override {
    return run_until(std::numeric_limits<Time>::max());
  }

  std::size_t run_until(Time deadline) override {
    if (current_shard() != nullptr) {
      throw std::logic_error(
          "ShardedExecutive::run_until called from inside a shard event");
    }
    const std::uint64_t before = total_executed();
    stopped_.store(false, std::memory_order_relaxed);
    if (shards_.size() == 1) {
      run_inline(*shards_.front(), deadline);
    } else {
      run_windows(deadline);
    }
    if (!stopped_.load(std::memory_order_relaxed) &&
        deadline != std::numeric_limits<Time>::max()) {
      // A drained run leaves the clocks at the deadline, so subsequent
      // after() calls are deadline-relative. A deadline already behind
      // a clock leaves it where it is: clocks never run backwards.
      for (auto& shard : shards_) shard->now = std::max(shard->now, deadline);
    }
    return static_cast<std::size_t>(total_executed() - before);
  }

  std::size_t run_for(Time duration) override {
    return run_until(now() + duration);
  }

  /// Request that the current run return: after the current event with
  /// one shard, at the next window boundary with more.
  void stop() override { stopped_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t pending_events() const override {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->queue.size();
    return total;
  }

  /// Install (or clear, with nullptr) an event-loop profiler. It observes
  /// wall time only, so profiled and unprofiled runs stay
  /// replay-identical. It takes effect at the next run: the loop body is
  /// selected once per run, so the unprofiled loop carries no per-event
  /// check. Only a one-shard executive accepts one — per-event wall times
  /// from concurrent workers would interleave meaninglessly — but
  /// clearing is accepted at any shard count, so generic teardown paths
  /// need not special-case it.
  void set_profiler(EventLoopProfiler* profiler) override {
    if (profiler != nullptr && shards_.size() > 1) {
      throw std::logic_error(
          "ShardedExecutive: profiler unsupported with more than one shard");
    }
    profiler_ = profiler;
  }

 private:
  struct Shard;

  /// Bounded SPSC mailbox for one (source shard -> target shard) pair.
  /// The ring alone carries the common case; a burst past the ring's
  /// capacity spills into the overflow vector, which is safe because the
  /// producer only writes it during the execute phase and the consumer
  /// only reads it after the phase-B barrier (a happens-before edge).
  class Mailbox {
   public:
    void push(Time when, EventCategory category, Action action) {
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) < kCapacity) {
        Item& slot = ring_[tail & (kCapacity - 1)];
        slot.when = when;
        slot.category = category;
        slot.action = std::move(action);
        tail_.store(tail + 1, std::memory_order_release);
      } else {
        overflow_.push_back(Item{when, category, std::move(action)});
      }
    }

    /// Drain FIFO into `fn`. Caller is the consumer side, past the
    /// phase-B barrier.
    template <typename Fn>
    void drain(Fn&& fn) {
      std::size_t head = head_.load(std::memory_order_relaxed);
      const std::size_t tail = tail_.load(std::memory_order_acquire);
      while (head != tail) {
        Item& slot = ring_[head & (kCapacity - 1)];
        fn(slot.when, slot.category, std::move(slot.action));
        slot.action = nullptr;
        ++head;
      }
      head_.store(head, std::memory_order_release);
      for (Item& item : overflow_) {
        fn(item.when, item.category, std::move(item.action));
      }
      overflow_.clear();
    }

   private:
    struct Item {
      Time when = 0;
      EventCategory category = EventCategory::kGeneral;
      Action action;
    };
    static constexpr std::size_t kCapacity = 256;  // power of two

    std::array<Item, kCapacity> ring_{};
    std::atomic<std::size_t> head_{0};
    std::atomic<std::size_t> tail_{0};
    std::vector<Item> overflow_;
  };

  /// The facade a shard's nodes hold as their Executive. Scheduling pins
  /// to the owning shard no matter which thread calls (construction-time
  /// calls come from the quiesced main thread); mid-run, only the
  /// owning shard's worker may schedule or cancel through it.
  class ShardView final : public Executive {
   public:
    explicit ShardView(ShardedExecutive& owner, Shard& shard)
        : owner_(owner), shard_(shard) {}

    [[nodiscard]] Time now() const override { return shard_.now; }

    [[nodiscard]] MHRP_HOT_PATH EventHandle at(
        Time when, Action action,
        EventCategory category = EventCategory::kGeneral) override {
      if (owner_.foreign_to(shard_)) {
        throw std::logic_error(
            "cross-shard at() through a foreign shard view; use post()");
      }
      return owner_.schedule_local(shard_, when, std::move(action), category);
    }

    [[nodiscard]] MHRP_HOT_PATH EventHandle after(
        Time delay, Action action,
        EventCategory category = EventCategory::kGeneral) override {
      return at(shard_.now + (delay < 0 ? 0 : delay), std::move(action),
                category);
    }

    /// Mid-run, another shard's worker gets false, as from the driver's
    /// cancel(): it must not write this shard's queue.
    bool cancel(const EventHandle& handle) override {
      if (owner_.foreign_to(shard_)) return false;
      return shard_.queue.cancel(handle);
    }

    void post(ShardId target, Time when, Action action,
              EventCategory category = EventCategory::kGeneral) override {
      owner_.post(target, when, std::move(action), category);
    }

    [[nodiscard]] ShardId shard_count() const override {
      return owner_.shard_count();
    }
    [[nodiscard]] ShardId shard_id() const override { return shard_.id; }
    [[nodiscard]] Time lookahead() const override {
      return owner_.lookahead();
    }

    std::size_t run() override { return owner_.run(); }
    std::size_t run_until(Time deadline) override {
      return owner_.run_until(deadline);
    }
    std::size_t run_for(Time duration) override {
      return owner_.run_for(duration);
    }
    void stop() override { owner_.stop(); }
    [[nodiscard]] std::size_t pending_events() const override {
      return shard_.queue.size();
    }
    void set_profiler(EventLoopProfiler* profiler) override {
      owner_.set_profiler(profiler);
    }

   private:
    ShardedExecutive& owner_;
    Shard& shard_;
  };

  struct Shard {
    Shard(ShardedExecutive& exec, ShardId shard_id, ShardId shard_count)
        : owner(&exec), id(shard_id), view(exec, *this), inbox(shard_count) {}

    ShardedExecutive* const owner;
    const ShardId id;
    /// The shard's serial domain: its queue, clock, and executed counter
    /// are touched only by the thread running the shard mid-run (its
    /// worker, or the caller's thread with one shard), and only by the
    /// quiesced coordinator between windows (barrier happens-before).
    util::ExecutiveSerial serial;
    EventQueue queue;
    Time now = kTimeZero;
    std::uint64_t executed = 0;
    std::uint64_t busy_ns = 0;
    ShardView view;
    std::vector<Mailbox> inbox;  // indexed by source shard
    std::thread worker;
  };

  [[nodiscard]] Shard* current_shard() const {
    Shard* s = tls_shard_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  /// True when the calling thread runs a shard other than `shard` — a
  /// mid-run call that must not touch `shard`'s queue.
  [[nodiscard]] bool foreign_to(const Shard& shard) const {
    const Shard* current = current_shard();
    return current != nullptr && current != &shard;
  }

  [[nodiscard]] EventHandle schedule_local(Shard& shard, Time when,
                                           Action action,
                                           EventCategory category) {
    if (when < shard.now) when = shard.now;  // never into the shard's past
    return shard.queue.schedule(when, std::move(action), category);
  }

  /// Execute the shard's events with timestamp <= `last` in (time, seq)
  /// order, advancing its clock; events scheduled meanwhile inside the
  /// range run in the same pass. This is phase B of a window, and the
  /// whole of a one-shard run, which alone honours stop() after each
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

  /// One shard: the caller's thread is the shard's worker for the run,
  /// so now(), shard_id() and cancel() resolve to it from inside events.
  void run_inline(Shard& shard, Time deadline) {
    struct Mark {  // restored on exit, exceptions included
      explicit Mark(Shard& s) : outer(std::exchange(tls_shard_, &s)) {}
      ~Mark() { tls_shard_ = outer; }
      Mark(const Mark&) = delete;
      Mark& operator=(const Mark&) = delete;
      Shard* const outer;
    } const mark(shard);
    shard.serial.assert_held();
    const std::uint64_t busy_start = thread_cpu_ns();
    if (profiler_ == nullptr) {
      run_events<true, false>(shard, deadline);
    } else {
      run_events<true, true>(shard, deadline);
    }
    shard.busy_ns += thread_cpu_ns() - busy_start;
  }

  /// Two or more shards: publish windows until the deadline is covered,
  /// the queues drain, or stop() is seen at a window boundary.
  void run_windows(Time deadline) {
    start_workers();
    constexpr Time kMax = std::numeric_limits<Time>::max();
    // First timestamp NOT covered by this run (deadline is inclusive).
    const Time limit = deadline == kMax ? kMax : deadline + 1;
    while (!stopped_.load(std::memory_order_relaxed)) {
      Time next = kMax;
      for (auto& shard : shards_) {
        if (!shard->queue.empty()) {
          next = std::min(next, shard->queue.next_time());
        }
      }
      if (next >= limit) break;  // drained, or nothing left in range
      const Time window_end =
          next >= limit - lookahead_ ? limit : next + lookahead_;
      window_end_.store(window_end, std::memory_order_relaxed);
      barrier_.arrive_and_wait();  // A: window published, workers go
      barrier_.arrive_and_wait();  // B: local events < end executed
      barrier_.arrive_and_wait();  // C: inboxes drained
      if (has_error()) {
        std::exception_ptr err;
        {
          const std::lock_guard<std::mutex> lock(error_mu_);
          err = std::exchange(error_, nullptr);
        }
        shutdown_workers();
        std::rethrow_exception(err);
      }
    }
  }

  /// Drain this shard's inboxes in ascending source-shard order — phase
  /// C. The fixed order makes sequence-number assignment (and therefore
  /// same-timestamp FIFO order) deterministic for a fixed shard count.
  void drain_inboxes(Shard& shard) MHRP_REQUIRES(shard.serial) {
    for (Mailbox& mail : shard.inbox) {
      mail.drain([&shard](Time when, EventCategory category, Action action) {
        if (when < shard.now) when = shard.now;  // defensive; cannot fire
        (void)shard.queue.schedule(when, std::move(action), category);
      });
    }
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

  void worker_main(Shard& shard) {
    tls_shard_ = &shard;
    shard.serial.assert_held();
    while (true) {
      barrier_.arrive_and_wait();  // A: window published (or shutdown)
      if (shutdown_.load(std::memory_order_relaxed)) break;
      const Time window_end = window_end_.load(std::memory_order_relaxed);
      const std::uint64_t busy_start = thread_cpu_ns();
      try {
        run_events<false, false>(shard, window_end - 1);
      } catch (...) {
        record_error();
      }
      barrier_.arrive_and_wait();  // B
      try {
        drain_inboxes(shard);
      } catch (...) {
        record_error();
      }
      shard.busy_ns += thread_cpu_ns() - busy_start;
      barrier_.arrive_and_wait();  // C
    }
    tls_shard_ = nullptr;
  }

  void start_workers() {
    if (started_) return;
    shutdown_.store(false, std::memory_order_relaxed);
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, s = shard.get()] { worker_main(*s); });
    }
    started_ = true;
  }

  void shutdown_workers() {
    if (!started_) return;
    shutdown_.store(true, std::memory_order_relaxed);
    barrier_.arrive_and_wait();  // release workers at phase A; they exit
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    started_ = false;
  }

  [[nodiscard]] bool has_error() {
    const std::lock_guard<std::mutex> lock(error_mu_);
    return error_ != nullptr;
  }

  void record_error() {
    const std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }

  [[nodiscard]] std::uint64_t total_executed() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->executed;
    return total;
  }

  inline static thread_local Shard* tls_shard_ = nullptr;

  Time lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::barrier<> barrier_;
  std::atomic<Time> window_end_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  bool started_ = false;
  EventLoopProfiler* profiler_ = nullptr;  // one shard only
};

}  // namespace mhrp::sim
