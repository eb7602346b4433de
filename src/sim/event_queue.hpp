// Cancellable discrete-event queue with deterministic ordering.
//
// Events that share a timestamp fire in the order they were scheduled
// (FIFO by sequence number), which makes every simulation run exactly
// reproducible — a property the integration and property tests rely on.
//
// Storage is a slab of event slots addressed by {slot index, generation}
// handles. The queue itself allocates nothing per event beyond amortized
// vector growth (the pre-slab design paid a shared_ptr control block per
// event): the action lives in a slab slot that is recycled through a free
// list, and the heap orders 24-byte POD entries. An action whose captures
// outgrow std::function's inline buffer still allocates its own storage. Cancellation bumps the slot's
// generation, which orphans the heap entry. Orphans that reach the root
// are skipped at pop time, and once the heap holds more than
// max(64, 2 x live) entries a cancel erases every orphan and re-heapifies
// in place — so a timer that is re-armed far ahead many times over (a
// mobile host's agent lifetime) cannot fill the heap with dead entries.
// A compaction costs O(heap) and follows at least heap / 2 cancels, so
// cancel stays amortized O(1). A handle whose generation no longer matches
// its slot refers to an event that already fired or was cancelled — slot
// reuse cannot resurrect it (short of 2^32 reuses of one slot between a
// handle's creation and its last use, which no simulation approaches).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_category.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

class EventQueue;

/// Opaque handle identifying a scheduled event so it can be cancelled or
/// queried. Default-constructed handles refer to no event. Handles are
/// trivially copyable and never dangle into freed memory, but they hold a
/// pointer to their queue: using a non-default handle after its queue is
/// destroyed is undefined.
class EventHandle {
 public:
  EventHandle() = default;

  /// True when the handle refers to an event that has neither fired nor
  /// been cancelled.
  [[nodiscard]] bool pending() const;

  /// True when the handle was obtained from a schedule() call (i.e. it
  /// identifies some event, pending or not); default handles are invalid.
  [[nodiscard]] bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  EventHandle(const EventQueue* queue, std::uint32_t slot,
              std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  const EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Min-heap of (time, sequence) ordered events over a slab of action
/// slots. Cancellation is amortized O(1); cancelled heap entries are
/// dropped at pop or by a compaction once they outnumber live ones.
class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue() = default;
  // Handles point at their queue, so the queue must not move or be copied.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `action` at absolute time `when`. Times may not decrease
  /// relative to already-popped events; the executive enforces that.
  /// `category` tags the event for profiler attribution; it does not
  /// affect ordering. Dropping the returned handle forfeits the only way
  /// to cancel the event — cast to void at intentional fire-and-forget
  /// sites.
  [[nodiscard]] MHRP_HOT_PATH EventHandle schedule(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral) {
    serial_.assert_held();
    std::uint32_t slot = 0;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      // mhrp-lint: allow(hotpath-alloc) amortized slab growth (file comment)
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.action = std::move(action);
    s.category = category;
    s.live = true;
    // mhrp-lint: allow(hotpath-alloc) amortized heap growth; entries are POD
    heap_.push_back(HeapItem{when, next_seq_++, slot, s.generation});
    sift_up(heap_.size() - 1);
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  /// Cancel a pending event. Returns true when the event was pending and
  /// is now cancelled; false when it already fired or was cancelled, or
  /// when the handle is default-constructed / from another queue.
  MHRP_HOT_PATH bool cancel(const EventHandle& handle) {
    serial_.assert_held();
    if (!pending(handle)) return false;
    release(handle.slot_);
    --live_;
    if (heap_.size() > std::max(kCompactFloor, 2 * live_)) compact();
    return true;
  }

  /// True when `handle` names an event of this queue that has neither
  /// fired nor been cancelled.
  [[nodiscard]] MHRP_HOT_PATH bool pending(const EventHandle& handle) const {
    serial_.assert_held();
    if (handle.queue_ != this) return false;
    const Slot& s = slots_[handle.slot_];
    return s.live && s.generation == handle.generation_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Heap entries, live and orphaned: at most max(64, 2 x size()) after
  /// any cancel. A diagnostic for tests and benches.
  [[nodiscard]] std::size_t heap_entries() const {
    serial_.assert_held();
    return heap_.size();
  }

  /// Timestamp of the next live event. Requires !empty().
  [[nodiscard]] MHRP_HOT_PATH Time next_time() {
    serial_.assert_held();
    drop_orphans();
    return heap_.front().when;
  }

  /// A popped event: its firing time, its action, and its category tag.
  struct Fired {
    Time when;
    Action action;
    EventCategory category;
  };

  /// Remove and return the next live event. Requires !empty(). The slot
  /// is released before returning, so the event's handle reports
  /// non-pending while the action runs (and cancelling it returns false).
  MHRP_HOT_PATH Fired pop() {
    serial_.assert_held();
    drop_orphans();
    const HeapItem top = heap_.front();
    pop_root();
    Action action = std::move(slots_[top.slot].action);
    const EventCategory category = slots_[top.slot].category;
    release(top.slot);
    --live_;
    return Fired{top.when, std::move(action), category};
  }

 private:
  friend struct EventQueueTestPeer;  // generation and heap-order tests

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Below this many heap entries a cancel never compacts.
  static constexpr std::size_t kCompactFloor = 64;

  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    EventCategory category = EventCategory::kGeneral;  // fits slot padding
    bool live = false;
  };

  struct HeapItem {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool before(const HeapItem& a, const HeapItem& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Free a slot: clear the action, invalidate outstanding handles and
  /// heap entries by bumping the generation, and push it on the free list.
  void release(std::uint32_t slot) MHRP_REQUIRES(serial_) {
    Slot& s = slots_[slot];
    s.action = nullptr;
    s.live = false;
    ++s.generation;  // wraps at 2^32, see file comment
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// A heap entry is an orphan when its slot was cancelled (and possibly
  /// reused since): the generations no longer match.
  [[nodiscard]] bool orphan(const HeapItem& item) const {
    return slots_[item.slot].generation != item.generation;
  }

  void drop_orphans() MHRP_REQUIRES(serial_) {
    while (!heap_.empty() && orphan(heap_.front())) pop_root();
  }

  /// Erase every orphan, then rebuild the heap bottom-up (O(n)). Entries
  /// are totally ordered by (when, seq), so the pop order is unchanged.
  void compact() MHRP_REQUIRES(serial_) {
    std::erase_if(heap_,
                  [this](const HeapItem& item) { return orphan(item); });
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  void pop_root() MHRP_REQUIRES(serial_) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void sift_up(std::size_t i) MHRP_REQUIRES(serial_) {
    const HeapItem item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(item, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  void sift_down(std::size_t i) MHRP_REQUIRES(serial_) {
    const HeapItem item = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], item)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = item;
  }

  // All mutable queue state belongs to one serial domain: the thread
  // running the owning shard. The phantom capability documents that
  // invariant and lets a clang -Wthread-safety build check it at zero
  // runtime cost.
  util::ExecutiveSerial serial_;
  std::vector<Slot> slots_ MHRP_GUARDED_BY(serial_);
  std::vector<HeapItem> heap_ MHRP_GUARDED_BY(serial_);
  std::uint32_t free_head_ MHRP_GUARDED_BY(serial_) = kNoSlot;
  std::uint64_t next_seq_ MHRP_GUARDED_BY(serial_) = 0;
  std::size_t live_ = 0;  // read by empty()/size() observers
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->pending(*this);
}

}  // namespace mhrp::sim
