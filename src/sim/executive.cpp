// sim::Executive's members, each defined once for both kinds of handle
// (executive.hpp): a pinned handle acts on its own shard, the
// executive's own handle on the shard the calling thread runs.
#include "sim/executive.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/sharded_executive.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

Time Executive::now() const {
  if (pinned_ != nullptr) return pinned_->now;
  if (const Shard* s = owner_.current_shard()) return s->now;
  Time latest = kTimeZero;  // quiesced: the furthest clock any shard reached
  for (const auto& shard : owner_.shards_) {
    latest = std::max(latest, shard->now);
  }
  return latest;
}

MHRP_HOT_PATH EventHandle Executive::at(Time when, Action action,
                                        EventCategory category) {
  Shard* const running = owner_.current_shard();
  Shard* shard = pinned_;
  if (shard == nullptr) {
    shard = running != nullptr ? running : owner_.shards_.front().get();
  } else if (running != nullptr && running != shard) {
    throw std::logic_error(
        "cross-shard at() through another shard's handle; use post()");
  }
  return owner_.schedule_local(*shard, when, std::move(action), category);
}

MHRP_HOT_PATH EventHandle Executive::after(Time delay, Action action,
                                           EventCategory category) {
  return at(now() + (delay < 0 ? 0 : delay), std::move(action), category);
}

bool Executive::cancel(const EventHandle& handle) {
  Shard* const running = owner_.current_shard();
  if (pinned_ != nullptr) {
    // Mid-run, another shard's thread gets false: it must not write
    // this shard's queue while this shard's thread runs it.
    return (running == nullptr || running == pinned_) &&
           pinned_->queue.cancel(handle);
  }
  // Mid-run, only the calling shard's own events are cancellable; a
  // handle owned by another shard's queue reports false (the same answer
  // as an event that already fired), never races that queue.
  if (running != nullptr) return running->queue.cancel(handle);
  for (auto& shard : owner_.shards_) {  // quiesced: find the owning queue
    if (shard->queue.cancel(handle)) return true;
  }
  return false;
}

void Executive::post(ShardId target, Time when, Action action,
                     EventCategory category) {
  if (target >= owner_.shards_.size()) {
    throw std::out_of_range("Executive::post: shard out of range");
  }
  Shard& to = *owner_.shards_[target];
  const Shard* from = owner_.current_shard();
  if (from == nullptr || from == &to) {
    // Quiesced (no window open), or shard-local: plain scheduling.
    (void)owner_.schedule_local(to, when, std::move(action), category);
    return;
  }
  if (when < owner_.window_end_) {
    throw LookaheadViolation(when, owner_.window_end_);
  }
  to.inbox[from->id].push_back(Shard::Mail{when, category, std::move(action)});
}

Executive::ShardId Executive::shard_count() const {
  return static_cast<ShardId>(owner_.shards_.size());
}

Executive::ShardId Executive::shard_id() const {
  if (pinned_ != nullptr) return pinned_->id;
  const Shard* s = owner_.current_shard();
  return s != nullptr ? s->id : 0;
}

Time Executive::lookahead() const { return owner_.lookahead_; }

}  // namespace mhrp::sim
