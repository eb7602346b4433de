#include "net/link.hpp"

#include <algorithm>

namespace mhrp::net {

Link::Link(sim::Executive& sim, std::string name, sim::Time latency,
           std::uint64_t bandwidth_bps)
    : sim_(sim),
      name_(std::move(name)),
      latency_(latency),
      bandwidth_bps_(bandwidth_bps) {}

Link::~Link() {
  for (Interface* iface : members_) iface->link_ = nullptr;
}

void Link::attach(Interface& iface) {
  if (iface.link_ == this) return;
  if (iface.link_ != nullptr) iface.link_->detach(iface);
  members_.push_back(&iface);
  iface.link_ = this;
}

void Link::detach(Interface& iface) {
  auto it = std::find(members_.begin(), members_.end(), &iface);
  if (it != members_.end()) {
    members_.erase(it);
    iface.link_ = nullptr;
  }
}

bool Link::has_member(const Interface& iface) const {
  return iface.link_ == this;
}

void Link::fail() {
  if (!up_.exchange(false, std::memory_order_relaxed)) return;
  notify_members(false);
}

void Link::recover() {
  if (up_.exchange(true, std::memory_order_relaxed)) return;
  notify_members(true);
}

// Carrier-state notification: each member node learns that its attached
// link flapped, so a routing process can withdraw (and later
// re-advertise) routes instead of timing them out in silence. A member
// on a foreign shard hears about it one lookahead later, like any other
// cross-shard signal — which is also its physical propagation budget.
void Link::notify_members(bool up) {
  for (Interface* member : members_) {
    const auto target = member->shard();
    if (target == sim_.shard_id()) {
      member->notify_link_state(up);
    } else {
      sim_.post(target, sim_.now() + sim_.lookahead(),
                [member, up] { member->notify_link_state(up); },
                sim::EventCategory::kFaultInjection);
    }
  }
}

void Link::set_impairments(const LinkImpairments& impairments, util::Rng& rng) {
  impairments_ = impairments;
  rng_ = &rng;
}

void Link::clear_impairments() {
  impairments_ = LinkImpairments{};
  rng_ = nullptr;
}

MHRP_HOT_PATH sim::Time Link::delay_for(std::size_t frame_bytes) const {
  sim::Time delay = latency_;
  if (bandwidth_bps_ > 0) {
    delay += static_cast<sim::Time>(frame_bytes * 8 * 1'000'000ull /
                                    bandwidth_bps_);
  }
  return delay;
}

// Delivery re-checks the link state and membership when the frame
// "arrives": a link that failed mid-flight must deliver nothing (the
// no-delivery-through-a-down-link invariant), and an interface that
// detached mid-flight (a radio that left the cell) must not hear it —
// otherwise a mobile host could receive a stale agent advertisement from
// the cell it just left and register with an unreachable agent.
//
// A member on another shard receives its frame as a cross-shard post()
// to its own shard — the link's latency is what funds the executive's
// lookahead, so the post always lands at or beyond the window boundary.
MHRP_HOT_PATH void Link::schedule_delivery(Interface* member, Frame&& frame,
                                           sim::Time delay) {
  auto deliver = [this, member, frame = std::move(frame)]() mutable {
    if (!is_up()) {
      frames_dropped_down_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (has_member(*member)) member->deliver(std::move(frame));
  };
  const auto target = member->shard();
  if (target == sim_.shard_id()) {
    (void)sim_.after(delay, std::move(deliver),
                     sim::EventCategory::kLinkDelivery);
  } else {
    sim_.post(target, sim_.now() + delay, std::move(deliver),
              sim::EventCategory::kLinkDelivery);
  }
}

MHRP_HOT_PATH void Link::transmit(const Interface& from, Frame&& frame) {
  if (!is_up()) {
    frames_dropped_down_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Impairment draw order (loss, jitter, reorder, duplicate) is fixed:
  // it is part of the deterministic-replay contract. (Impairments share
  // one RNG, so an impaired link must be shard-local; the scenario layer
  // enforces that.)
  if (rng_ != nullptr && impairments_.loss > 0.0 &&
      rng_->chance(impairments_.loss)) {
    frames_dropped_loss_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  frames_carried_.fetch_add(1, std::memory_order_relaxed);
  bytes_carried_.fetch_add(frame.wire_size(), std::memory_order_relaxed);
  if (on_transmit) on_transmit(*this, frame, sim_.now());
  if (frame.is_ip()) {
    frame.packet().note_wire_crossing(frame.packet().wire_size());
  }
  sim::Time delay = delay_for(frame.wire_size()) + impairments_.extra_delay;
  bool duplicate = false;
  if (rng_ != nullptr) {
    if (impairments_.jitter > 0) {
      delay += static_cast<sim::Time>(
          rng_->uniform(0, static_cast<std::uint64_t>(impairments_.jitter)));
    }
    if (impairments_.reorder > 0.0 && rng_->chance(impairments_.reorder)) {
      delay += impairments_.reorder_hold;
    }
    duplicate =
        impairments_.duplicate > 0.0 && rng_->chance(impairments_.duplicate);
  }
  if (duplicate) frames_duplicated_.fetch_add(1, std::memory_order_relaxed);

  // The only copies a hop makes: a duplicate delivery, and one frame per
  // broadcast recipient but the last.
  auto hand_over = [&](Interface* member, Frame&& delivered) {
    if (duplicate) {
      schedule_delivery(member, Frame(delivered), delay + latency_);
    }
    schedule_delivery(member, std::move(delivered), delay);
  };

  if (frame.dst.is_broadcast()) {
    // Every other member gets its own copy of the frame, except the last
    // recipient, which takes the original by move — on a two-member
    // segment (every point-to-point circuit) broadcast then copies
    // nothing at all.
    std::size_t last = members_.size();
    for (std::size_t i = members_.size(); i-- > 0;) {
      if (members_[i] != &from) {
        last = i;
        break;
      }
    }
    if (last == members_.size()) return;  // nobody else to hear it
    for (std::size_t i = 0; i < last; ++i) {
      if (members_[i] != &from) hand_over(members_[i], Frame(frame));
    }
    hand_over(members_[last], std::move(frame));
    return;
  }

  for (Interface* member : members_) {
    if (member == &from) continue;
    if (member->mac() == frame.dst) {
      hand_over(member, std::move(frame));
      return;
    }
  }
  // No member owns the destination MAC: the frame vanishes, as on a real
  // segment (e.g. a mobile host that silently left the cell).
}

}  // namespace mhrp::net
