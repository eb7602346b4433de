// A Link is a broadcast domain (LAN segment, wireless cell, or a
// point-to-point circuit, which is just a two-member domain). Frames are
// delivered after propagation latency plus serialization delay, with
// optional stochastic impairments; delivery is by destination MAC, or to
// every member for the broadcast address.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/interface.hpp"
#include "sim/executive.hpp"
#include "util/annotations.hpp"
#include "util/hooks.hpp"
#include "util/rng.hpp"

namespace mhrp::net {

/// Stochastic wire impairments applied to every frame a link carries,
/// drawn from one seeded RNG so a run is exactly reproducible. The draw
/// order per transmitted frame — loss, jitter, reorder, duplicate — is
/// part of the deterministic-replay contract.
struct LinkImpairments {
  /// Independent per-frame drop probability.
  double loss = 0.0;
  /// Fixed extra one-way delay added to every frame.
  sim::Time extra_delay = 0;
  /// Uniform extra delay in [0, jitter], drawn per frame.
  sim::Time jitter = 0;
  /// Probability a carried frame is delivered twice.
  double duplicate = 0.0;
  /// Probability a frame is held back by reorder_hold, letting frames
  /// sent after it arrive first.
  double reorder = 0.0;
  sim::Time reorder_hold = sim::millis(10);

  [[nodiscard]] bool any() const {
    return loss > 0.0 || extra_delay > 0 || jitter > 0 || duplicate > 0.0 ||
           reorder > 0.0;
  }
};

class Link {
 public:
  /// `bandwidth_bps` of 0 means infinite (no serialization delay). `sim`
  /// is the DRIVER executive (for a sharded run, the ShardedExecutive
  /// itself, not a shard view): a backbone link is transmitted onto from
  /// both endpoint shards, and the driver routes each call through the
  /// calling shard's clock and queue. A delivery whose receiving
  /// interface lives on another shard travels as a cross-shard post().
  Link(sim::Executive& sim, std::string name, sim::Time latency,
       std::uint64_t bandwidth_bps = 0);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  ~Link();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Time latency() const { return latency_; }

  /// Attach an interface to this link; detaches it from any previous
  /// link first (this is how a mobile host changes cells).
  void attach(Interface& iface);
  void detach(Interface& iface);
  [[nodiscard]] bool has_member(const Interface& iface) const;
  [[nodiscard]] const std::vector<Interface*>& members() const {
    return members_;
  }

  // ---- Lifecycle (the fault plane's injection points) ----

  /// Take the link down: a cut circuit or a partition. Frames sent while
  /// down are lost, and frames already in flight die at arrival — nothing
  /// is delivered through a down link. Idempotent.
  void fail();
  /// Bring the link back up. Idempotent.
  void recover();
  [[nodiscard]] bool is_up() const {
    return up_.load(std::memory_order_relaxed);
  }

  /// Install a stochastic impairment model. `rng` must outlive this link
  /// or be released with clear_impairments() first.
  void set_impairments(const LinkImpairments& impairments, util::Rng& rng);
  /// Remove the impairment model (and the link's reference to its RNG).
  void clear_impairments();
  [[nodiscard]] const LinkImpairments& impairments() const {
    return impairments_;
  }

  /// Transmit from `from` (which must be attached). Schedules delivery to
  /// the matching member(s) after the link delay; the last recipient
  /// takes `frame` by move, and only fan-out and duplicates copy it.
  MHRP_HOT_PATH void transmit(const Interface& from, Frame&& frame);

  /// Fired for every frame the link actually carries (after the up/loss
  /// checks), at the moment of transmission, with the simulated
  /// transmission time. The audit layer (analysis::PacketAuditor)
  /// subscribes here to validate wire invariants at every hop.
  util::Hooks<const Link&, const Frame&, sim::Time> on_transmit;

  // Traffic counters for metrics. Relaxed atomics: a backbone link is
  // transmitted onto from both endpoint shards concurrently, and counters
  // are only ever read for reporting (snapshots happen quiesced).
  [[nodiscard]] std::uint64_t frames_carried() const {
    return frames_carried_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_carried() const {
    return bytes_carried_.load(std::memory_order_relaxed);
  }
  /// Frames lost to a down link: sent while down, or in flight when it
  /// failed ("packets lost per outage" feeds on this).
  [[nodiscard]] std::uint64_t frames_dropped_down() const {
    return frames_dropped_down_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_dropped_loss() const {
    return frames_dropped_loss_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_duplicated() const {
    return frames_duplicated_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] MHRP_HOT_PATH sim::Time delay_for(
      std::size_t frame_bytes) const;
  MHRP_HOT_PATH void schedule_delivery(Interface* member, Frame&& frame,
                                       sim::Time delay);
  void notify_members(bool up);

  sim::Executive& sim_;
  std::string name_;
  sim::Time latency_;
  std::uint64_t bandwidth_bps_;
  // Membership is setup-time for cross-shard links; only shard-local
  // links (wireless cells) may attach/detach mid-run. The scenario layer
  // owns that invariant (DESIGN.md §13).
  std::vector<Interface*> members_;
  LinkImpairments impairments_;
  util::Rng* rng_ = nullptr;
  std::atomic<bool> up_{true};
  std::atomic<std::uint64_t> frames_carried_{0};
  std::atomic<std::uint64_t> bytes_carried_{0};
  std::atomic<std::uint64_t> frames_dropped_down_{0};
  std::atomic<std::uint64_t> frames_dropped_loss_{0};
  std::atomic<std::uint64_t> frames_duplicated_{0};
};

}  // namespace mhrp::net
