// PacketAuditor: subscribes to the simulated wire (Link::on_transmit)
// and, frame by frame, validates the paper's wire invariants — MHRP
// header sizes (§4.1), previous-source-list growth (§4.4), the
// no-duplicate guarantee of loop contraction (§5.3), IP/ICMP/MHRP
// checksum validity, and TTL monotonicity — plus the LocationCache
// structural invariants of every cache it is asked to watch. Violations
// are collected into an AuditReport that tests and benches assert on.
//
// Any number of auditors may watch one link; a link nobody watches pays
// one empty-hook test per transmission. Every scenario world owns one
// auditor, which audit builds (cmake -DMHRP_AUDIT=ON) attach to the
// whole world (see scenario/audit_hooks.hpp).
//
// Lifetime rule: destroy an auditor before the links it observes and
// the caches it watches. It holds a util::Subscription per link, which
// must not outlive the link's hooks; declaring the auditor after the
// world (or as the world's last member) is enough.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/audit_report.hpp"
#include "analysis/invariant_registry.hpp"
#include "core/location_cache.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "util/byte_buffer.hpp"
#include "util/hooks.hpp"

namespace mhrp::analysis {

class PacketAuditor {
 public:
  PacketAuditor() = default;

  PacketAuditor(const PacketAuditor&) = delete;
  PacketAuditor& operator=(const PacketAuditor&) = delete;
  PacketAuditor(PacketAuditor&&) = delete;
  PacketAuditor& operator=(PacketAuditor&&) = delete;

  [[nodiscard]] InvariantRegistry& registry() { return registry_; }
  [[nodiscard]] const AuditReport& report() const { return report_; }
  [[nodiscard]] AuditReport& report() { return report_; }

  // ---- Attachment ----

  /// Observe every frame `link` carries, until this auditor is
  /// destroyed. Attach each link once: a second attach audits its
  /// frames twice.
  void attach_link(net::Link& link);

  /// Check `cache`'s structural invariants on every audit_caches() pass,
  /// which also runs every kCacheAuditInterval observed frames. The
  /// cache must outlive the auditor.
  void watch_cache(const core::LocationCache& cache, std::string label);

  /// Oracle behind the stale-binding invariant, consulted for every
  /// MHRP-tunneled frame: given the tunnel head (outer IP source), the
  /// mobile host, the tunnel destination, and the transmission time, it
  /// returns true when that binding use is acceptable (current, or
  /// within the repair window after a change). The scenario layer builds
  /// one from the home agent's binding history; with no oracle installed
  /// the invariant is not checked.
  using BindingOracle =
      std::function<bool(net::IpAddress tunnel_src, net::IpAddress mobile_host,
                         net::IpAddress tunnel_dst, sim::Time now)>;
  void set_binding_oracle(BindingOracle oracle) {
    binding_oracle_ = std::move(oracle);
  }

  // ---- Checks ----

  /// Audit one datagram as if it crossed a wire at `now`. `where` names
  /// the observation point in violation reports.
  void audit_packet(const net::Packet& packet, sim::Time now = sim::kTimeZero,
                    const std::string& where = "direct");

  /// Run the structural checks over every watched cache.
  void audit_caches(sim::Time now = sim::kTimeZero);

  static constexpr std::uint64_t kCacheAuditInterval = 256;

 private:
  /// Last-seen wire state of one datagram (keyed by Packet::id), used for
  /// the cross-hop invariants: TTL monotonicity and list growth.
  struct PathState {
    bool ttl_seen = false;
    std::uint8_t last_ttl = 0;
    bool mhrp_seen = false;
    std::size_t last_list_len = 0;
  };

  /// Link::on_transmit subscriber: audit one frame as it goes out.
  void on_transmit(const net::Link& link, const net::Frame& frame,
                   sim::Time now);
  void violate(InvariantId id, const net::Packet& packet, sim::Time now,
               const std::string& where, std::string what);
  void check_round_trip(const net::Packet& packet, sim::Time now,
                        const std::string& where);
  void check_mhrp(const net::Packet& packet, PathState& state, sim::Time now,
                  const std::string& where);
  PathState& path_state(std::uint64_t packet_id);

  InvariantRegistry registry_;
  AuditReport report_;
  BindingOracle binding_oracle_;
  util::ByteWriter scratch_;  // reused per-packet serialize buffer
  std::unordered_map<std::uint64_t, PathState> paths_;
  std::vector<std::pair<const core::LocationCache*, std::string>> caches_;
  std::vector<util::Subscription> subscriptions_;  // one per attached link

  /// Path-state entries are dropped wholesale past this many tracked
  /// datagrams (long benches would otherwise grow without bound; the
  /// cross-hop checks simply restart for in-flight packets).
  static constexpr std::size_t kMaxTrackedPackets = 1u << 20u;
};

}  // namespace mhrp::analysis
