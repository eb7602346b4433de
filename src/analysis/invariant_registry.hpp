// The catalogue of machine-checked invariants behind the paper's
// correctness argument. Each entry names the invariant, cites the paper
// section that states it, and carries a one-line prose statement used
// when an AuditReport is rendered.
//
// The registry also holds the per-invariant enable bits: tests that
// deliberately construct malformed traffic for one invariant can switch
// the others off to keep their reports focused.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace mhrp::analysis {

enum class InvariantId : std::uint8_t {
  /// Every datagram on the wire re-serializes and re-parses to an
  /// identical header and payload, with a valid IP header checksum
  /// (RFC 791; the byte-exact encoding DESIGN.md §2 commits to).
  kIpHeaderRoundTrip = 0,
  /// The MHRP header checksum verifies and its count field matches the
  /// bytes present (paper §4.1 Fig. 3).
  kMhrpHeaderChecksum,
  /// A newly built MHRP header is exactly 8 octets (sender-built, empty
  /// previous-source list) or 12 octets (built by a home or cache agent,
  /// one list entry) — the sizes §4.1 and §7 quote.
  kMhrpHeaderSize,
  /// Each re-tunnel appends exactly one address (4 octets) to the
  /// previous-source list; the list only ever shrinks via the §4.4
  /// overflow flush, which resets it to a single entry.
  kMhrpListGrowth,
  /// The previous-source list never contains a repeated address — the
  /// guarantee the loop-contraction rule (§5.3) provides.
  kMhrpNoDuplicateSources,
  /// ICMP message bodies carry a valid RFC 792 checksum and well-formed
  /// per-type fields.
  kIcmpChecksum,
  /// A datagram's TTL never increases between consecutive wire
  /// crossings (RFC 791; what ultimately kills loops larger than the
  /// previous-source list can record, §5.3).
  kTtlMonotone,
  /// LocationCache structure: the LRU list and the lookup map describe
  /// the same set of entries, and every map slot points at the list node
  /// holding its key.
  kCacheCoherence,
  /// LocationCache occupancy never exceeds its configured capacity
  /// ("the (finite) cache space provided by any cache agent", §2).
  kCacheCapacity,
  /// A link that has failed carries no frames: nothing is transmitted on
  /// it and nothing in flight is delivered through it (the lifecycle
  /// contract the fault plane injects against).
  kLinkDownSilent,
  /// After the repair window following a binding change, no agent keeps
  /// tunneling a mobile host's traffic toward the superseded foreign
  /// agent (§5.2/§6.3 lazy repair must converge). Checked against a
  /// scenario-supplied binding oracle.
  kStaleBindingForwarding,
  /// Recovery of the home agent's durable store always yields a prefix
  /// of the logged mutation history: the recovered database equals the
  /// state after the first N logged records for some N, with N at least
  /// the count made durable before the crash (§2's "recorded on disk to
  /// survive any crashes"; DESIGN §10).
  kWalPrefixConsistent,
  /// A registration acknowledged under a durable sync policy (kSync,
  /// kInterval) is never lost by a crash: the recovered database
  /// contains every acked binding (§4.2's registration contract extended
  /// over reboots).
  kDurableAckNotLost,
};

inline constexpr std::size_t kInvariantCount = 13;

[[nodiscard]] constexpr std::size_t index_of(InvariantId id) {
  return static_cast<std::size_t>(id);
}

struct InvariantInfo {
  InvariantId id{};
  std::string_view name;       // short slug used in report lines
  std::string_view paper_ref;  // where the paper (or RFC) states it
  std::string_view statement;  // one-line prose form
};

class InvariantRegistry {
 public:
  /// All invariants registered and enabled.
  InvariantRegistry() { enabled_.fill(true); }

  [[nodiscard]] static const InvariantInfo& info(InvariantId id);
  [[nodiscard]] static std::span<const InvariantInfo> all();

  void set_enabled(InvariantId id, bool enabled) {
    enabled_[index_of(id)] = enabled;
  }
  [[nodiscard]] bool enabled(InvariantId id) const {
    return enabled_[index_of(id)];
  }

  /// Convenience: disable every invariant except `keep` (focused tests).
  void enable_only(InvariantId keep) {
    enabled_.fill(false);
    enabled_[index_of(keep)] = true;
  }

 private:
  std::array<bool, kInvariantCount> enabled_{};
};

}  // namespace mhrp::analysis
