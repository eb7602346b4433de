#include "analysis/invariant_registry.hpp"

namespace mhrp::analysis {

namespace {

constexpr std::array<InvariantInfo, kInvariantCount> kCatalogue{{
    {InvariantId::kIpHeaderRoundTrip, "ip-header-round-trip", "RFC 791 / DESIGN §2",
     "datagram re-serializes and re-parses byte-identically with a valid "
     "IP header checksum"},
    {InvariantId::kMhrpHeaderChecksum, "mhrp-header-checksum", "§4.1 Fig. 3",
     "MHRP header checksum verifies and the count field matches the bytes "
     "present"},
    {InvariantId::kMhrpHeaderSize, "mhrp-header-size", "§4.1, §7",
     "a newly built MHRP header is exactly 8 octets (sender-built) or 12 "
     "octets (agent-built)"},
    {InvariantId::kMhrpListGrowth, "mhrp-list-growth", "§4.4",
     "each re-tunnel appends exactly 4 octets; the list shrinks only via "
     "the overflow flush, to a single entry"},
    {InvariantId::kMhrpNoDuplicateSources, "mhrp-no-duplicate-sources", "§5.3",
     "the previous-source list never contains a repeated address"},
    {InvariantId::kIcmpChecksum, "icmp-checksum", "RFC 792",
     "ICMP bodies carry a valid checksum and well-formed per-type fields"},
    {InvariantId::kTtlMonotone, "ttl-monotone", "RFC 791 / §5.3",
     "a datagram's TTL never increases between consecutive wire crossings"},
    {InvariantId::kCacheCoherence, "cache-coherence", "§4.3",
     "the LocationCache LRU list and lookup map describe the same entries"},
    {InvariantId::kCacheCapacity, "cache-capacity", "§2",
     "LocationCache occupancy never exceeds its configured capacity"},
    {InvariantId::kLinkDownSilent, "link-down-silent", "§5.2 / DESIGN §9",
     "a failed link carries no frames — neither new transmissions nor "
     "in-flight deliveries"},
    {InvariantId::kStaleBindingForwarding, "stale-binding-forwarding",
     "§5.2, §6.3",
     "past the repair window, no agent tunnels toward a superseded "
     "foreign-agent binding"},
    {InvariantId::kWalPrefixConsistent, "wal-prefix-consistent",
     "§2 / DESIGN §10",
     "store recovery yields the state after some prefix of the logged "
     "history, no shorter than the durable prefix"},
    {InvariantId::kDurableAckNotLost, "durable-ack-not-lost",
     "§4.2 / DESIGN §10",
     "a registration acked under a durable sync policy survives any "
     "crash-and-recover"},
}};

}  // namespace

const InvariantInfo& InvariantRegistry::info(InvariantId id) {
  return kCatalogue[index_of(id)];
}

std::span<const InvariantInfo> InvariantRegistry::all() { return kCatalogue; }

}  // namespace mhrp::analysis
