#include "analysis/packet_auditor.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <unordered_set>

#include "analysis/cache_inspector.hpp"
#include "core/encapsulation.hpp"
#include "net/frame.hpp"
#include "net/icmp.hpp"
#include "net/protocols.hpp"

namespace mhrp::analysis {

namespace {

/// Compact first-offender dump: the header fields that matter to the
/// invariants plus a bounded hex prefix of the payload.
std::string describe_packet(const net::Packet& p) {
  constexpr std::size_t kDumpLimit = 24;
  std::ostringstream out;
  const net::IpHeader& h = p.header();
  out << p.header().src.to_string() << " -> " << h.dst.to_string()
      << " proto=" << static_cast<unsigned>(h.protocol)
      << " ttl=" << static_cast<unsigned>(h.ttl)
      << " wire=" << p.wire_size() << "B payload[0.."
      << std::min(p.payload().size(), kDumpLimit) << ")=";
  out << std::hex << std::setfill('0');
  for (std::size_t i = 0; i < p.payload().size() && i < kDumpLimit; ++i) {
    out << std::setw(2) << static_cast<unsigned>(p.payload()[i]);
  }
  if (p.payload().size() > kDumpLimit) out << "...";
  return out.str();
}

}  // namespace

void PacketAuditor::attach_link(net::Link& link) {
  subscriptions_.push_back(link.on_transmit.add(
      [this](const net::Link& l, const net::Frame& frame, sim::Time now) {
        on_transmit(l, frame, now);
      }));
}

void PacketAuditor::watch_cache(const core::LocationCache& cache,
                                std::string label) {
  for (const auto& [watched, name] : caches_) {
    if (watched == &cache) return;
  }
  caches_.emplace_back(&cache, std::move(label));
}

void PacketAuditor::on_transmit(const net::Link& link, const net::Frame& frame,
                                sim::Time now) {
  ++report_.frames_audited;
  if (report_.frames_audited % kCacheAuditInterval == 0) audit_caches(now);
  if (!frame.is_ip()) {
    // ARP carries no audited invariants, but the lifecycle one still
    // holds: a down link must carry nothing at all.
    if (!link.is_up() && registry_.enabled(InvariantId::kLinkDownSilent)) {
      report_.add(AuditViolation{InvariantId::kLinkDownSilent, 0, now,
                                 link.name(),
                                 "ARP frame transmitted on a down link"});
    }
    return;
  }
  if (!link.is_up() && registry_.enabled(InvariantId::kLinkDownSilent)) {
    violate(InvariantId::kLinkDownSilent, frame.packet(), now, link.name(),
            "frame transmitted on a down link");
  }
  audit_packet(frame.packet(), now, link.name());
}

void PacketAuditor::violate(InvariantId id, const net::Packet& packet,
                            sim::Time now, const std::string& where,
                            std::string what) {
  report_.add(AuditViolation{id, packet.id(), now, where,
                             std::move(what) + " | " + describe_packet(packet)});
}

PacketAuditor::PathState& PacketAuditor::path_state(std::uint64_t packet_id) {
  if (paths_.size() > kMaxTrackedPackets) paths_.clear();
  return paths_[packet_id];
}

void PacketAuditor::audit_packet(const net::Packet& packet, sim::Time now,
                                 const std::string& where) {
  ++report_.packets_audited;
  check_round_trip(packet, now, where);

  PathState& state = path_state(packet.id());

  if (registry_.enabled(InvariantId::kTtlMonotone)) {
    if (state.ttl_seen && packet.header().ttl > state.last_ttl) {
      std::ostringstream what;
      what << "TTL rose from " << static_cast<unsigned>(state.last_ttl)
           << " to " << static_cast<unsigned>(packet.header().ttl)
           << " between wire crossings";
      violate(InvariantId::kTtlMonotone, packet, now, where, what.str());
    }
  }
  state.ttl_seen = true;
  state.last_ttl = packet.header().ttl;

  if (packet.header().protocol == net::to_u8(net::IpProto::kIcmp) &&
      registry_.enabled(InvariantId::kIcmpChecksum)) {
    try {
      (void)net::decode_icmp(packet.payload());
    } catch (const util::CodecError& e) {
      violate(InvariantId::kIcmpChecksum, packet, now, where,
              std::string("ICMP body rejected: ") + e.what());
    }
  }

  if (core::is_mhrp(packet)) {
    ++report_.mhrp_packets_audited;
    check_mhrp(packet, state, now, where);
  } else {
    // Once a datagram leaves the tunnel (decapsulated for last-hop
    // delivery) its list history no longer constrains a future tunnel.
    state.mhrp_seen = false;
    state.last_list_len = 0;
  }
}

void PacketAuditor::check_round_trip(const net::Packet& packet, sim::Time now,
                                     const std::string& where) {
  if (!registry_.enabled(InvariantId::kIpHeaderRoundTrip)) return;
  try {
    scratch_.clear();  // reuse one buffer across the whole audit run
    packet.serialize_into(scratch_);
    const net::Packet reparsed = net::Packet::deserialize(scratch_.view());
    if (!(reparsed.header() == packet.header()) ||
        reparsed.payload() != packet.payload()) {
      violate(InvariantId::kIpHeaderRoundTrip, packet, now, where,
              "serialize/deserialize round-trip changed the datagram");
    }
  } catch (const util::CodecError& e) {
    violate(InvariantId::kIpHeaderRoundTrip, packet, now, where,
            std::string("datagram failed to re-parse: ") + e.what());
  }
}

void PacketAuditor::check_mhrp(const net::Packet& packet, PathState& state,
                               sim::Time now, const std::string& where) {
  core::MhrpHeader header;
  try {
    header = core::read_mhrp_header(packet);
  } catch (const util::CodecError& e) {
    if (registry_.enabled(InvariantId::kMhrpHeaderChecksum)) {
      violate(InvariantId::kMhrpHeaderChecksum, packet, now, where,
              std::string("MHRP header rejected: ") + e.what());
    }
    return;  // the remaining checks need a decoded header
  }

  if (binding_oracle_ &&
      registry_.enabled(InvariantId::kStaleBindingForwarding) &&
      !binding_oracle_(packet.header().src, header.mobile_host,
                       packet.header().dst, now)) {
    violate(InvariantId::kStaleBindingForwarding, packet, now, where,
            "tunnel toward " + packet.header().dst.to_string() +
                " uses a binding for " + header.mobile_host.to_string() +
                " stale past the repair window");
  }

  const std::size_t list_len = header.previous_sources.size();

  // §4.1: the first time a tunnel appears on the wire its header was just
  // built — 8 octets by the original sender (empty list) or 12 by a home
  // or cache agent (the displaced original source as the one entry).
  if (registry_.enabled(InvariantId::kMhrpHeaderSize) && !state.mhrp_seen &&
      list_len > 1) {
    std::ostringstream what;
    what << "freshly built MHRP header is " << header.encoded_size()
         << " octets (" << list_len << " list entries); expected 8 or 12";
    violate(InvariantId::kMhrpHeaderSize, packet, now, where, what.str());
  }

  // §4.4: between consecutive crossings the list either stays (plain
  // forwarding), grows by exactly one address (a re-tunnel appends 4
  // octets), or collapses to a single entry (the overflow flush).
  if (registry_.enabled(InvariantId::kMhrpListGrowth) && state.mhrp_seen) {
    const bool unchanged = list_len == state.last_list_len;
    const bool grew_by_one = list_len == state.last_list_len + 1;
    const bool overflow_flush = list_len == 1 && state.last_list_len > 1;
    if (!unchanged && !grew_by_one && !overflow_flush) {
      std::ostringstream what;
      what << "previous-source list went from " << state.last_list_len
           << " to " << list_len
           << " entries in one hop; a re-tunnel appends exactly one";
      violate(InvariantId::kMhrpListGrowth, packet, now, where, what.str());
    }
  }

  if (registry_.enabled(InvariantId::kMhrpNoDuplicateSources)) {
    std::unordered_set<std::uint32_t> seen;
    for (net::IpAddress addr : header.previous_sources) {
      if (!seen.insert(addr.raw()).second) {
        violate(InvariantId::kMhrpNoDuplicateSources, packet, now, where,
                "address " + addr.to_string() +
                    " appears twice in the previous-source list");
        break;
      }
    }
  }

  state.mhrp_seen = true;
  state.last_list_len = list_len;
}

void PacketAuditor::audit_caches(sim::Time now) {
  for (const auto& [cache, label] : caches_) {
    ++report_.cache_audits;
    const CacheInspector::Findings findings = CacheInspector::check(*cache);
    if (!findings.coherent &&
        registry_.enabled(InvariantId::kCacheCoherence)) {
      report_.add(AuditViolation{InvariantId::kCacheCoherence, 0, now, label,
                                 findings.detail});
    }
    if (!findings.within_capacity &&
        registry_.enabled(InvariantId::kCacheCapacity)) {
      report_.add(AuditViolation{InvariantId::kCacheCapacity, 0, now, label,
                                 findings.detail});
    }
  }
}

}  // namespace mhrp::analysis
