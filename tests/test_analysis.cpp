// Unit tests for the audit layer: each invariant catches the violation it
// names, and clean traffic is never flagged.
#include <gtest/gtest.h>

#include "analysis/cache_inspector.hpp"
#include "analysis/packet_auditor.hpp"
#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "net/icmp.hpp"
#include "net/packet.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using analysis::CacheInspector;
using analysis::InvariantId;
using analysis::InvariantRegistry;
using analysis::PacketAuditor;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

net::Packet make_udp_packet() {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = ip("10.1.0.10");
  h.dst = ip("10.2.0.77");
  h.ttl = 64;
  return net::Packet(h, std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
}

/// A packet tunneled by an agent (not the original sender): 12-octet
/// MHRP header, one previous-source entry.
net::Packet make_mhrp_packet() {
  net::Packet p = make_udp_packet();
  core::encapsulate(p, /*foreign_agent=*/ip("10.4.0.1"),
                    /*builder=*/ip("10.2.0.1"));
  return p;
}

/// Rewrite the packet's MHRP previous-source list to exactly `sources`
/// (correctly checksummed — these tests target the semantic invariants,
/// not the codec).
void set_previous_sources(net::Packet& p,
                          std::vector<net::IpAddress> sources) {
  core::MhrpHeader h = core::read_mhrp_header(p);
  h.previous_sources = std::move(sources);
  core::write_mhrp_header(p, h);
}

TEST(PacketAuditor, CleanTrafficIsNotFlagged) {
  PacketAuditor auditor;
  net::Packet udp = make_udp_packet();
  net::Packet mhrp = make_mhrp_packet();
  // Several hops: TTL decrements, list untouched — all invariants hold.
  for (int hop = 0; hop < 4; ++hop) {
    auditor.audit_packet(udp);
    auditor.audit_packet(mhrp);
    --udp.header().ttl;
    --mhrp.header().ttl;
  }
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().to_string();
  EXPECT_EQ(auditor.report().packets_audited, 8u);
  EXPECT_EQ(auditor.report().mhrp_packets_audited, 4u);
}

TEST(PacketAuditor, TwoAuditorsOnOneLinkBothSeeEveryFrame) {
  scenario::Topology topo;
  node::Host& a = topo.add_host("A");
  node::Host& b = topo.add_host("B");
  net::Link& lan = topo.add_link("lan");
  topo.connect(a, lan, ip("10.1.0.1"), 24);
  topo.connect(b, lan, ip("10.1.0.2"), 24);
  topo.install_static_routes();
  PacketAuditor first;
  PacketAuditor second;
  first.attach_link(lan);
  second.attach_link(lan);  // watches alongside `first`, never instead

  a.send_udp(ip("10.1.0.2"), 1000, 2000, std::vector<std::uint8_t>(16, 0xAB));
  topo.sim().run();

  EXPECT_GE(first.report().frames_audited, 1u);
  EXPECT_EQ(first.report().frames_audited, second.report().frames_audited);
  EXPECT_TRUE(first.report().clean()) << first.report().to_string();
}

TEST(PacketAuditor, MhrpChecksumCorruptionIsFlagged) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  p.payload()[4] ^= 0xFF;  // corrupt the mobile-host field under the checksum
  auditor.audit_packet(p);
  EXPECT_EQ(auditor.report().count(InvariantId::kMhrpHeaderChecksum), 1u);
  ASSERT_NE(auditor.report().first(InvariantId::kMhrpHeaderChecksum), nullptr);
  EXPECT_EQ(auditor.report().first(InvariantId::kMhrpHeaderChecksum)->packet_id,
            p.id());
}

TEST(PacketAuditor, DuplicatePreviousSourceIsFlagged) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  // §5.3's loop-contraction rule guarantees this never happens; build it
  // by hand to prove the auditor would see it.
  set_previous_sources(p, {ip("10.1.0.10"), ip("10.3.0.4"), ip("10.1.0.10")});
  // Suppress the co-occurring size finding (a 3-entry first observation).
  auditor.registry().set_enabled(InvariantId::kMhrpHeaderSize, false);
  auditor.audit_packet(p);
  EXPECT_EQ(auditor.report().count(InvariantId::kMhrpNoDuplicateSources), 1u);
  EXPECT_EQ(auditor.report().total_violations(), 1u);
}

TEST(PacketAuditor, FreshlyBuiltOversizedHeaderIsFlagged) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  set_previous_sources(p, {ip("10.1.0.10"), ip("10.3.0.4")});
  auditor.audit_packet(p);  // first observation: must be 8 or 12 octets
  EXPECT_EQ(auditor.report().count(InvariantId::kMhrpHeaderSize), 1u);
}

TEST(PacketAuditor, SenderAndAgentBuiltSizesAreAccepted) {
  PacketAuditor auditor;
  net::Packet sender_built = make_udp_packet();
  core::encapsulate(sender_built, ip("10.4.0.1"),
                    /*builder=*/sender_built.header().src);
  EXPECT_EQ(core::read_mhrp_header(sender_built).encoded_size(), 8u);
  auditor.audit_packet(sender_built);

  net::Packet agent_built = make_mhrp_packet();
  EXPECT_EQ(core::read_mhrp_header(agent_built).encoded_size(), 12u);
  auditor.audit_packet(agent_built);

  EXPECT_TRUE(auditor.report().clean()) << auditor.report().to_string();
}

TEST(PacketAuditor, ListGrowingByTwoInOneHopIsFlagged) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  auditor.audit_packet(p);  // baseline: one entry
  --p.header().ttl;
  set_previous_sources(
      p, {ip("10.1.0.10"), ip("10.3.0.4"), ip("10.3.0.5")});  // +2 entries
  auditor.audit_packet(p);
  EXPECT_EQ(auditor.report().count(InvariantId::kMhrpListGrowth), 1u);
}

TEST(PacketAuditor, RetunnelAppendAndOverflowFlushAreAccepted) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  auditor.audit_packet(p);
  // Re-tunnels append one address per hop (§4.4)...
  std::vector<net::IpAddress> list = {ip("10.1.0.10")};
  for (int hop = 0; hop < 3; ++hop) {
    list.push_back(net::IpAddress::of(10, 3, 0, static_cast<std::uint8_t>(hop)));
    set_previous_sources(p, list);
    --p.header().ttl;
    auditor.audit_packet(p);
  }
  // ...until the overflow flush resets the list to the single new entry.
  set_previous_sources(p, {ip("10.9.0.1")});
  --p.header().ttl;
  auditor.audit_packet(p);
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().to_string();
}

TEST(PacketAuditor, TtlIncreaseIsFlagged) {
  PacketAuditor auditor;
  net::Packet p = make_udp_packet();
  p.header().ttl = 10;
  auditor.audit_packet(p);
  p.header().ttl = 12;
  auditor.audit_packet(p);
  EXPECT_EQ(auditor.report().count(InvariantId::kTtlMonotone), 1u);
}

TEST(PacketAuditor, IcmpCorruptionIsFlagged) {
  PacketAuditor auditor;
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kIcmp);
  h.src = ip("10.1.0.10");
  h.dst = ip("10.2.0.77");
  net::IcmpEcho echo;
  echo.ident = 7;
  echo.sequence = 1;
  net::Packet p(h, net::encode_icmp(echo));
  auditor.audit_packet(p);
  EXPECT_TRUE(auditor.report().clean());

  net::Packet corrupted(h, net::encode_icmp(echo));
  corrupted.payload()[5] ^= 0x01;
  auditor.audit_packet(corrupted);
  EXPECT_EQ(auditor.report().count(InvariantId::kIcmpChecksum), 1u);
}

TEST(PacketAuditor, CoherentCachePassesAudit) {
  core::LocationCache cache(4);
  cache.update(ip("10.2.0.77"), ip("10.4.0.1"));
  cache.update(ip("10.2.0.78"), ip("10.5.0.1"));
  (void)cache.lookup(ip("10.2.0.77"));
  cache.invalidate(ip("10.2.0.78"));
  for (int i = 0; i < 10; ++i) {
    cache.update(net::IpAddress::of(10, 2, 0, static_cast<std::uint8_t>(i)),
                 ip("10.4.0.1"));
  }

  PacketAuditor auditor;
  auditor.watch_cache(cache, "test cache");
  auditor.audit_caches();
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().to_string();
  EXPECT_EQ(auditor.report().cache_audits, 1u);
}

TEST(PacketAuditor, CorruptedCacheIsFlagged) {
  core::LocationCache cache(4);
  cache.update(ip("10.2.0.77"), ip("10.4.0.1"));
  CacheInspector::corrupt_with_orphan_entry_for_test(cache);

  PacketAuditor auditor;
  auditor.watch_cache(cache, "corrupted cache");
  auditor.audit_caches();
  EXPECT_EQ(auditor.report().count(InvariantId::kCacheCoherence), 1u);
  ASSERT_NE(auditor.report().first(InvariantId::kCacheCoherence), nullptr);
  EXPECT_EQ(auditor.report().first(InvariantId::kCacheCoherence)->where,
            "corrupted cache");
}

TEST(PacketAuditor, DisabledInvariantIsNotReported) {
  PacketAuditor auditor;
  auditor.registry().set_enabled(InvariantId::kTtlMonotone, false);
  net::Packet p = make_udp_packet();
  p.header().ttl = 10;
  auditor.audit_packet(p);
  p.header().ttl = 12;
  auditor.audit_packet(p);
  EXPECT_TRUE(auditor.report().clean());
}

TEST(PacketAuditor, EnableOnlyFocusesTheRegistry) {
  InvariantRegistry registry;
  registry.enable_only(InvariantId::kMhrpListGrowth);
  EXPECT_TRUE(registry.enabled(InvariantId::kMhrpListGrowth));
  EXPECT_FALSE(registry.enabled(InvariantId::kTtlMonotone));
  EXPECT_FALSE(registry.enabled(InvariantId::kCacheCoherence));
}

TEST(AuditReport, RendersCountsAndFirstOffender) {
  PacketAuditor auditor;
  net::Packet p = make_mhrp_packet();
  p.payload()[4] ^= 0xFF;
  auditor.audit_packet(p);
  auditor.audit_packet(p);  // same corruption twice

  const std::string rendered = auditor.report().to_string();
  EXPECT_NE(rendered.find("mhrp-header-checksum"), std::string::npos);
  EXPECT_NE(rendered.find("§4.1"), std::string::npos);
  EXPECT_NE(rendered.find("x2"), std::string::npos);
  EXPECT_NE(rendered.find("first offender"), std::string::npos);

  auditor.report().reset();
  EXPECT_TRUE(auditor.report().clean());
  EXPECT_EQ(auditor.report().packets_audited, 0u);
}

TEST(InvariantRegistry, CatalogueCoversEveryInvariant) {
  EXPECT_EQ(InvariantRegistry::all().size(), analysis::kInvariantCount);
  for (const auto& info : InvariantRegistry::all()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.paper_ref.empty());
    EXPECT_FALSE(info.statement.empty());
    EXPECT_EQ(&InvariantRegistry::info(info.id), &info);
  }
}

}  // namespace
}  // namespace mhrp
