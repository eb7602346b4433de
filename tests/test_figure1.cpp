// Integration tests replaying the paper's §6 walkthroughs on the Figure 1
// internetwork.
#include <gtest/gtest.h>

#include "scenario/figure1.hpp"
#include "scenario/metrics.hpp"

namespace mhrp {
namespace {

using scenario::Figure1;
using scenario::Figure1Options;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

TEST(Figure1, MobileHostRegistersAtForeignNetworkD) {
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  EXPECT_EQ(w.m->state(), core::MobileHost::State::kForeign);
  EXPECT_EQ(w.m->current_agent(), ip("10.4.0.1"));
  EXPECT_TRUE(w.fa_r4->is_visiting(w.m_address()));
  // The home agent's database points at R4's cell address.
  auto binding = w.ha->home_binding(w.m_address());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(*binding, ip("10.4.0.1"));
}

TEST(Figure1, InitialPacketInterceptedTunneledAndDelivered) {
  // §6.1: S pings M; the packet routes to B, R2 intercepts, tunnels to
  // R4, R4 delivers; the echo reply comes back; R2 sends S a location
  // update so S caches M's location.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  bool replied = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  EXPECT_GE(w.ha->stats().intercepted_home, 1u);
  EXPECT_GE(w.ha->stats().tunnels_built, 1u);
  EXPECT_GE(w.fa_r4->stats().delivered_to_visitor, 1u);
  // §6.1: "R2 also returns a location update message to S."
  EXPECT_GE(w.ha->stats().updates_sent, 1u);
  auto cached = w.agent_s->cache().peek(w.m_address());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, ip("10.4.0.1"));
}

TEST(Figure1, SubsequentPacketsTunnelDirectlyFromSender) {
  // §6.2: once S caches M's location it builds the MHRP header itself
  // (8 octets) and the home agent is no longer involved.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  bool first = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { first = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(first);

  const auto interceptions_before = w.ha->stats().intercepted_home;
  const auto sender_tunnels_before = w.agent_s->stats().tunnels_built;
  bool second = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { second = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(second);
  EXPECT_EQ(w.ha->stats().intercepted_home, interceptions_before);
  EXPECT_GT(w.agent_s->stats().tunnels_built, sender_tunnels_before);
}

TEST(Figure1, SenderBuiltHeaderAddsEightBytes) {
  // §4.1/§7: sender-built MHRP header = 8 octets; the first (HA-built)
  // tunnel = 12.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  scenario::FlowRecorder recorder(*w.m);

  bool done = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult&) { done = true; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(done);
  // First packet: built by the home agent → 12 bytes of overhead.
  EXPECT_EQ(recorder.total().overhead_bytes.max, 12.0);

  done = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult&) { done = true; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(done);
  // Second packet: sender-built → 8 bytes.
  EXPECT_EQ(recorder.total().overhead_bytes.min, 8.0);
}

TEST(Figure1, MoveToNewForeignAgentHealsThroughForwardingPointer) {
  // §6.3 first case: M moves R4→R5; R4 keeps a forwarding pointer; S's
  // next (stale) packet is re-tunneled by R4 to R5 and still arrives;
  // R5 then updates S directly.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);
  ASSERT_EQ(*w.agent_s->cache().peek(w.m_address()), ip("10.4.0.1"));

  ASSERT_TRUE(w.register_at_e());
  EXPECT_FALSE(w.fa_r4->is_visiting(w.m_address()));
  EXPECT_TRUE(w.fa_r5->is_visiting(w.m_address()));
  // §2: the old FA cached the new location as a forwarding pointer.
  ASSERT_TRUE(w.fa_r4->cache().peek(w.m_address()).has_value());
  EXPECT_EQ(*w.fa_r4->cache().peek(w.m_address()), ip("10.5.0.1"));

  const auto retunnels_before = w.fa_r4->stats().retunnels;
  bool after_move = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { after_move = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(after_move);
  EXPECT_GT(w.fa_r4->stats().retunnels, retunnels_before);
  // S's stale entry was repaired to point at R5.
  EXPECT_EQ(*w.agent_s->cache().peek(w.m_address()), ip("10.5.0.1"));
}

TEST(Figure1, MoveWithoutForwardingPointerFallsBackToHomeAgent) {
  // §6.3 second case: R4 has no cached location → it tunnels to M's home
  // address; the home agent re-tunnels to R5 and updates both S and R4.
  Figure1Options options;
  options.protocol.forwarding_pointers = false;
  Figure1 w(options);
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);

  ASSERT_TRUE(w.register_at_e());
  // With forwarding pointers disabled the Disconnect leaves no pointer;
  // R4 may still learn M's new location incidentally (a location update
  // drawn by its own routed Disconnect-ack). Model the paper's stated
  // condition — "that cache entry has subsequently been reused for some
  // other mobile host" — by dropping whatever R4 knows.
  w.fa_r4->cache().invalidate(w.m_address());

  const auto home_tunnels_before = w.fa_r4->stats().tunneled_to_home;
  bool after_move = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { after_move = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(after_move);
  EXPECT_GT(w.fa_r4->stats().tunneled_to_home, home_tunnels_before);
  // Both S and R4 now point directly at R5.
  EXPECT_EQ(*w.agent_s->cache().peek(w.m_address()), ip("10.5.0.1"));
  EXPECT_EQ(*w.fa_r4->cache().peek(w.m_address()), ip("10.5.0.1"));
}

TEST(Figure1, ReturningHomeDeletesCachesAndRestoresPlainRouting) {
  // §6.3 third case: M returns home, registers FA address zero; S's next
  // packet takes the stale tunnel, reaches M at home, and M tells S to
  // delete its entry; packets after that use plain IP with zero overhead.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);

  ASSERT_TRUE(w.register_at_home());
  EXPECT_EQ(w.m->state(), core::MobileHost::State::kHome);
  auto binding = w.ha->home_binding(w.m_address());
  ASSERT_TRUE(binding.has_value());
  EXPECT_TRUE(binding->is_unspecified());  // "foreign agent address zero"
  // §6.3: returning home leaves no forwarding pointer at R4.
  EXPECT_FALSE(w.fa_r4->cache().peek(w.m_address()).has_value());

  bool after = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { after = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(after);
  // M's location update told S to delete its entry.
  EXPECT_FALSE(w.agent_s->cache().peek(w.m_address()).has_value());

  // And the next packet is plain IP end to end: no MHRP overhead at all.
  scenario::FlowRecorder recorder(*w.m);
  bool plain = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { plain = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(plain);
  EXPECT_EQ(recorder.total().overhead_bytes.max, 0.0);
}

TEST(Figure1, RouterCacheAgentTunnelsForNonMhrpHosts) {
  // §6.2: a LAN of hosts that do not implement MHRP is covered by a cache
  // agent in their first-hop router (R1): it examines forwarded packets
  // and tunnels those destined to cached mobile hosts.
  Figure1Options options;
  options.s_is_cache_agent = false;  // S is a plain host
  Figure1 w(options);
  ASSERT_TRUE(w.register_at_d());

  bool first = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { first = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(first);
  // R1 saw the location update R2 sent toward S and cached it (§4.3).
  ASSERT_TRUE(w.agent_r1->cache().peek(w.m_address()).has_value());

  const auto r1_tunnels_before = w.agent_r1->stats().tunnels_built;
  const auto interceptions_before = w.ha->stats().intercepted_home;
  bool second = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { second = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(second);
  EXPECT_GT(w.agent_r1->stats().tunnels_built, r1_tunnels_before);
  EXPECT_EQ(w.ha->stats().intercepted_home, interceptions_before);
}

TEST(Figure1, MobileToStationaryTrafficIsPlainIp) {
  // M sends to S: normal IP routing, no tunneling anywhere.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  scenario::FlowRecorder recorder(*w.s);
  bool replied = false;
  static_cast<node::Host*>(w.m)->ping(
      ip("10.1.0.10"),
      [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  EXPECT_EQ(recorder.total().overhead_bytes.max, 0.0);
}

TEST(Figure1, HomeAgentProxyArpsForAwayHostOnHomeLan) {
  // A host on network B itself pings M while M is away: the HA's proxy
  // ARP captures the frames and the tunnel delivers them.
  Figure1 w;
  auto& local = w.topo.add_host("L");
  w.topo.connect(local, *w.net_b, ip("10.2.0.50"), 24);
  local.routing_table().install({net::Prefix(net::kUnspecified, 0),
                                 ip("10.2.0.1"),
                                 local.interfaces().front().get(), 1,
                                 routing::RouteKind::kStatic});
  ASSERT_TRUE(w.register_at_d());
  bool replied = false;
  local.ping(w.m_address(),
             [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  EXPECT_GE(w.ha->stats().intercepted_home, 1u);
}

TEST(Figure1, GracefulDisconnectYieldsHostUnreachable) {
  // §3 planned disconnection: after M goes offline, the HA answers for it
  // with host unreachable instead of black-holing.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  w.m->disconnect_gracefully();
  w.topo.sim().run_for(sim::seconds(10));
  auto binding = w.ha->home_binding(w.m_address());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(*binding, core::MhrpAgent::kDetachedSentinel);

  bool unreachable = false;
  w.s->add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                            net::Interface&) {
    unreachable =
        unreachable || std::holds_alternative<net::IcmpUnreachable>(m);
    return false;
  });
  std::vector<std::uint8_t> data{1};
  w.s->send_udp(w.m_address(), 1, 2, data);
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(unreachable);
}

}  // namespace
}  // namespace mhrp
