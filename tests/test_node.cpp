// Substrate integration: the plain IP stack (no mobility) — ARP
// resolution, routed forwarding, TTL, ICMP errors, UDP demux, redirects.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// Two LANs joined by one router.
struct TwoLans {
  Topology topo;
  node::Host* a;
  node::Host* b;
  node::Router* r;

  TwoLans() {
    auto& lan1 = topo.add_link("lan1", sim::millis(1));
    auto& lan2 = topo.add_link("lan2", sim::millis(1));
    r = &topo.add_router("R");
    a = &topo.add_host("A");
    b = &topo.add_host("B");
    topo.connect(*r, lan1, ip("10.1.0.1"), 24);
    topo.connect(*r, lan2, ip("10.2.0.1"), 24);
    topo.connect(*a, lan1, ip("10.1.0.10"), 24);
    topo.connect(*b, lan2, ip("10.2.0.10"), 24);
    topo.install_static_routes();
  }
};

TEST(NodeStack, PingAcrossRouter) {
  TwoLans w;
  bool replied = false;
  sim::Time rtt = 0;
  w.a->ping(ip("10.2.0.10"), [&](const node::Host::PingResult& r) {
    replied = r.replied;
    rtt = r.rtt;
  });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  // 2 links each way at 1ms, plus ARP resolution on the first exchange.
  EXPECT_GT(rtt, sim::millis(3));
  EXPECT_LT(rtt, sim::seconds(3));
}

TEST(NodeStack, SecondPingIsFasterThanFirst) {
  // ARP caches warm after the first exchange.
  TwoLans w;
  sim::Time first = 0;
  sim::Time second = 0;
  w.a->ping(ip("10.2.0.10"), [&](const node::Host::PingResult& r) {
    first = r.rtt;
    w.a->ping(ip("10.2.0.10"),
              [&](const node::Host::PingResult& r2) { second = r2.rtt; });
  });
  w.topo.sim().run_for(sim::seconds(20));
  ASSERT_GT(first, 0);
  ASSERT_GT(second, 0);
  EXPECT_LT(second, first);
  EXPECT_EQ(second, sim::millis(4));  // 2 hops × 1ms each way, warm caches
}

TEST(NodeStack, UdpEchoAcrossRouter) {
  TwoLans w;
  w.b->start_udp_echo(7);
  std::vector<std::uint8_t> got;
  w.a->bind_udp(40001, [&](const net::UdpDatagram& d, const net::IpHeader&,
                           net::Interface&) { got = d.data; });
  std::vector<std::uint8_t> payload{1, 2, 3, 4};
  w.a->send_udp(ip("10.2.0.10"), 40001, 7, payload);
  w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(got, payload);
}

TEST(NodeStack, DatagramKeepsItsMetadataAcrossFourRouters) {
  // A - R1 - R2 - R3 - R4 - B: five links. Each hop hands the datagram
  // on by reference and moves it into the next frame; what arrives must
  // be what left, with one hop counted per link crossed and one TTL per
  // router. The first datagram waits in every router's ARP queue, the
  // second finds the caches warm.
  Topology topo;
  std::vector<net::Link*> links;
  for (const char* name : {"l0", "l1", "l2", "l3", "l4"}) {
    links.push_back(&topo.add_link(name, sim::millis(1)));
  }
  auto subnet = [](int k, int host) {
    return net::IpAddress::of(10, static_cast<std::uint8_t>(k + 1), 0,
                              static_cast<std::uint8_t>(host));
  };
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, *links[0], subnet(0, 10), 24);
  int k = 0;
  for (const char* name : {"R1", "R2", "R3", "R4"}) {
    auto& router = topo.add_router(name);
    topo.connect(router, *links[std::size_t(k)], subnet(k, 1), 24);
    topo.connect(router, *links[std::size_t(k) + 1], subnet(k + 1, 2), 24);
    ++k;
  }
  topo.connect(b, *links[4], subnet(4, 10), 24);
  topo.install_static_routes();
  b.bind_udp(7, [](const net::UdpDatagram&, const net::IpHeader&,
                   net::Interface&) {});

  std::vector<net::Packet> left;  // as each datagram left A
  std::vector<net::Packet> arrived;
  a.add_egress_hook([&left](net::Packet& p) { left.push_back(p); });
  auto arrivals = b.on_deliver_hook.add(
      [&arrived](const net::Packet& p) { arrived.push_back(p); });
  const std::vector<std::uint8_t> data{9, 8, 7, 6, 5, 4, 3};
  auto send = [&](std::uint64_t flow) {
    net::IpHeader h;
    h.protocol = net::to_u8(net::IpProto::kUdp);
    h.dst = subnet(4, 10);
    net::Packet p(h, net::encode_udp({40000, 7}, data));
    p.set_flow_id(flow);
    a.send_ip(std::move(p));
  };
  (void)topo.sim().after(sim::millis(5), [&] { send(41); });
  (void)topo.sim().after(sim::seconds(1), [&] { send(42); });
  topo.sim().run_for(sim::seconds(2));

  ASSERT_EQ(left.size(), 2u);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(left[0].created_at(), sim::millis(5));
  EXPECT_EQ(left[1].flow_id(), 42u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(left[i].hop_count(), 0);
    EXPECT_EQ(arrived[i].hop_count(), 5);
    EXPECT_EQ(arrived[i].id(), left[i].id());
    EXPECT_EQ(arrived[i].created_at(), left[i].created_at());
    EXPECT_EQ(arrived[i].flow_id(), left[i].flow_id());
    EXPECT_EQ(arrived[i].payload(), left[i].payload());
    EXPECT_EQ(arrived[i].header().ttl, left[i].header().ttl - 4);
  }
}

TEST(NodeStack, UdpToClosedPortReturnsPortUnreachable) {
  TwoLans w;
  bool unreachable = false;
  w.a->add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                            net::Interface&) {
    const auto* u = std::get_if<net::IcmpUnreachable>(&m);
    if (u != nullptr && u->code == net::UnreachCode::kPortUnreachable) {
      unreachable = true;
    }
    return false;
  });
  std::vector<std::uint8_t> payload{9};
  w.a->send_udp(ip("10.2.0.10"), 40001, 9999, payload);
  w.topo.sim().run_for(sim::seconds(5));
  EXPECT_TRUE(unreachable);
}

TEST(NodeStack, TtlExpiryGeneratesTimeExceeded) {
  TwoLans w;
  bool exceeded = false;
  w.a->add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                            net::Interface&) {
    exceeded = exceeded || std::holds_alternative<net::IcmpTimeExceeded>(m);
    return false;
  });
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.dst = ip("10.2.0.10");
  h.ttl = 1;  // dies at the router
  std::vector<std::uint8_t> data{1};
  net::Packet p(h, net::encode_udp({1, 2}, data));
  w.a->send_ip(std::move(p));
  w.topo.sim().run_for(sim::seconds(5));
  EXPECT_TRUE(exceeded);
  EXPECT_EQ(w.r->counters().dropped_ttl, 1u);
}

TEST(NodeStack, NoRouteGeneratesNetUnreachable) {
  TwoLans w;
  bool unreachable = false;
  w.a->add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                            net::Interface&) {
    const auto* u = std::get_if<net::IcmpUnreachable>(&m);
    unreachable = unreachable || u != nullptr;
    return false;
  });
  std::vector<std::uint8_t> data{1};
  w.a->send_udp(ip("192.168.50.50"), 1, 2, data);  // no such network
  w.topo.sim().run_for(sim::seconds(5));
  EXPECT_TRUE(unreachable);
}

TEST(NodeStack, ArpFailureDropsAndReportsHostUnreachable) {
  TwoLans w;
  bool unreachable = false;
  w.a->add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                            net::Interface&) {
    const auto* u = std::get_if<net::IcmpUnreachable>(&m);
    if (u != nullptr && u->code == net::UnreachCode::kHostUnreachable) {
      unreachable = true;
    }
    return false;
  });
  std::vector<std::uint8_t> data{1};
  w.a->send_udp(ip("10.2.0.99"), 1, 2, data);  // on lan2, but nobody there
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(unreachable);
  EXPECT_GE(w.r->counters().dropped_arp_timeout, 1u);
}

TEST(NodeStack, ProxyArpInterceptsLanTraffic) {
  // A answers for a silent address; frames for it reach A's node.
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  net::Interface& ai = topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();

  a.add_proxy_arp(ai, ip("10.1.0.50"));
  int intercepted = 0;
  a.add_interceptor([&](net::Packet& p, net::Interface&) {
    if (p.header().dst == ip("10.1.0.50")) {
      ++intercepted;
      return node::Intercept::kConsumed;
    }
    return node::Intercept::kContinue;
  });
  std::vector<std::uint8_t> data{1};
  b.send_udp(ip("10.1.0.50"), 1, 2, data);
  topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(intercepted, 1);
}

TEST(NodeStack, InterfaceStateBelongsToTheOwningNode) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  net::Interface& ai = topo.connect(a, lan, ip("10.1.0.10"), 24);
  net::Interface& bi = topo.connect(b, lan, ip("10.1.0.11"), 24);

  a.add_proxy_arp(ai, ip("10.1.0.50"));
  EXPECT_TRUE(a.has_proxy_arp(ai, ip("10.1.0.50")));
  EXPECT_FALSE(a.has_proxy_arp(bi, ip("10.1.0.50")));
  EXPECT_FALSE(b.has_proxy_arp(ai, ip("10.1.0.50")));
  // Another node's interface has no state here to change.
  EXPECT_THROW(b.add_proxy_arp(ai, ip("10.1.0.51")), std::invalid_argument);
  EXPECT_THROW((void)b.arp_table(ai), std::invalid_argument);
}

TEST(NodeStack, ForwardHookMayGrowTheRoutingTable) {
  // A route from lookup() is valid only until its table changes. A
  // forward hook that installs routes, enough to reallocate the router's
  // table, must not disturb the hop being forwarded.
  TwoLans w;
  std::uint32_t next_prefix = 0;
  auto grow = w.r->on_forward_hook.add(
      [&](const net::Packet&, net::Interface&) {
        for (int i = 0; i < 64; ++i) {
          w.r->routing_table().install(
              {net::Prefix(net::IpAddress(0xAC100000u + 4u * next_prefix++),
                           30),
               ip("10.2.0.10"), w.r->interfaces().back().get(), 1,
               routing::RouteKind::kStatic});
        }
      });
  bool replied = false;
  w.a->ping(ip("10.2.0.10"),
            [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  EXPECT_GE(w.r->routing_table().size(), 2u + 128u);
}

TEST(NodeStack, GratuitousArpRewritesNeighborCaches) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  net::Interface& ai = topo.connect(a, lan, ip("10.1.0.10"), 24);
  net::Interface& bi = topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();

  const net::MacAddress fake(0x020000aabbcc);
  a.send_gratuitous_arp(ai, ip("10.1.0.99"), fake);
  topo.sim().run_for(sim::seconds(2));
  auto learned = b.arp_table(bi).lookup(ip("10.1.0.99"));
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, fake);
}

TEST(NodeStack, BroadcastUdpReachesAllLanMembers) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  auto& c = topo.add_host("C");
  net::Interface& ai = topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.connect(c, lan, ip("10.1.0.12"), 24);
  int deliveries = 0;
  auto count = [&](const net::UdpDatagram&, const net::IpHeader&,
                   net::Interface&) { ++deliveries; };
  b.bind_udp(99, count);
  c.bind_udp(99, count);
  std::vector<std::uint8_t> data{7};
  a.send_udp_broadcast(ai, 99, 99, data);
  topo.sim().run_for(sim::seconds(2));
  EXPECT_EQ(deliveries, 2);
}

TEST(NodeStack, RedirectTeachesHostAHostRoute) {
  // Host A's default router R1 forwards back out the same LAN toward R2:
  // A should receive a redirect and install a host route via R2.
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& far_lan = topo.add_link("far", sim::millis(1));
  auto& r1 = topo.add_router("R1");
  auto& r2 = topo.add_router("R2");
  auto& a = topo.add_host("A");
  auto& d = topo.add_host("D");
  topo.connect(r1, lan, ip("10.1.0.1"), 24);
  topo.connect(r2, lan, ip("10.1.0.2"), 24);
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(r2, far_lan, ip("10.9.0.1"), 24);
  topo.connect(d, far_lan, ip("10.9.0.10"), 24);
  topo.install_static_routes();
  // Force A's default via R1 so the detour exists.
  a.routing_table().install({net::Prefix(net::kUnspecified, 0),
                             ip("10.1.0.1"), a.interfaces().front().get(), 1,
                             routing::RouteKind::kStatic});
  r1.set_send_redirects(true);

  net::IpAddress redirected_via;
  a.add_icmp_handler([&](const net::IcmpMessage& m, const net::IpHeader&,
                         net::Interface& in) {
    if (const auto* r = std::get_if<net::IcmpRedirect>(&m)) {
      redirected_via = r->gateway;
      // Install the host route exactly as a host honoring redirects would.
      a.routing_table().install({net::Prefix::host(ip("10.9.0.10")),
                                 r->gateway, &in, 1,
                                 routing::RouteKind::kRedirect});
      return true;
    }
    return false;
  });
  bool replied = false;
  a.ping(ip("10.9.0.10"),
         [&](const node::Host::PingResult& r) { replied = r.replied; });
  topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(replied);
  EXPECT_EQ(redirected_via, ip("10.1.0.2"));
  const auto* route = a.routing_table().find(net::Prefix::host(ip("10.9.0.10")));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->kind, routing::RouteKind::kRedirect);
}

}  // namespace
}  // namespace mhrp
