// Tests for the five §7 comparison protocols. Each reproduces the
// behavioral signature the paper attributes to that protocol: overhead
// bytes, control-message pattern, staleness/recovery behavior.
#include <gtest/gtest.h>

#include "baselines/columbia_ipip.hpp"
#include "baselines/ibm_lsrr.hpp"
#include "baselines/matsushita_iptp.hpp"
#include "baselines/sony_vip.hpp"
#include "baselines/sunshine_postel.hpp"
#include "scenario/metrics.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using namespace baselines;
using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// A small internetwork: a backbone joining `sites` site routers, each
// with a LAN 10.<site+1>.0.0/24 (router at .1).
struct Sites {
  Topology topo;
  std::vector<node::Router*> routers;
  std::vector<net::Link*> lans;
  net::Link* backbone;

  explicit Sites(int sites) {
    backbone = &topo.add_link("backbone", sim::millis(2));
    for (int i = 0; i < sites; ++i) {
      auto& r = topo.add_router(scenario::numbered("R", i));
      topo.connect(r, *backbone, net::IpAddress::of(10, 0, 0, std::uint8_t(i + 1)),
                   24);
      auto& lan =
          topo.add_link("lan" + std::to_string(i), sim::millis(1));
      topo.connect(r, lan, net::IpAddress::of(10, std::uint8_t(i + 1), 0, 1),
                   24);
      routers.push_back(&r);
      lans.push_back(&lan);
    }
  }

  node::Host& add_host(const std::string& name, int site, std::uint8_t last) {
    auto& h = topo.add_host(name);
    topo.connect(h, *lans[std::size_t(site)],
                 net::IpAddress::of(10, std::uint8_t(site + 1), 0, last), 24);
    return h;
  }

  void finish() { topo.install_static_routes(); }

  /// Physically move a (plain) host to another site's LAN: reattach,
  /// flush ARP, and point its default route at the new site's router —
  /// the bookkeeping a real DHCP-era move entails and that MHRP's
  /// MobileHost does for itself.
  void move_host(node::Host& h, int site) {
    net::Interface& iface = *h.interfaces().front();
    lans[std::size_t(site)]->attach(iface);
    h.arp_table(iface).clear();
    h.routing_table().install(
        {net::Prefix(net::kUnspecified, 0),
         net::IpAddress::of(10, std::uint8_t(site + 1), 0, 1), &iface, 1,
         routing::RouteKind::kStatic});
  }

  net::Interface& lan_iface(int site) {
    // The router's second interface is its LAN side.
    return *routers[std::size_t(site)]->interfaces()[1];
  }
};

// ---- Sunshine–Postel ----

struct SpWorld {
  Sites w{4};
  node::Host* db_host;
  node::Host* mobile;
  node::Host* sender;
  std::unique_ptr<SpDatabase> db;
  std::unique_ptr<SpForwarder> fwd1;
  std::unique_ptr<SpForwarder> fwd2;
  std::unique_ptr<SpSender> sp_sender;
  std::unique_ptr<SpMobileNode> sp_mobile;

  SpWorld() {
    db_host = &w.add_host("DB", 0, 10);
    sender = &w.add_host("C", 1, 10);
    // The mobile host's permanent address is from site 3's LAN, but it is
    // physically visiting site 2.
    mobile = &w.topo.add_host("M");
    w.topo.connect(*mobile, *w.lans[2], ip("10.4.0.77"), 24);
    w.finish();
    db = std::make_unique<SpDatabase>(*db_host);
    fwd1 = std::make_unique<SpForwarder>(*w.routers[2], w.lan_iface(2));
    fwd2 = std::make_unique<SpForwarder>(*w.routers[3], w.lan_iface(3));
    sp_sender = std::make_unique<SpSender>(*sender, db_host->primary_address());
    sp_mobile =
        std::make_unique<SpMobileNode>(*mobile, db_host->primary_address());
    fwd1->add_visitor(ip("10.4.0.77"));
    sp_mobile->register_forwarder(w.routers[2]->primary_address());
    w.topo.sim().run_for(sim::seconds(2));
  }
};

TEST(SunshinePostel, QueryThenSourceRoutedDelivery) {
  SpWorld sp;
  int delivered = 0;
  sp.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  sp.sp_sender->send(ip("10.4.0.77"), 7000, {1, 2, 3});
  sp.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sp.db->stats().queries, 1u);
  EXPECT_EQ(sp.fwd1->stats().delivered, 1u);

  // Cached now: a second send must not touch the global database.
  sp.sp_sender->send(ip("10.4.0.77"), 7000, {4});
  sp.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sp.db->stats().queries, 1u);
}

TEST(SunshinePostel, MoveTriggersUnreachableRequeryRetransmit) {
  SpWorld sp;
  int delivered = 0;
  sp.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  sp.sp_sender->send(ip("10.4.0.77"), 7000, {1});
  sp.w.topo.sim().run_for(sim::seconds(5));
  ASSERT_EQ(delivered, 1);

  // M moves to site 3: new forwarder, global database updated, old
  // forwarder forgets it.
  sp.fwd1->remove_visitor(ip("10.4.0.77"));
  sp.w.move_host(*sp.mobile, 3);
  sp.fwd2->add_visitor(ip("10.4.0.77"));
  sp.sp_mobile->register_forwarder(sp.w.routers[3]->primary_address());
  sp.w.topo.sim().run_for(sim::seconds(2));

  // The sender's cached forwarder is stale: IEN 135 recovery kicks in.
  sp.sp_sender->send(ip("10.4.0.77"), 7000, {2});
  sp.w.topo.sim().run_for(sim::seconds(10));
  EXPECT_EQ(delivered, 2);
  EXPECT_GE(sp.fwd1->stats().unreachable_returned, 1u);
  EXPECT_GE(sp.sp_sender->stats().retransmits, 1u);
  EXPECT_EQ(sp.db->stats().queries, 2u);
}

// ---- Columbia IPIP ----

TEST(ColumbiaIpip, EncapsulationAddsTwentyFourBytes) {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = ip("10.1.0.10");
  h.dst = ip("10.2.0.77");
  net::Packet inner(h, std::vector<std::uint8_t>(20, 1));
  auto outer = ipip_encapsulate(inner, ip("10.0.0.1"), ip("10.0.0.2"));
  EXPECT_EQ(outer.wire_size(), inner.wire_size() + 24);
  auto back = ipip_decapsulate(outer);
  EXPECT_EQ(back.header(), inner.header());
  EXPECT_EQ(back.payload(), inner.payload());
}

struct ColumbiaWorld {
  Sites w{3};
  node::Host* mobile;
  node::Host* sender;
  std::unique_ptr<Msr> msr1;  // home MSR, site 1
  std::unique_ptr<Msr> msr2;  // other campus MSR, site 2
  std::unique_ptr<ColumbiaMobileHost> cm;

  ColumbiaWorld() {
    sender = &w.add_host("C", 0, 10);
    mobile = &w.topo.add_host("M");
    // Home address on site 1's LAN, physically at site 2.
    w.topo.connect(*mobile, *w.lans[2], ip("10.2.0.77"), 24);
    w.finish();
    msr1 = std::make_unique<Msr>(*w.routers[1], w.lan_iface(1));
    msr2 = std::make_unique<Msr>(*w.routers[2], w.lan_iface(2));
    msr1->add_campus_host(ip("10.2.0.77"));
    msr1->set_peers({w.routers[2]->primary_address()});
    msr2->set_peers({w.routers[1]->primary_address()});
    msr2->attach_visitor(ip("10.2.0.77"));
  }
};

TEST(ColumbiaIpip, HomeMsrDiscoversServingMsrByMulticastThenTunnels) {
  ColumbiaWorld cw;
  int delivered = 0;
  scenario::FlowRecorder recorder(*cw.mobile);
  cw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  std::vector<std::uint8_t> data{1, 2};
  cw.sender->send_udp(ip("10.2.0.77"), 5555, 7000, data);
  cw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(cw.msr1->stats().queries_multicast, 1u);  // fan-out happened
  EXPECT_EQ(cw.msr2->stats().queries_answered, 1u);
  EXPECT_EQ(cw.msr2->stats().delivered, 1u);
  // IP-within-IP: 24 bytes on the tunneled leg.
  EXPECT_EQ(recorder.total().overhead_bytes.max, 24.0);

  // Second packet: serving MSR cached, no new multicast.
  const auto fanout = cw.msr1->stats().queries_multicast;
  cw.sender->send_udp(ip("10.2.0.77"), 5555, 7000, data);
  cw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(cw.msr1->stats().queries_multicast, fanout);
}

TEST(ColumbiaIpip, OffCampusTunnelsToTemporaryAddressViaHomeMsr) {
  ColumbiaWorld cw;
  // M leaves the campus for site 0's network and obtains a temp address.
  cw.msr2->detach_visitor(ip("10.2.0.77"));
  cw.w.move_host(*cw.mobile, 0);
  ColumbiaMobileHost cm(*cw.mobile, cw.w.routers[1]->primary_address());
  cm.register_offsite(ip("10.1.0.200"));
  cw.msr1->set_offsite_address(ip("10.2.0.77"), ip("10.1.0.200"));
  // The temp address must be reachable: give the site-0 router a host
  // route (stands in for the visited network's normal address assignment).
  cw.w.routers[0]->routing_table().install(
      {net::Prefix::host(ip("10.1.0.200")), net::kUnspecified,
       cw.w.routers[0]->interfaces()[1].get(), 1,
       routing::RouteKind::kHostSpecific});

  int delivered = 0;
  cw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  std::vector<std::uint8_t> data{3};
  cw.sender->send_udp(ip("10.2.0.77"), 5555, 7000, data);
  cw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(cw.msr1->stats().tunnels_built, 1u);
}

// ---- Sony VIP ----

struct VipWorld {
  Sites w{3};
  node::Host* mobile_node;
  node::Host* sender_node;
  std::unique_ptr<VipRouter> vr0, vr1, vr2;  // vr1 = home router of M
  std::unique_ptr<VipHost> m;
  std::unique_ptr<VipHost> c;

  VipWorld() {
    sender_node = &w.add_host("C", 0, 10);
    mobile_node = &w.add_host("M", 1, 77);  // at home initially
    w.finish();
    vr0 = std::make_unique<VipRouter>(*w.routers[0]);
    vr1 = std::make_unique<VipRouter>(*w.routers[1]);
    vr2 = std::make_unique<VipRouter>(*w.routers[2]);
    vr0->set_neighbors({w.routers[1]->primary_address(),
                        w.routers[2]->primary_address()});
    vr1->set_neighbors({w.routers[0]->primary_address(),
                        w.routers[2]->primary_address()});
    vr2->set_neighbors({w.routers[0]->primary_address(),
                        w.routers[1]->primary_address()});
    vr1->add_home_host(ip("10.2.0.77"));
    m = std::make_unique<VipHost>(*mobile_node,
                                  w.routers[1]->primary_address());
    c = std::make_unique<VipHost>(*sender_node,
                                  w.routers[0]->primary_address());
  }
};

TEST(SonyVip, TwentyEightBytesEvenAtHome) {
  VipWorld vw;
  int got = 0;
  vw.m->on_data = [&](net::IpAddress, const std::vector<std::uint8_t>&) {
    ++got;
  };
  scenario::FlowRecorder recorder(*vw.mobile_node);
  vw.c->send(ip("10.2.0.77"), 7000, {1, 2, 3});
  vw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(got, 1);
  // The paper's zero-overhead-at-home contrast: VIP pays 28 bytes always.
  EXPECT_EQ(recorder.total().overhead_bytes.max, 28.0);
}

TEST(SonyVip, MovedHostReachedThroughHomeCompletionAndTempAddress) {
  VipWorld vw;
  // M moves to site 2 and acquires a temporary address there.
  vw.w.move_host(*vw.mobile_node, 2);
  vw.m->move_to_physical(ip("10.3.0.200"));
  vw.w.routers[2]->routing_table().install(
      {net::Prefix::host(ip("10.3.0.200")), net::kUnspecified,
       vw.w.routers[2]->interfaces()[1].get(), 1,
       routing::RouteKind::kHostSpecific});
  vw.w.topo.sim().run_for(sim::seconds(2));

  int got = 0;
  vw.m->on_data = [&](net::IpAddress, const std::vector<std::uint8_t>&) {
    ++got;
  };
  vw.c->send(ip("10.2.0.77"), 7000, {9});
  vw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(got, 1);
  EXPECT_GE(vw.vr1->stats().completed, 1u);  // home router filled in temp
}

TEST(SonyVip, FloodingInvalidatesRouterCaches) {
  VipWorld vw;
  // Seed a stale cache at vr0 by hand, then register a move at home.
  vw.vr0->set_neighbors({vw.w.routers[1]->primary_address()});
  vw.vr1->set_neighbors({vw.w.routers[0]->primary_address(),
                         vw.w.routers[2]->primary_address()});
  // Learn a binding into vr0's opportunistic cache via traffic: simulate
  // by flood from home and check erasure of pre-seeded entries instead.
  vw.m->move_to_physical(ip("10.3.0.200"));
  vw.w.topo.sim().run_for(sim::seconds(2));
  EXPECT_GE(vw.vr1->stats().floods_sent, 1u);
  // Every router saw (and forwarded) the flood exactly once.
  EXPECT_GE(vw.vr0->stats().invalidated + vw.vr2->stats().invalidated, 2u);
}

TEST(SonyVip, MisdeliveryDiscardsReturnsErrorAndRetransmits) {
  VipWorld vw;
  // Another host N sits at site 2 holding the address M used to have.
  auto& n_node = vw.w.add_host("N", 2, 50);
  vw.w.move_host(n_node, 2);  // added post-finish(): give it its routes
  VipHost n(n_node, vw.w.routers[2]->primary_address());
  // C's cache is stale: it maps M's VIP to N's address.
  // Seed by constructing the situation: C learned M@10.3.0.50 earlier.
  // (Direct cache seeding through the received-traffic path.)
  vw.w.move_host(*vw.mobile_node, 2);
  vw.m->move_to_physical(ip("10.3.0.200"));  // register from the new spot
  vw.w.routers[2]->routing_table().install(
      {net::Prefix::host(ip("10.3.0.200")), net::kUnspecified,
       vw.w.routers[2]->interfaces()[1].get(), 1,
       routing::RouteKind::kHostSpecific});
  vw.w.topo.sim().run_for(sim::seconds(2));

  // Hand-poison C's cache via a crafted received packet is intrusive;
  // instead exercise the error path directly: N receives a VIP packet
  // whose vip_dst is not N's VIP.
  int got = 0;
  vw.m->on_data = [&](net::IpAddress, const std::vector<std::uint8_t>&) {
    ++got;
  };
  // Craft: C sends to M's VIP but with a stale physical of N.
  VipHeader vh;
  vh.vip_src = vw.c->vip();
  vh.vip_dst = ip("10.2.0.77");
  auto transport = net::encode_udp({kVipControlPort, 7000}, {{7}});
  net::IpHeader iph;
  iph.protocol = net::to_u8(net::IpProto::kVip);
  iph.src = vw.c->physical();
  iph.dst = ip("10.3.0.50");  // N's address: stale binding
  net::Packet p(iph, vh.encode(transport));
  p.set_base_payload_size(transport.size());
  // Make C's sender state believe it sent this (for retransmission).
  vw.c->send(ip("10.2.0.77"), 7000, {7});  // primes last_sent via home path
  vw.w.topo.sim().run_for(sim::seconds(3));
  const auto got_before_misdelivery = got;
  vw.sender_node->send_ip(std::move(p));
  vw.w.topo.sim().run_for(sim::seconds(5));

  EXPECT_GE(n.stats().misdelivered_discards, 1u);
  EXPECT_GE(vw.c->stats().errors_received, 1u);
  EXPECT_GE(vw.c->stats().retransmits, 1u);
  EXPECT_GT(got, got_before_misdelivery);  // retransmission arrived at M
}

// ---- Matsushita IPTP ----

TEST(MatsushitaIptp, EncapsulationAddsFortyBytes) {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = ip("10.1.0.10");
  h.dst = ip("10.2.0.77");
  net::Packet inner(h, std::vector<std::uint8_t>(20, 1));
  auto outer = iptp_encapsulate(inner, ip("10.0.0.1"), ip("10.0.0.2"),
                                ip("10.2.0.77"), false);
  EXPECT_EQ(outer.wire_size(), inner.wire_size() + 40);
  auto d = iptp_decapsulate(outer);
  EXPECT_EQ(d.inner.header(), inner.header());
  EXPECT_EQ(d.header.mobile_host, ip("10.2.0.77"));
}

struct IptpWorld {
  Sites w{3};
  node::Host* mobile;
  node::Host* sender;
  std::unique_ptr<Pfs> pfs;
  std::unique_ptr<IptpMobileHost> im;

  IptpWorld() {
    sender = &w.add_host("C", 0, 10);
    mobile = &w.topo.add_host("M");
    // Home on site 1, visiting site 2 with a temp address.
    w.topo.connect(*mobile, *w.lans[2], ip("10.2.0.77"), 24);
    w.finish();
    pfs = std::make_unique<Pfs>(*w.routers[1]);
    pfs->add_home_host(ip("10.2.0.77"));
    im = std::make_unique<IptpMobileHost>(*mobile,
                                          w.routers[1]->primary_address());
    im->move_to(ip("10.3.0.200"));
    w.routers[2]->routing_table().install(
        {net::Prefix::host(ip("10.3.0.200")), net::kUnspecified,
         w.routers[2]->interfaces()[1].get(), 1,
         routing::RouteKind::kHostSpecific});
    w.topo.sim().run_for(sim::seconds(2));
  }
};

TEST(MatsushitaIptp, ForwardingModeTrianglesThroughPfs) {
  IptpWorld iw;
  int delivered = 0;
  scenario::FlowRecorder recorder(*iw.mobile);
  recorder.set_filter([](const net::Packet& p) {
    return p.header().dst == ip("10.2.0.77");
  });
  iw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  std::vector<std::uint8_t> data{1};
  iw.sender->send_udp(ip("10.2.0.77"), 5555, 7000, data);
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(iw.pfs->stats().tunnels_built, 1u);
  EXPECT_EQ(iw.im->tunnels_received(), 1u);
  EXPECT_EQ(recorder.total().overhead_bytes.max, 40.0);
}

TEST(MatsushitaIptp, AutonomousModeBypassesPfs) {
  IptpWorld iw;
  int delivered = 0;
  iw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++delivered; });
  IptpAutonomousSender sender(*iw.sender);
  sender.learn_binding(ip("10.2.0.77"), ip("10.3.0.200"));
  sender.send(ip("10.2.0.77"), 7000, {1});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(iw.pfs->stats().tunnels_built, 0u);  // no triangle
}

TEST(MatsushitaIptp, ReturnHomeStopsForwarding) {
  IptpWorld iw;
  iw.im->return_home();
  iw.w.topo.sim().run_for(sim::seconds(2));
  EXPECT_FALSE(iw.pfs->temporary_address(ip("10.2.0.77")).has_value());
}

// ---- IBM LSRR ----

struct IbmWorld {
  Sites w{3};
  node::Host* mobile;
  node::Host* corr;
  std::unique_ptr<BaseStation> bs1;
  std::unique_ptr<BaseStation> bs2;
  std::unique_ptr<IbmMobileHost> im;

  IbmWorld() {
    corr = &w.add_host("C", 0, 10);
    mobile = &w.topo.add_host("M");
    // Home on site 1's numbering, visiting site 2.
    w.topo.connect(*mobile, *w.lans[2], ip("10.2.0.77"), 24);
    w.finish();
    bs1 = std::make_unique<BaseStation>(*w.routers[2], w.lan_iface(2));
    bs2 = std::make_unique<BaseStation>(*w.routers[0], w.lan_iface(0));
    bs1->add_visitor(ip("10.2.0.77"));
    bs2->add_known_mobile(ip("10.2.0.77"));
    im = std::make_unique<IbmMobileHost>(*mobile);
    im->set_base_station(w.routers[2]->primary_address());
  }
};

TEST(IbmLsrr, RecordedRouteEnablesRepliesThroughBaseStation) {
  IbmWorld iw;
  IbmCorrespondent corr(*iw.corr);
  int at_corr = 0;
  int at_mobile = 0;
  iw.corr->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                              net::Interface&) { ++at_corr; });
  iw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++at_mobile; });
  scenario::FlowRecorder recorder(*iw.corr);

  iw.im->send(iw.corr->primary_address(), 7000, {1});
  iw.w.topo.sim().run_for(sim::seconds(5));
  ASSERT_EQ(at_corr, 1);
  ASSERT_TRUE(corr.has_route_to(ip("10.2.0.77")));
  // 8 bytes of LSRR option on the mobile→sender leg too (§7: "8 bytes
  // must also be added to each packet sent FROM a mobile host").
  EXPECT_EQ(recorder.total().overhead_bytes.max, 8.0);

  corr.send(ip("10.2.0.77"), 7000, {2});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(at_mobile, 1);
  EXPECT_GE(iw.bs1->stats().relayed_inbound, 1u);
}

TEST(IbmLsrr, StaleRouteFailsUntilMobileSendsAgain) {
  IbmWorld iw;
  IbmCorrespondent corr(*iw.corr);
  int at_mobile = 0;
  iw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++at_mobile; });
  iw.corr->bind_udp(7000, [](const net::UdpDatagram&, const net::IpHeader&,
                             net::Interface&) {});
  iw.im->send(iw.corr->primary_address(), 7000, {1});
  iw.w.topo.sim().run_for(sim::seconds(5));
  ASSERT_TRUE(corr.has_route_to(ip("10.2.0.77")));

  // M moves to BS2 (site 0) without the correspondent knowing.
  iw.bs1->remove_visitor(ip("10.2.0.77"));
  iw.w.move_host(*iw.mobile, 0);
  iw.bs2->add_visitor(ip("10.2.0.77"));
  iw.im->set_base_station(iw.w.routers[0]->primary_address());

  corr.send(ip("10.2.0.77"), 7000, {2});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(at_mobile, 0);  // stale route: lost
  EXPECT_GE(iw.bs1->stats().unreachable_returned, 1u);

  // "until some application on that host needs to send a normal IP
  // packet to that destination" — M sends, the correspondent relearns.
  iw.im->send(iw.corr->primary_address(), 7000, {3});
  iw.w.topo.sim().run_for(sim::seconds(5));
  corr.send(ip("10.2.0.77"), 7000, {4});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(at_mobile, 1);
}

TEST(IbmLsrr, BrokenStacksIgnoreTheOptionAndRepliesDie) {
  // The paper's §7 criticism: many deployed stacks did not reverse LSRR.
  IbmWorld iw;
  IbmCorrespondent corr(*iw.corr, /*faithful=*/false);
  int at_mobile = 0;
  iw.mobile->bind_udp(7000, [&](const net::UdpDatagram&, const net::IpHeader&,
                                net::Interface&) { ++at_mobile; });
  iw.corr->bind_udp(7000, [](const net::UdpDatagram&, const net::IpHeader&,
                             net::Interface&) {});
  iw.im->send(iw.corr->primary_address(), 7000, {1});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_FALSE(corr.has_route_to(ip("10.2.0.77")));
  corr.send(ip("10.2.0.77"), 7000, {2});
  iw.w.topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(at_mobile, 0);  // reply went to the (empty) home network
}

TEST(IbmLsrr, OptionsForceRoutersOffTheFastPath) {
  IbmWorld iw;
  IbmCorrespondent corr(*iw.corr);
  iw.corr->bind_udp(7000, [](const net::UdpDatagram&, const net::IpHeader&,
                             net::Interface&) {});
  const auto slow_before = iw.w.routers[2]->counters().options_slow_path;
  iw.im->send(iw.corr->primary_address(), 7000, {1});
  iw.w.topo.sim().run_for(sim::seconds(5));
  std::uint64_t slow_total = 0;
  for (auto* r : iw.w.routers) slow_total += r->counters().options_slow_path;
  EXPECT_GT(slow_total, slow_before);
}

}  // namespace
}  // namespace mhrp
