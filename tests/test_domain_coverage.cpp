// §3 domain-coverage deployment: ONE home agent serves a whole
// DV-routed domain. The mobile host's home subnet has no agent of its
// own; while the host roams, the agent injects a /32 that pulls the
// domain's traffic for that host to itself for interception and
// tunneling; on return, the route is withdrawn and plain subnet routing
// resumes.
#include <gtest/gtest.h>

#include "core/domain_coverage.hpp"
#include "core/registration.hpp"
#include "core/replication.hpp"
#include "net/udp.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// Domain: R1 (agent) — R2 — R3, DV-routed.
//   R1: agentLan 10.1/24          (the home agent lives here)
//   R2: corrLan  10.2/24          (the correspondent)
//   R3: homeLan  10.3/24 + cell 10.4/24 (the mobile host's home subnet,
//       with NO agent, and a foreign-agent cell)
struct DomainWorld {
  Topology topo;
  node::Router* r1;
  node::Router* r2;
  node::Router* r3;
  node::Host* corr;
  node::Host* mobile;  // a plain host standing in for the mobile side
  net::Link* home_lan;
  net::Link* cell;
  std::unique_ptr<routing::dv::DvProcess> dv1, dv2, dv3;
  std::unique_ptr<core::MhrpAgent> ha;
  std::unique_ptr<core::MhrpAgent> fa;
  std::unique_ptr<core::DomainCoverage> coverage;

  static constexpr const char* kMobile = "10.3.0.77";

  DomainWorld() {
    auto& lan_a = topo.add_link("lanA", sim::millis(1));
    auto& lan_b = topo.add_link("lanB", sim::millis(1));
    r1 = &topo.add_router("R1");
    r2 = &topo.add_router("R2");
    r3 = &topo.add_router("R3");
    topo.connect(*r1, lan_a, ip("10.0.1.1"), 24);
    topo.connect(*r2, lan_a, ip("10.0.1.2"), 24);
    topo.connect(*r2, lan_b, ip("10.0.2.1"), 24);
    topo.connect(*r3, lan_b, ip("10.0.2.2"), 24);

    auto& agent_lan = topo.add_link("agentLan", sim::millis(1));
    topo.connect(*r1, agent_lan, ip("10.1.0.1"), 24);
    auto& corr_lan = topo.add_link("corrLan", sim::millis(1));
    topo.connect(*r2, corr_lan, ip("10.2.0.1"), 24);
    home_lan = &topo.add_link("homeLan", sim::millis(1));
    topo.connect(*r3, *home_lan, ip("10.3.0.1"), 24);
    cell = &topo.add_link("cell", sim::millis(1));
    net::Interface& cell_iface =
        topo.connect(*r3, *cell, ip("10.4.0.1"), 24);

    corr = &topo.add_host("C");
    topo.connect(*corr, corr_lan, ip("10.2.0.10"), 24);
    mobile = &topo.add_host("M");
    topo.connect(*mobile, *home_lan, ip(kMobile), 24);
    topo.install_static_routes();  // host default routes
    // The routers learn everything through DV instead of static tables.
    for (auto* r : {r1, r2, r3}) {
      r->routing_table().remove_kind(routing::RouteKind::kStatic);
    }
    routing::dv::DvOptions dv_config;
    dv_config.update_period = sim::seconds(1);
    dv1 = std::make_unique<routing::dv::DvProcess>(*r1, dv_config, 1);
    dv2 = std::make_unique<routing::dv::DvProcess>(*r2, dv_config, 2);
    dv3 = std::make_unique<routing::dv::DvProcess>(*r3, dv_config, 3);
    dv1->start();
    dv2->start();
    dv3->start();

    core::AgentConfig ha_config;
    ha_config.home_agent = true;
    ha = std::make_unique<core::MhrpAgent>(*r1, ha_config);
    ha->provision_mobile_host(ip(kMobile));  // not on any served subnet
    coverage = std::make_unique<core::DomainCoverage>(*ha, *dv1);

    core::AgentConfig fa_config;
    fa_config.foreign_agent = true;
    fa = std::make_unique<core::MhrpAgent>(*r3, fa_config);
    fa->serve_on(cell_iface);

    topo.sim().run_for(sim::seconds(10));  // DV convergence
  }

  // Registration messages as the mobile side would send them.
  void register_binding(net::IpAddress fa_addr, std::uint32_t seq) {
    core::RegMessage m{core::RegKind::kHomeRegister, ip(kMobile), fa_addr,
                       seq};
    auto bytes = m.encode();
    mobile->send_udp(ip("10.1.0.1"), core::kRegistrationPort,
                     core::kRegistrationPort, bytes);
    topo.sim().run_for(sim::seconds(15));  // include DV propagation
  }
};

TEST(DomainCoverage, AtHomePlainRoutingNoHostRoute) {
  DomainWorld w;
  bool ok = false;
  w.corr->ping(ip(DomainWorld::kMobile),
               [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.ha->stats().intercepted_home, 0u);
  EXPECT_EQ(w.r2->routing_table().find(
                net::Prefix::host(ip(DomainWorld::kMobile))),
            nullptr);
}

TEST(DomainCoverage, AwayHostRouteDrawsTrafficToAgentForTunneling) {
  DomainWorld w;
  // The host "moves" to the cell: attach there, register with the FA by
  // message, and register the binding with the domain home agent.
  w.cell->attach(*w.mobile->interfaces().front());
  w.mobile->arp_table(*w.mobile->interfaces().front()).clear();
  w.mobile->routing_table().remove(
      net::Prefix(ip(DomainWorld::kMobile), 24));
  w.mobile->routing_table().install({net::Prefix(net::kUnspecified, 0),
                                     ip("10.4.0.1"),
                                     w.mobile->interfaces().front().get(), 1,
                                     routing::RouteKind::kStatic});
  core::RegMessage connect{core::RegKind::kConnect,
                           ip(DomainWorld::kMobile), net::kUnspecified, 1};
  auto bytes = connect.encode();
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = ip(DomainWorld::kMobile);
  h.dst = ip("10.4.0.1");
  w.mobile->send_ip_on(
      *w.mobile->interfaces().front().get(),
      net::Packet(h, net::encode_udp({core::kRegistrationPort,
                                      core::kRegistrationPort},
                                     bytes)),
      ip("10.4.0.1"));
  w.topo.sim().run_for(sim::seconds(2));
  ASSERT_TRUE(w.fa->is_visiting(ip(DomainWorld::kMobile)));
  w.register_binding(ip("10.4.0.1"), 1);

  EXPECT_EQ(w.coverage->routes_advertised(), 1u);
  // The /32 propagated through the domain.
  const auto* at_r2 = w.r2->routing_table().find(
      net::Prefix::host(ip(DomainWorld::kMobile)));
  ASSERT_NE(at_r2, nullptr);
  EXPECT_EQ(at_r2->kind, routing::RouteKind::kHostSpecific);

  // Correspondent traffic is pulled to R1, intercepted, and tunneled.
  bool ok = false;
  w.corr->ping(ip(DomainWorld::kMobile),
               [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_GE(w.ha->stats().intercepted_home, 1u);
  EXPECT_GE(w.ha->stats().tunnels_built, 1u);
  EXPECT_GE(w.fa->stats().delivered_to_visitor, 1u);
}

TEST(DomainCoverage, ReturnHomeWithdrawsTheRoute) {
  DomainWorld w;
  // Away…
  w.register_binding(ip("10.4.0.1"), 1);
  ASSERT_NE(w.r2->routing_table().find(
                net::Prefix::host(ip(DomainWorld::kMobile))),
            nullptr);
  // …and home again (FA address zero, §3).
  w.register_binding(net::kUnspecified, 2);
  EXPECT_EQ(w.coverage->routes_withdrawn(), 1u);
  w.topo.sim().run_for(sim::seconds(20));
  EXPECT_EQ(w.r2->routing_table().find(
                net::Prefix::host(ip(DomainWorld::kMobile))),
            nullptr);

  // (The away-phase ack was tunneled; what matters is that no NEW
  // tunnels are built once the host is home.)
  const auto tunnels_before = w.ha->stats().tunnels_built;
  bool ok = false;
  w.corr->ping(ip(DomainWorld::kMobile),
               [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.ha->stats().tunnels_built, tunnels_before);
}

TEST(DomainCoverage, SharesItsHomeAgentWithAReplicator) {
  // Paper §2 lets roles combine on one node: the same home agent feeds
  // §3 domain coverage and §2 replication. Each observer must see every
  // binding change, and destroying one must leave the other attached.
  DomainWorld w;
  auto replicator = std::make_unique<core::HaReplicator>(
      *w.ha, std::vector<net::IpAddress>{ip("10.2.0.10")},
      /*is_primary=*/true);
  w.register_binding(ip("10.4.0.1"), 1);
  EXPECT_EQ(w.coverage->routes_advertised(), 1u);
  EXPECT_EQ(replicator->bindings_replicated(), 1u);

  w.coverage.reset();
  w.register_binding(net::kUnspecified, 2);
  EXPECT_EQ(replicator->bindings_replicated(), 2u);

  w.coverage = std::make_unique<core::DomainCoverage>(*w.ha, *w.dv1);
  replicator.reset();
  w.register_binding(ip("10.4.0.1"), 3);
  EXPECT_EQ(w.coverage->routes_advertised(), 1u);
  EXPECT_EQ(w.ha->on_binding_changed.size(), 1u);
}

}  // namespace
}  // namespace mhrp
