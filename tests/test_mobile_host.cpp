// MobileHost state-machine tests: discovery policies, movement detection
// by advertisement loss, registration retransmission, homecoming
// recognition, re-registration on a rebooted agent's query, and the
// optional mobile-host-as-its-own-foreign-agent mode (§2).
#include <gtest/gtest.h>

#include "scenario/metrics.hpp"
#include "scenario/mhrp_world.hpp"

namespace mhrp {
namespace {

using core::MobileHost;
using scenario::MhrpWorld;
using scenario::MhrpWorldOptions;

TEST(MobileHost, StateWalk) {
  MhrpWorld w;
  MobileHost& m = *w.mobiles[0];
  EXPECT_EQ(m.state(), MobileHost::State::kDetached);
  ASSERT_TRUE(w.move_and_register(0, 0));
  EXPECT_EQ(m.state(), MobileHost::State::kForeign);
  EXPECT_EQ(m.current_agent(), w.fa_address(0));
  ASSERT_TRUE(w.move_and_register(0, -1));
  EXPECT_EQ(m.state(), MobileHost::State::kHome);
  m.detach();
  EXPECT_EQ(m.state(), MobileHost::State::kDetached);
}

TEST(MobileHost, WaitsForPeriodicAdvertisementWhenNotSoliciting) {
  MhrpWorldOptions options;
  options.solicit_on_attach = false;
  options.protocol.advertisement_period = sim::seconds(2);
  MhrpWorld w(options);
  MobileHost& m = *w.mobiles[0];

  const sim::Time before = w.topo.sim().now();
  ASSERT_TRUE(w.move_and_register(0, 0));
  const double took = sim::to_seconds(w.topo.sim().now() - before);
  // Must have waited for a periodic advertisement (ordering within the
  // 2 s period is deterministic but nonzero), and sent no solicitation.
  EXPECT_EQ(m.stats().solicitations_sent, 0u);
  EXPECT_GT(took, 0.01);
}

TEST(MobileHost, SolicitationMakesDiscoveryImmediate) {
  MhrpWorldOptions options;
  options.solicit_on_attach = true;
  options.protocol.advertisement_period = sim::seconds(30);  // way too slow to wait
  MhrpWorld w(options);
  const sim::Time before = w.topo.sim().now();
  ASSERT_TRUE(w.move_and_register(0, 0));
  EXPECT_LT(sim::to_seconds(w.topo.sim().now() - before), 1.0);
  EXPECT_GE(w.mobiles[0]->stats().solicitations_sent, 1u);
}

TEST(MobileHost, DetectsAgentLossWhenAdvertisementsStop) {
  MhrpWorldOptions options;
  options.protocol.advertisement_period = sim::millis(500);
  // Passive discovery, so the silent agent is not revived by a
  // solicitation answer.
  options.solicit_on_attach = false;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));
  ASSERT_EQ(w.mobiles[0]->state(), MobileHost::State::kForeign);

  // The FA goes silent; the advertised lifetime (15 s) expires and the
  // host returns to discovery.
  w.fas[0]->stop_advertising();
  w.topo.sim().run_for(sim::seconds(20));
  EXPECT_EQ(w.mobiles[0]->state(), MobileHost::State::kDiscovering);
}

TEST(MobileHost, ReregistersOnRebootQuery) {
  MhrpWorldOptions options;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));
  const auto regs = w.mobiles[0]->stats().registrations_completed;

  // Simulate the §5.2 broadcast from a rebooted FA.
  w.fas[0]->reboot();
  core::RegMessage query{core::RegKind::kReconnectQuery, net::kUnspecified,
                         net::kUnspecified, 0};
  auto bytes = query.encode();
  net::Interface& cell_iface = *w.fa_routers[0]->interfaces()[1];
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = cell_iface.ip();
  h.dst = net::kBroadcast;
  h.ttl = 1;
  w.fa_routers[0]->send_ip_on(
      cell_iface,
      net::Packet(h, net::encode_udp({core::kRegistrationPort,
                                      core::kRegistrationPort},
                                     bytes)),
      net::kBroadcast);
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_GT(w.mobiles[0]->stats().registrations_completed, regs);
  EXPECT_TRUE(w.fas[0]->is_visiting(w.mobile_address(0)));
}

TEST(MobileHost, GracefulDisconnectOrdering) {
  // §3: planned disconnection notifies the home agent first (with the
  // detached marker), then the old foreign agent, then goes dark.
  MhrpWorld w;
  ASSERT_TRUE(w.move_and_register(0, 0));
  w.mobiles[0]->disconnect_gracefully();
  w.topo.sim().run_for(sim::seconds(10));
  auto binding = w.ha->home_binding(w.mobile_address(0));
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(*binding, core::MhrpAgent::kDetachedSentinel);
  EXPECT_FALSE(w.fas[0]->is_visiting(w.mobile_address(0)));
  EXPECT_EQ(w.mobiles[0]->state(), MobileHost::State::kDetached);
}

TEST(MobileHost, RegistrationSurvivesLossyCell) {
  // The cell drops 30% of frames; retransmission still completes the
  // §3 exchange.
  MhrpWorldOptions options;
  options.protocol.seed = 99;
  MhrpWorld w(options);
  util::Rng loss_rng(1234);
  w.cells[0]->set_impairments(net::LinkImpairments{.loss = 0.3}, loss_rng);
  ASSERT_TRUE(w.move_and_register(0, 0, sim::seconds(60)));
  EXPECT_EQ(w.mobiles[0]->state(), MobileHost::State::kForeign);
  // Retransmissions happened (overwhelmingly likely at 30% loss across
  // the multi-message exchange; deterministic under this seed).
  EXPECT_GE(w.mobiles[0]->stats().registration_retransmits, 1u);
}

TEST(MobileHost, OwnCacheOptimizesItsSends) {
  // §2: a mobile host should also be a cache agent. M1 sends to mobile
  // M2; after the first exchange M1 tunnels directly to M2's FA.
  MhrpWorldOptions options;
  options.mobile_hosts = 2;
  options.foreign_sites = 2;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));
  ASSERT_TRUE(w.move_and_register(1, 1));

  bool ok = false;
  w.mobiles[0]->ping(w.mobile_address(1),
                     [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(ok);
  auto cached = w.mobiles[0]->cache().peek(w.mobile_address(1));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, w.fa_address(1));

  const auto interceptions = w.ha->stats().intercepted_home;
  ok = false;
  w.mobiles[0]->ping(w.mobile_address(1),
                     [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.ha->stats().intercepted_home, interceptions);
}

TEST(MobileHost, SelfForeignAgentMode) {
  // §2: "a mobile host may also be able to serve as its own foreign
  // agent, if it is able to obtain a temporary IP address within that
  // foreign network." We give it one on a foreign LAN with no FA at all.
  MhrpWorldOptions options;
  options.foreign_sites = 1;
  MhrpWorld w(options);

  // A bare foreign site with a plain router and NO foreign agent.
  auto& bare_router = w.topo.add_router("BareRouter");
  // Backbone is the first link in the world.
  net::Link* backbone = w.topo.find_link("backbone");
  ASSERT_NE(backbone, nullptr);
  w.topo.connect(bare_router, *backbone,
                 net::IpAddress::parse("10.0.0.99"), 24);
  auto& bare_lan = w.topo.add_link("bareLan", sim::millis(1));
  w.topo.connect(bare_router, bare_lan,
                 net::IpAddress::parse("10.99.0.1"), 24);
  w.topo.install_static_routes();

  core::MobileHost& m = *w.mobiles[0];
  m.attach_to(bare_lan);
  w.topo.sim().run_for(sim::seconds(3));  // no agent will ever answer

  bool registered = false;
  const util::Subscription subscription =
      m.on_registered.add([&registered] { registered = true; });
  // The temporary address was "obtained" in the visited network (the
  // mechanism is outside MHRP's scope, per the paper).
  m.enable_self_agent(net::IpAddress::parse("10.99.0.200"),
                      net::IpAddress::parse("10.99.0.1"));
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(registered);
  auto binding = w.ha->home_binding(w.mobile_address(0));
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(*binding, net::IpAddress::parse("10.99.0.200"));

  // Traffic reaches the host through a tunnel terminating at itself,
  // and the host keeps using only its home address above IP.
  scenario::FlowRecorder recorder(m);
  recorder.set_filter([&](const net::Packet& p) {
    return p.header().dst == w.mobile_address(0);
  });
  bool ok = false;
  w.correspondents[0]->ping(w.mobile_address(0),
                            [&](const node::Host::PingResult& r) {
                              ok = r.replied;
                            });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_GE(m.stats().tunneled_received, 1u);
}

}  // namespace
}  // namespace mhrp
