// Home agent replication (§2): two support hosts on the home network
// cooperate on the location database; when the active one dies, the
// backup takes over interception — existing mobile host bindings keep
// working.
#include <gtest/gtest.h>

#include "core/replication.hpp"
#include "faults/fault_plane.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// Home LAN with TWO support-host home agents (not routers), a separate
// home router to the backbone, a foreign site with an FA, and a
// correspondent.
struct ReplicatedWorld {
  Topology topo;
  node::Router* home_router;
  node::Router* fa_router;
  node::Host* ha1_host;
  node::Host* ha2_host;
  node::Host* corr;
  net::Link* home_lan;
  net::Link* cell;
  std::unique_ptr<core::MhrpAgent> ha1;
  std::unique_ptr<core::MhrpAgent> ha2;
  std::unique_ptr<core::HaReplicator> repl1;
  std::unique_ptr<core::HaReplicator> repl2;
  std::unique_ptr<core::MhrpAgent> fa;
  core::MobileHost* m;

  ReplicatedWorld() {
    auto& backbone = topo.add_link("backbone", sim::millis(2));
    home_router = &topo.add_router("HomeRouter");
    fa_router = &topo.add_router("FaRouter");
    topo.connect(*home_router, backbone, ip("10.0.0.1"), 24);
    topo.connect(*fa_router, backbone, ip("10.0.0.2"), 24);

    home_lan = &topo.add_link("homeLan", sim::millis(1));
    topo.connect(*home_router, *home_lan, ip("10.1.0.1"), 24);
    ha1_host = &topo.add_host("HA1");
    ha2_host = &topo.add_host("HA2");
    net::Interface& ha1_iface =
        topo.connect(*ha1_host, *home_lan, ip("10.1.0.2"), 24);
    net::Interface& ha2_iface =
        topo.connect(*ha2_host, *home_lan, ip("10.1.0.3"), 24);

    auto& corr_lan = topo.add_link("corrLan", sim::millis(1));
    topo.connect(*fa_router, corr_lan, ip("10.2.0.1"), 24);
    corr = &topo.add_host("C");
    topo.connect(*corr, corr_lan, ip("10.2.0.10"), 24);

    cell = &topo.add_link("cell", sim::millis(1));
    net::Interface& cell_iface =
        topo.connect(*fa_router, *cell, ip("10.3.0.1"), 24);

    core::MobileHostConfig m_config;
    m_config.home_agent = ip("10.1.0.2");  // the primary replica
    m = &topo.add_mobile_host("M", ip("10.1.0.77"), 24, m_config);

    topo.install_static_routes();

    core::AgentConfig ha_config;
    ha_config.home_agent = true;
    ha1 = std::make_unique<core::MhrpAgent>(*ha1_host, ha_config);
    ha1->serve_on(ha1_iface);
    ha1->provision_mobile_host(ip("10.1.0.77"));
    ha1->start_advertising();
    ha2 = std::make_unique<core::MhrpAgent>(*ha2_host, ha_config);
    ha2->serve_on(ha2_iface);
    ha2->provision_mobile_host(ip("10.1.0.77"));

    repl1 = std::make_unique<core::HaReplicator>(
        *ha1, std::vector<net::IpAddress>{ip("10.1.0.3")}, /*primary=*/true);
    repl2 = std::make_unique<core::HaReplicator>(
        *ha2, std::vector<net::IpAddress>{ip("10.1.0.2")},
        /*primary=*/false);
    repl1->start();
    repl2->start();

    core::AgentConfig fa_config;
    fa_config.foreign_agent = true;
    // A pure foreign agent: otherwise its cache-agent role shortcuts the
    // "cold path via the home network" these tests examine.
    fa_config.cache_agent = false;
    fa = std::make_unique<core::MhrpAgent>(*fa_router, fa_config);
    fa->serve_on(cell_iface);
    fa->start_advertising();
  }

  bool register_m_at_cell() {
    bool registered = false;
    const util::Subscription subscription =
        m->on_registered.add([&registered] { registered = true; });
    m->attach_to(*cell);
    const sim::Time deadline = topo.sim().now() + sim::seconds(30);
    while (!registered && topo.sim().now() < deadline) {
      topo.sim().run_for(sim::millis(100));
    }
    return registered;
  }
};

TEST(Replication, BindingsPropagateToTheBackup) {
  ReplicatedWorld w;
  ASSERT_TRUE(w.register_m_at_cell());
  w.topo.sim().run_for(sim::seconds(2));
  auto primary = w.ha1->home_binding(ip("10.1.0.77"));
  auto backup = w.ha2->home_binding(ip("10.1.0.77"));
  ASSERT_TRUE(primary.has_value());
  ASSERT_TRUE(backup.has_value());
  EXPECT_EQ(*primary, ip("10.3.0.1"));
  EXPECT_EQ(*backup, *primary);
  EXPECT_GE(w.repl1->bindings_replicated(), 1u);
  // The backup stays passive: it neither intercepts nor proxies.
  EXPECT_TRUE(w.ha2->passive());
  EXPECT_FALSE(w.ha2_host->has_proxy_arp(
      *w.ha2_host->interfaces().front(), ip("10.1.0.77")));
}

TEST(Replication, BackupTakesOverInterceptionWhenPrimaryDies) {
  ReplicatedWorld w;
  ASSERT_TRUE(w.register_m_at_cell());
  bool warm = false;
  w.corr->ping(ip("10.1.0.77"),
               [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);
  ASSERT_GE(w.ha1->stats().intercepted_home, 1u);

  // The primary dies completely.
  for (const auto& iface : w.ha1_host->interfaces()) {
    if (iface->attached()) iface->link()->detach(*iface);
  }
  w.topo.sim().run_for(sim::seconds(10));  // heartbeats lapse
  EXPECT_EQ(w.repl2->takeovers(), 1u);
  EXPECT_FALSE(w.ha2->passive());

  // A correspondent with no cache still reaches M: the backup intercepts
  // on the home LAN with its replicated database and tunnels.
  auto& cold = w.topo.add_host("Cold");
  w.topo.connect(cold, *w.topo.find_link("corrLan"), ip("10.2.0.11"), 24);
  cold.routing_table().install({net::Prefix(net::kUnspecified, 0),
                                ip("10.2.0.1"),
                                cold.interfaces().front().get(), 1,
                                routing::RouteKind::kStatic});
  bool replied = false;
  cold.ping(ip("10.1.0.77"),
            [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(15));
  EXPECT_TRUE(replied);
  EXPECT_GE(w.ha2->stats().intercepted_home, 1u);
  EXPECT_GE(w.ha2->stats().tunnels_built, 1u);
}

TEST(Replication, RegistrationsReachTheBackupAfterTakeover) {
  ReplicatedWorld w;
  ASSERT_TRUE(w.register_m_at_cell());
  for (const auto& iface : w.ha1_host->interfaces()) {
    if (iface->attached()) iface->link()->detach(*iface);
  }
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_EQ(w.repl2->takeovers(), 1u);

  // M re-registers (a cell bounce): the HomeRegister is addressed to the
  // dead primary's address, which the backup adopted — the exchange
  // completes against the backup's database.
  const auto regs = w.m->stats().registrations_completed;
  ASSERT_TRUE(w.register_m_at_cell());
  EXPECT_GT(w.m->stats().registrations_completed, regs);
  auto binding = w.ha2->home_binding(ip("10.1.0.77"));
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(*binding, ip("10.3.0.1"));
  EXPECT_GE(w.ha2->stats().registrations, 1u);
}

TEST(Replication, FaultPlaneCrashFailsOverWithinTheHeartbeatTimeout) {
  ReplicatedWorld w;
  ASSERT_TRUE(w.register_m_at_cell());

  faults::FaultPlane plane(w.topo.sim(), 1);
  plane.add_node(*w.ha1_host, w.ha1.get());
  const sim::Time crash_at = w.topo.sim().now() + sim::seconds(1);
  faults::FaultSchedule s;
  faults::FaultEvent crash;
  crash.at = crash_at;
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.target = 0;
  s.add(crash);
  plane.load(s);

  // Timeout is heartbeat_period (500ms) x missed_heartbeats (4) = 2s;
  // allow one extra period of slack for the timer to fire.
  w.topo.sim().run_until(crash_at + sim::millis(2600));
  EXPECT_EQ(plane.stats().node_crashes, 1u);
  EXPECT_EQ(w.repl2->takeovers(), 1u);
  EXPECT_TRUE(w.repl2->is_active());
  EXPECT_FALSE(w.ha2->passive());
}

TEST(Replication, RecoveredPrimaryLeavesExactlyOneActiveReplica) {
  ReplicatedWorld w;
  ASSERT_TRUE(w.register_m_at_cell());

  faults::FaultPlane plane(w.topo.sim(), 1);
  plane.add_node(*w.ha1_host, w.ha1.get());
  faults::FaultSchedule s;
  faults::FaultEvent crash;
  crash.at = w.topo.sim().now() + sim::seconds(1);
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.target = 0;
  crash.duration = sim::seconds(4);
  s.add(crash);
  plane.load(s);

  // Crash at +1s, backup takeover by +3s, reboot at +5s. Both replicas
  // are then briefly active; the non-original one must step down as soon
  // as it hears the original primary's active heartbeat.
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_EQ(w.repl2->takeovers(), 1u);
  EXPECT_GE(w.repl2->stepdowns(), 1u);
  EXPECT_TRUE(w.repl1->is_active());
  EXPECT_FALSE(w.repl2->is_active());
  EXPECT_FALSE(w.ha1->passive());
  EXPECT_TRUE(w.ha2->passive());

  // Exactly one interceptor: a cold correspondent still reaches M.
  bool replied = false;
  w.corr->ping(ip("10.1.0.77"),
               [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(15));
  EXPECT_TRUE(replied);
}

}  // namespace
}  // namespace mhrp
