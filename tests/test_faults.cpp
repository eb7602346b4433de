// The deterministic fault-injection plane: registration backoff policy,
// seeded FaultSchedule generation, scripted FaultPlane events driven
// through the node/link lifecycle API, targeted message-drop windows,
// and byte-identical replay of a 200-router ScaleWorld with chaos on.
#include <gtest/gtest.h>

#include <string>

#include "core/mobile_host.hpp"
#include "faults/fault_plane.hpp"
#include "faults/fault_schedule.hpp"
#include "scenario/audit_hooks.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using scenario::MhrpWorld;
using scenario::MhrpWorldOptions;
using scenario::ScaleWorld;
using scenario::ScaleWorldOptions;
using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// ---- Registration backoff policy ----

core::MobileHostConfig backoff_config(double jitter) {
  core::MobileHostConfig c;
  c.registration_retry = sim::millis(500);
  c.backoff_factor = 2.0;
  c.registration_retry_max = sim::seconds(8);
  c.retry_jitter = jitter;
  return c;
}

TEST(RegistrationBackoff, DoublesUntilTheCap) {
  const core::MobileHostConfig c = backoff_config(0.0);
  util::Rng rng(1);
  EXPECT_EQ(registration_backoff_delay(c, 0, rng), sim::millis(500));
  EXPECT_EQ(registration_backoff_delay(c, 1, rng), sim::seconds(1));
  EXPECT_EQ(registration_backoff_delay(c, 2, rng), sim::seconds(2));
  EXPECT_EQ(registration_backoff_delay(c, 3, rng), sim::seconds(4));
  EXPECT_EQ(registration_backoff_delay(c, 4, rng), sim::seconds(8));
  EXPECT_EQ(registration_backoff_delay(c, 5, rng), sim::seconds(8));
  EXPECT_EQ(registration_backoff_delay(c, 50, rng), sim::seconds(8));
}

TEST(RegistrationBackoff, JitterStaysInsideTheConfiguredBand) {
  const core::MobileHostConfig plain = backoff_config(0.0);
  const core::MobileHostConfig jittered = backoff_config(0.1);
  util::Rng plain_rng(7);
  util::Rng rng(7);
  bool saw_difference = false;
  for (int attempt = 0; attempt <= 10; ++attempt) {
    const sim::Time base =
        registration_backoff_delay(plain, attempt, plain_rng);
    for (int draw = 0; draw < 50; ++draw) {
      const sim::Time d = registration_backoff_delay(jittered, attempt, rng);
      EXPECT_GE(d, static_cast<sim::Time>(
                       0.899 * static_cast<double>(base)));
      EXPECT_LE(d, static_cast<sim::Time>(
                       1.101 * static_cast<double>(base)));
      if (d != base) saw_difference = true;
    }
  }
  EXPECT_TRUE(saw_difference);  // jitter must actually be applied
}

TEST(RegistrationBackoff, GivingUpCountsAsAbandoned) {
  // The home agent's router is crashed before the mobile ever attaches:
  // the foreign agent answers the Connect, the home registration never
  // completes, and after the configured attempts the host abandons the
  // round. The retry schedule is tightened so the give-up lands well
  // inside the advertised agent lifetime (15s), which would otherwise
  // restart discovery first.
  Topology topo;
  auto& backbone = topo.add_link("backbone", sim::millis(2));
  auto& home_router = topo.add_router("HomeRouter");
  topo.connect(home_router, backbone, ip("10.0.0.1"), 24);
  auto& home_lan = topo.add_link("homeLan", sim::millis(1));
  topo.connect(home_router, home_lan, ip("10.1.0.1"), 24);

  auto& fa_router = topo.add_router("FA");
  topo.connect(fa_router, backbone, ip("10.0.0.2"), 24);
  auto& cell = topo.add_link("cell", sim::millis(1));
  net::Interface& cell_iface =
      topo.connect(fa_router, cell, ip("10.2.0.1"), 24);

  core::MobileHostConfig m_config;
  m_config.home_agent = ip("10.1.0.1");
  m_config.registration_retry = sim::millis(200);
  m_config.registration_retry_max = sim::seconds(1);
  auto& m = topo.add_mobile_host("M", ip("10.1.0.77"), 24, m_config);
  topo.install_static_routes();

  core::AgentConfig fa_config;
  fa_config.foreign_agent = true;
  core::MhrpAgent fa(fa_router, fa_config);
  fa.serve_on(cell_iface);
  fa.start_advertising();

  home_router.fail();
  m.attach_to(cell);
  topo.sim().run_for(sim::seconds(12));

  EXPECT_GE(m.stats().registrations_abandoned, 1u);
  EXPECT_EQ(m.stats().registrations_completed, 0u);
  EXPECT_GE(m.stats().registration_retransmits, 3u);
}

// ---- FaultSchedule ----

TEST(FaultSchedule, PoissonDrawsAreSeedDeterministic) {
  auto build = [](std::uint64_t seed) {
    util::Rng rng(seed);
    faults::FaultSchedule s;
    s.append_poisson_link_outages(rng, sim::seconds(120), 0.5,
                                  sim::seconds(2), 0, 8);
    s.append_poisson_node_crashes(rng, sim::seconds(120), 0.2,
                                  sim::seconds(3), 0, 4, false);
    net::LinkImpairments burst;
    burst.loss = 0.4;
    s.append_poisson_impairment_bursts(rng, sim::seconds(120), 0.3,
                                       sim::seconds(1), burst, 0, 8);
    return s;
  };
  const faults::FaultSchedule a = build(42);
  const faults::FaultSchedule b = build(42);
  const faults::FaultSchedule c = build(43);
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

// ---- FaultPlane scripted events ----

TEST(FaultPlane, ScriptedLinkOutageAutoHeals) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();

  faults::FaultPlane plane(topo.sim(), 1);
  plane.add_link(lan);
  faults::FaultSchedule s;
  faults::FaultEvent outage;
  outage.at = sim::seconds(1);
  outage.kind = faults::FaultKind::kLinkFail;
  outage.target = 0;
  outage.duration = sim::seconds(2);
  s.add(outage);
  plane.load(s);

  bool during = true;
  bool after = false;
  (void)topo.sim().after(sim::millis(1500), [&] {
    EXPECT_FALSE(lan.is_up());
    a.ping(ip("10.1.0.11"),
           [&](const node::Host::PingResult& r) { during = r.replied; }, 16,
           sim::seconds(1));
  });
  (void)topo.sim().after(sim::seconds(4), [&] {
    EXPECT_TRUE(lan.is_up());
    a.ping(ip("10.1.0.11"),
           [&](const node::Host::PingResult& r) { after = r.replied; });
  });
  topo.sim().run_for(sim::seconds(8));

  EXPECT_FALSE(during);
  EXPECT_TRUE(after);
  EXPECT_EQ(plane.stats().link_failures, 1u);
  EXPECT_EQ(plane.stats().link_recoveries, 1u);
  EXPECT_GT(lan.frames_dropped_down(), 0u);
}

TEST(FaultPlane, RegistrationDropWindowBlocksThenReleases) {
  MhrpWorldOptions options;
  options.foreign_sites = 1;
  MhrpWorld w(options);

  faults::FaultPlane plane(w.topo.sim(), 1);
  plane.add_node(*w.home_router, w.ha.get());
  faults::FaultEvent window;
  window.at = 0;
  window.kind = faults::FaultKind::kDropRegistration;
  window.target = 0;
  window.duration = sim::seconds(5);
  plane.apply(window);

  // While the window is open, home registrations die at the home router.
  EXPECT_FALSE(w.move_and_register(0, 0, sim::seconds(4)));
  EXPECT_GT(plane.stats().messages_dropped, 0u);

  // Past the window (the plane closes it automatically), a fresh attach
  // registers normally.
  w.topo.sim().run_for(sim::seconds(3));
  EXPECT_TRUE(w.move_and_register(0, 0));
  EXPECT_EQ(plane.stats().drop_windows_opened, 1u);
  EXPECT_EQ(plane.stats().drop_windows_closed, 1u);
}

TEST(FaultPlane, NodeCrashLosesVolatileStateAndRebootRestoresService) {
  MhrpWorldOptions options;
  options.foreign_sites = 1;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));
  ASSERT_TRUE(w.fas[0]->is_visiting(w.mobile_address(0)));

  faults::FaultPlane plane(w.topo.sim(), 1);
  std::size_t fa_node = plane.add_node(*w.fa_routers[0], w.fas[0].get());
  faults::FaultEvent crash;
  crash.at = 0;
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.target = fa_node;
  crash.duration = sim::seconds(2);
  plane.apply(crash);
  EXPECT_FALSE(w.fa_routers[0]->is_up());

  w.topo.sim().run_for(sim::seconds(3));
  EXPECT_TRUE(w.fa_routers[0]->is_up());
  // The §5.2 reboot dropped the visiting list; data-path recovery or
  // re-registration rebuilds it.
  EXPECT_EQ(plane.stats().node_crashes, 1u);
  EXPECT_EQ(plane.stats().node_reboots, 1u);
  ASSERT_TRUE(w.move_and_register(0, 0));
  EXPECT_TRUE(w.fas[0]->is_visiting(w.mobile_address(0)));
}

// ---- Chaos replay determinism ----

ScaleWorldOptions chaos_options() {
  ScaleWorldOptions o;
  o.routers = 200;
  o.foreign_agents = 24;
  o.mobile_hosts = 40;
  o.correspondents = 4;
  o.protocol.seed = 5;
  o.chaos.enabled = true;
  o.chaos.fault_seed = 0xc4a05;
  o.chaos.horizon = sim::seconds(30);
  o.chaos.cell_outages_per_sec = 0.2;
  o.chaos.backbone_outages_per_sec = 0.1;
  o.chaos.mean_outage = sim::seconds(2);
  o.chaos.fa_crashes_per_sec = 0.1;
  o.chaos.mean_downtime = sim::seconds(2);
  o.chaos.loss_bursts_per_sec = 0.2;
  o.chaos.burst_loss = 0.3;
  return o;
}

std::string run_chaos(const ScaleWorldOptions& o, sim::Time duration) {
  ScaleWorld w(o);
  w.start();
  w.run_for(duration);
  return w.metrics_digest();
}

TEST(ChaosReplay, SameSeedAndScheduleReplayByteIdenticallyAt200Routers) {
  const ScaleWorldOptions o = chaos_options();
  const std::string first = run_chaos(o, sim::seconds(30));
  const std::string second = run_chaos(o, sim::seconds(30));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("faultplane"), std::string::npos);
  EXPECT_NE(first.find("recovery"), std::string::npos);
}

TEST(ChaosReplay, FaultsFireAndRecoveryMetricsAccumulate) {
  ScaleWorld w(chaos_options());
  w.start();
  w.run_for(sim::seconds(30));

  ASSERT_NE(w.fault_plane(), nullptr);
  const faults::FaultPlaneStats& s = w.fault_plane()->stats();
  EXPECT_GT(s.link_failures + s.node_crashes + s.impairment_bursts, 0u);
  // Heals scheduled past the run window have not fired yet; they can
  // only trail, never lead.
  EXPECT_LE(s.link_recoveries, s.link_failures);
  EXPECT_LE(s.node_reboots, s.node_crashes);
  EXPECT_GT(s.link_recoveries + s.node_reboots, 0u);
  EXPECT_EQ(w.recovery_times().size(), w.outage_losses().size());
  for (double r : w.recovery_times()) EXPECT_GT(r, 0.0);
  for (double l : w.outage_losses()) EXPECT_GE(l, 0.0);

  // In audit builds the whole chaotic run was under the world's wire
  // audit: no frame crossed a down link and no stale binding outlived
  // the repair window.
  if (scenario::audit::audit_build()) {
    EXPECT_GT(w.auditor.report().frames_audited, 0u);
    EXPECT_TRUE(w.auditor.report().clean()) << w.auditor.report().to_string();
  }
}

}  // namespace
}  // namespace mhrp
