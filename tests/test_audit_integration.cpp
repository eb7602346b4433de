// End-to-end audit runs: the paper's walkthrough scenarios execute under
// the full wire-invariant auditor and must produce zero violations, with
// real tunneled traffic observed at every hop; ScaleWorld's binding oracle
// flags a stale home-agent tunnel; only one-shard ScaleWorlds attach the
// auditor; and a dirty report aborts the audit-build teardown check.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/packet_auditor.hpp"
#include "core/encapsulation.hpp"
#include "scenario/audit_hooks.hpp"
#include "scenario/figure1.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/workload.hpp"

namespace mhrp {
namespace {

using analysis::PacketAuditor;
using scenario::Figure1;
using scenario::MhrpWorld;
using scenario::MhrpWorldOptions;

bool ping_once(Figure1& w) {
  bool replied = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { replied = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  return replied;
}

TEST(AuditIntegration, Figure1WalkthroughsRunCleanUnderFullAudit) {
  Figure1 w;
  PacketAuditor auditor;
  scenario::audit::attach(auditor, w);

  // §6.1: first packet — home-agent interception and a 12-octet tunnel.
  ASSERT_TRUE(w.register_at_d());
  EXPECT_TRUE(ping_once(w));
  // §6.2: S now builds the 8-octet header itself.
  EXPECT_TRUE(ping_once(w));
  // §6.3: movement — R4 keeps a forwarding pointer and re-tunnels (the
  // list-growth path), then R5 repairs the stale caches.
  ASSERT_TRUE(w.register_at_e());
  EXPECT_TRUE(ping_once(w));
  EXPECT_TRUE(ping_once(w));
  // §6.3 return home: cache entries are deleted, traffic flows plainly.
  ASSERT_TRUE(w.register_at_home());
  EXPECT_TRUE(ping_once(w));

  auditor.audit_caches(w.topo.sim().now());

  const analysis::AuditReport& report = auditor.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.frames_audited, 0u);
  EXPECT_GT(report.packets_audited, 0u);
  EXPECT_GT(report.mhrp_packets_audited, 0u);  // tunnels really were seen
  EXPECT_GT(report.cache_audits, 0u);
}

TEST(AuditIntegration, RoamingWorldWithOverflowRunsCleanUnderFullAudit) {
  // A tighter list bound plus continuous movement exercises re-tunnel
  // chains and the §4.4 overflow flush while the auditor watches.
  MhrpWorldOptions options;
  options.foreign_sites = 4;
  options.protocol.max_list_length = 2;
  MhrpWorld w(options);
  PacketAuditor auditor;
  scenario::audit::attach(auditor, w);

  ASSERT_TRUE(w.move_and_register(0, 0));
  scenario::CbrFlow flow(*w.correspondents[0], w.mobile_address(0),
                         /*dst_port=*/7777, /*payload_size=*/64,
                         sim::millis(50));
  flow.start();
  for (int site = 1; site < 8; ++site) {
    w.topo.sim().run_for(sim::millis(400));
    ASSERT_TRUE(w.move_and_register(0, site % options.foreign_sites));
  }
  w.topo.sim().run_for(sim::seconds(2));
  flow.stop();
  auditor.audit_caches(w.topo.sim().now());

  const analysis::AuditReport& report = auditor.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.mhrp_packets_audited, 0u);
}

TEST(AuditIntegration, AuditBuildAutoAttachesGlobalAuditor) {
  // In a -DMHRP_AUDIT=ON build every one-shard world attaches its own
  // auditor to all its links and agent caches; it must agree that the
  // traffic is clean. In other builds the world's auditor watches nothing.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  EXPECT_TRUE(ping_once(w));
  w.auditor.audit_caches(w.topo.sim().now());

  const analysis::AuditReport& report = w.auditor.report();
  if (scenario::audit::audit_build()) {
    EXPECT_GT(report.frames_audited, 0u);
    EXPECT_GT(report.cache_audits, 0u);
    EXPECT_TRUE(report.clean()) << report.to_string();
  } else {
    EXPECT_EQ(report.frames_audited, 0u);
    EXPECT_EQ(report.cache_audits, 0u);
  }
}

TEST(ScaleWorldAudit, StaleBindingOracleFlagsAnOutdatedTunnel) {
  // Chaos with every rate zero installs the oracle and injects nothing;
  // the dwell is so long that every binding is older than the oracle's
  // 5 s repair window by the time the tunnels are audited.
  scenario::ScaleWorldOptions options;
  options.mean_dwell = sim::seconds(100000);
  options.chaos.enabled = true;
  scenario::ScaleWorld w(options);
  w.start();
  w.run_for(sim::seconds(20));

  const net::IpAddress mobile = w.mobile_address(0);
  const std::optional<net::IpAddress> current = w.ha->home_binding(mobile);
  ASSERT_TRUE(current.has_value());
  const auto is_current = [&](const auto& fa) {
    return fa->agent_address() == *current;
  };
  ASSERT_TRUE(std::any_of(w.fas.begin(), w.fas.end(), is_current));
  const auto other = std::find_if_not(w.fas.begin(), w.fas.end(), is_current);
  ASSERT_NE(other, w.fas.end());

  // A home-agent tunnel for `mobile` toward `fa`, audited as if on the wire.
  const auto audit_tunnel = [&](net::IpAddress fa) {
    net::IpHeader h;
    h.protocol = net::to_u8(net::IpProto::kUdp);
    h.src = w.correspondents[0]->primary_address();
    h.dst = mobile;
    net::Packet p(h, std::vector<std::uint8_t>(8, 0x42));
    core::encapsulate(p, fa, w.ha->agent_address());
    w.auditor.audit_packet(p, w.topo.sim().now());
  };
  audit_tunnel(*current);
  EXPECT_TRUE(w.auditor.report().clean()) << w.auditor.report().to_string();
  audit_tunnel((*other)->agent_address());
  EXPECT_EQ(w.auditor.report().count(
                analysis::InvariantId::kStaleBindingForwarding),
            1u);
  EXPECT_EQ(w.auditor.report().total_violations(), 1u);

  // The violation was planted; an audit build's teardown check would
  // abort on it.
  w.auditor.report().reset();
}

TEST(ScaleWorldAudit, AuditBuildAttachesOnlyOneShardWorlds) {
  // One shard runs inline on one thread, so its world keeps the
  // single-threaded auditor; two shards transmit from two workers and
  // skip it (DESIGN.md §13.4).
  for (const int shards : {1, 2}) {
    scenario::ScaleWorldOptions options;
    options.routers = 36;
    options.foreign_agents = 12;
    options.mobile_hosts = 24;
    options.movement_regions = 4;
    options.shards = shards;
    scenario::ScaleWorld w(options);
    w.start();
    (void)w.run_for(sim::seconds(5));
    const bool attached = scenario::audit::audit_build() && shards == 1;
    EXPECT_EQ(w.auditor.report().frames_audited > 0, attached)
        << shards << " shards";
  }
}

TEST(AuditDeathTest, DirtyReportIsPrintedAndAborts) {
  scenario::audit::require_clean(analysis::AuditReport{});  // returns

  PacketAuditor auditor;
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = net::IpAddress::parse("10.1.0.10");
  h.dst = net::IpAddress::parse("10.2.0.77");
  net::Packet p(h, std::vector<std::uint8_t>(8, 0x42));
  core::encapsulate(p, net::IpAddress::parse("10.4.0.1"),
                    net::IpAddress::parse("10.2.0.1"));
  p.payload()[4] ^= 0xFF;  // corrupt the mobile-host field under the checksum
  auditor.audit_packet(p);
  ASSERT_EQ(auditor.report().total_violations(), 1u);

  EXPECT_DEATH(scenario::audit::require_clean(auditor.report()),
               "mhrp-header-checksum");
}

}  // namespace
}  // namespace mhrp
