// Replay digests pinned across commits. test_replay runs each world twice
// in one build and compares the two digests, so it cannot see behaviour
// change between commits. This test hashes the digest of every reference
// world with util::crc32 and compares it with a constant recorded from an
// earlier build: a refactor that means to keep behaviour keeps every
// constant. The worlds cover each branch of MHRP installation — default
// and non-default Figure 1 options, MhrpWorld with and without DV and a
// durable store, ScaleWorld serial and at 2 and 4 shards, and a tree with
// DV, a store and chaos, serial and at 2 shards. A change that alters
// behaviour on purpose updates the constants; the failure message prints
// the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "scenario/figure1.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/replay_digest.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/telemetry_hooks.hpp"
#include "util/checksum.hpp"

namespace mhrp::scenario {
namespace {

std::uint32_t crc_of(const std::string& text) {
  return util::crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

/// The §6 walkthrough: M registers at D and S pings it, R4 reboots while
/// M is still there (so §5.2 recovery runs, by either option), then M
/// moves to E and home, with a ping after each step. The digest is the
/// topology counters plus every agent's stats.
std::string figure1_walkthrough(const Figure1Options& options) {
  Figure1 w(options);
  auto ping = [&w] {
    w.s->ping(w.m_address(), [](const node::Host::PingResult&) {});
    w.topo.sim().run_for(sim::seconds(5));
  };
  EXPECT_TRUE(w.register_at_d());
  ping();
  ping();
  w.fa_r4->reboot();
  ping();
  ping();
  EXPECT_TRUE(w.register_at_e());
  ping();
  EXPECT_TRUE(w.register_at_home());
  ping();

  const std::vector<core::MobileHost*> mobiles{w.m};
  telemetry::MetricRegistry reg;
  bind_agent_probes(reg, "r1", *w.agent_r1);
  bind_agent_probes(reg, "r2", *w.ha);
  bind_agent_probes(reg, "r4", *w.fa_r4);
  bind_agent_probes(reg, "r5", *w.fa_r5);
  if (w.agent_s) bind_agent_probes(reg, "s", *w.agent_s);
  bind_mobile_probes(reg, "m", mobiles);
  return topology_digest(w.topo) + reg.snapshot().to_text();
}

/// test_replay's seed-42 tour — two mobiles over the foreign sites and
/// home — with every correspondent pinging both mobiles after each move.
std::string mhrp_tour(const MhrpWorldOptions& options) {
  MhrpWorld world(options);
  const int tour[] = {0, 1, 2, -1, 2, 0, 1, -1};
  int step = 0;
  for (int site : tour) {
    EXPECT_TRUE(world.move_and_register(step % 2, site));
    ++step;
    for (node::Host* c : world.correspondents) {
      for (int i = 0; i < options.mobile_hosts; ++i) {
        c->ping(world.mobile_address(i), [](const node::Host::PingResult&) {});
      }
    }
    world.topo.sim().run_for(sim::seconds(2));
  }
  world.topo.sim().run_for(sim::seconds(5));
  return world.metrics_digest();
}

MhrpWorldOptions tour_options() {
  MhrpWorldOptions opt;
  opt.foreign_sites = 3;
  opt.mobile_hosts = 2;
  opt.correspondents = 2;
  opt.protocol.seed = 42;
  return opt;
}

ScaleWorldOptions scale_options(std::uint64_t seed, int routers) {
  ScaleWorldOptions opt;
  opt.routers = routers;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 24;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = seed;
  return opt;
}

/// A 63-router tree with DV routing, a durable store and every kind of
/// chaos fault.
ScaleWorldOptions tree_chaos_options() {
  ScaleWorldOptions o = scale_options(11, 63);
  o.backbone = ScaleWorldOptions::Backbone::kTree;
  o.protocol.routing = routing::dv::Mode::kDv;
  o.protocol.store.enabled = true;
  o.protocol.store.sync_policy = store::SyncPolicy::kInterval;
  o.chaos.enabled = true;
  o.chaos.horizon = sim::seconds(20);
  o.chaos.cell_outages_per_sec = 0.2;
  o.chaos.backbone_outages_per_sec = 0.1;
  o.chaos.fa_crashes_per_sec = 0.1;
  o.chaos.ha_crashes_per_sec = 0.05;
  o.chaos.loss_bursts_per_sec = 0.1;
  return o;
}

std::string scale_run(const ScaleWorldOptions& options, sim::Time duration) {
  ScaleWorld world(options);
  world.start();
  world.run_for(duration);
  return world.metrics_digest();
}

struct Pin {
  const char* world;
  std::uint32_t crc;
  std::function<std::string()> digest;
};

TEST(DigestPins, EveryInstallBranchReplaysItsPinnedDigest) {
#ifdef _LIBCPP_VERSION
  GTEST_SKIP() << "pinned with libstdc++; util::Rng's std:: distributions "
                  "differ between standard libraries";
#endif
  const Pin pins[] = {
      {"figure1 default", 0xb6156aefu,
       [] { return figure1_walkthrough(Figure1Options()); }},
      {"figure1 non-default", 0x0235b53eu,
       [] {
         Figure1Options o;
         o.protocol.advertisement_period = sim::seconds(2);
         o.protocol.update_min_interval = sim::millis(50);
         o.protocol.max_list_length = 2;
         o.protocol.forwarding_pointers = false;
         o.protocol.icmp_quote_limit = 0;
         o.protocol.fa_verify_recovery_with_arp = true;
         o.protocol.fa_reregister_broadcast_on_reboot = true;
         o.s_is_cache_agent = false;
         return figure1_walkthrough(o);
       }},
      {"figure1 arp-verified recovery", 0x61fbf515u,
       [] {
         Figure1Options o;
         o.protocol.fa_verify_recovery_with_arp = true;
         return figure1_walkthrough(o);
       }},
      {"mhrpworld tour", 0x14c35e8eu, [] { return mhrp_tour(tour_options()); }},
      {"mhrpworld tour dv+store", 0xe4b1f3a9u,
       [] {
         MhrpWorldOptions o = tour_options();
         o.protocol.routing = routing::dv::Mode::kDv;
         o.protocol.store.enabled = true;
         o.protocol.store.sync_policy = store::SyncPolicy::kInterval;
         o.protocol.max_list_length = 2;
         o.protocol.forwarding_pointers = false;
         return mhrp_tour(o);
       }},
      {"scaleworld grid 200", 0xb5d75148u,
       [] { return scale_run(scale_options(7, 200), sim::seconds(10)); }},
      {"scaleworld grid 200 x2 shards", 0xb464b056u,
       [] {
         ScaleWorldOptions o = scale_options(7, 200);
         o.shards = 2;
         return scale_run(o, sim::seconds(10));
       }},
      {"scaleworld grid 200 x4 shards", 0x3094b3eau,
       [] {
         ScaleWorldOptions o = scale_options(7, 200);
         o.shards = 4;
         return scale_run(o, sim::seconds(10));
       }},
      {"scaleworld tree 63 dv+store+chaos", 0x058d5bb3u,
       [] { return scale_run(tree_chaos_options(), sim::seconds(20)); }},
      {"scaleworld tree 63 dv+store+chaos x2 shards", 0x14fb6cc9u,
       [] {
         // Sharded mode refuses loss bursts (DESIGN.md §13.4).
         ScaleWorldOptions o = tree_chaos_options();
         o.chaos.loss_bursts_per_sec = 0;
         o.shards = 2;
         return scale_run(o, sim::seconds(20));
       }},
  };
  for (const Pin& pin : pins) {
    const std::uint32_t crc = crc_of(pin.digest());
    EXPECT_EQ(crc, pin.crc) << pin.world << " now hashes to 0x" << std::hex
                            << crc;
  }
}

}  // namespace
}  // namespace mhrp::scenario
