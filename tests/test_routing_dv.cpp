// Integration tests for the DV routing plane wired through ScaleWorld:
// a scripted backbone fault must reroute traffic before the fault plane
// heals the link (the paper's premise that "the standard IP routing
// algorithms" adapt underneath MHRP), DV-enabled runs must keep the
// byte-identical replay contract, and the sharded executive must carry
// DV timers and cross-shard link-state notifications without perturbing
// one digest byte at a fixed shard count.
#include <gtest/gtest.h>

#include <string>

#include "faults/fault_schedule.hpp"
#include "scenario/scale_world.hpp"

namespace mhrp::scenario {
namespace {

ScaleWorldOptions dv_scale_options(int routers, bool dv) {
  ScaleWorldOptions opt;
  opt.routers = routers;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 24;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  if (dv) opt.protocol.routing = routing::dv::Mode::kDv;
  // Chaos enabled with every rate zero: the schedule is empty but the
  // fault plane is armed, so the test can script events by hand.
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xc4a05;
  return opt;
}

/// Warm a world up, fail the R0-R1 backbone circuit for `outage`
/// seconds, and return what was delivered while the link was down.
ScaleRunStats run_scripted_outage(ScaleWorld& world, sim::Time outage) {
  world.start();
  world.run_for(sim::seconds(6));  // discovery, bindings, DV convergence

  faults::FaultEvent fail;
  fail.at = world.topo.sim().now();
  fail.kind = faults::FaultKind::kLinkFail;
  // Link targets register cells first, then backbone circuits in build
  // order; cells.size() is bb0, the R0-R1 circuit next to the home
  // agent, which carries the HA's tunnels toward FA0 (hosted on R1).
  fail.target = world.cells.size();
  fail.duration = outage;
  world.fault_plane()->apply(fail);
  return world.run_for(outage);
}

TEST(DvScaleWorld, ScriptedBackboneFaultReconvergesBeforeRecovery) {
  // The PR's acceptance scenario: in a 200-router grid with DV enabled,
  // failing the circuit between the home router and FA0's router must
  // (a) produce a reconvergence measurement well inside the outage and
  // (b) keep tunnel traffic flowing over the alternate grid path while
  // the static-routing twin blackholes until the fault plane heals it.
  const sim::Time outage = sim::seconds(8);
  ScaleWorld dv(dv_scale_options(200, true));
  const ScaleRunStats dv_during = run_scripted_outage(dv, outage);
  ScaleWorld st(dv_scale_options(200, false));
  const ScaleRunStats st_during = run_scripted_outage(st, outage);

  // Let the post-recovery churn settle so the second epoch closes too.
  dv.run_for(sim::seconds(2));

  const auto& conv = dv.convergence_times();
  ASSERT_FALSE(conv.empty());
  // Reconverged (last route change of the outage epoch) well before the
  // fault plane healed the link: triggered updates, not the 10s
  // periodic timer, carry the withdrawal.
  EXPECT_LT(conv.front(), sim::to_seconds(outage) / 2);
  EXPECT_EQ(dv.fault_plane()->stats().link_failures, 1u);
  EXPECT_EQ(dv.fault_plane()->stats().link_recoveries, 1u);

  // Traffic rerouted: the DV world out-delivers its static twin during
  // the outage (both worlds draw identical movement and workload).
  EXPECT_GT(dv_during.packets_delivered, st_during.packets_delivered);
  EXPECT_GT(st_during.packets_delivered, 0u);  // other cells unaffected

  // The static world records no convergence series at all.
  EXPECT_TRUE(st.convergence_times().empty());
}

TEST(DvReplay, ChaosRunSameSeedIsByteIdentical) {
  // Seeded Poisson chaos with DV enabled: link fail/recover epochs,
  // triggered-update jitter, and timeout sweeps all ride the same seeded
  // streams, so two runs must agree byte for byte — convergence series
  // included (it is part of the digest).
  auto run = [] {
    ScaleWorldOptions opt = dv_scale_options(36, true);
    opt.chaos.horizon = sim::seconds(10);
    opt.chaos.cell_outages_per_sec = 0.3;
    opt.chaos.backbone_outages_per_sec = 0.15;
    opt.chaos.mean_outage = sim::seconds(2);
    ScaleWorld world(opt);
    world.start();
    (void)world.run_for(sim::seconds(10));
    return std::make_pair(world.metrics_digest(),
                          world.convergence_times().size());
  };
  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.first.empty());
  EXPECT_EQ(first.first, second.first);
  EXPECT_GT(first.second, 0u);  // the chaos actually produced epochs
}

TEST(DvReplay, EnablingDvChangesRoutingNotMovement) {
  // The DV jitter stream is forked off the seed separately from
  // topo.rng(), so switching routing planes must leave the movement and
  // workload schedule untouched (same moves, same registrations).
  ScaleWorld st(dv_scale_options(36, false));
  ScaleWorld dv(dv_scale_options(36, true));
  st.start();
  dv.start();
  const ScaleRunStats s = st.run_for(sim::seconds(10));
  const ScaleRunStats d = dv.run_for(sim::seconds(10));
  EXPECT_EQ(s.moves, d.moves);
  EXPECT_EQ(s.registrations, d.registrations);
  EXPECT_GT(d.registrations, 0u);
  // DV broadcasts are real traffic: the digest legitimately differs.
  EXPECT_NE(st.metrics_digest(), dv.metrics_digest());
}

ScaleWorldOptions dv_sharded_options(int shards) {
  ScaleWorldOptions opt = dv_scale_options(36, true);
  opt.chaos.enabled = false;
  opt.shards = shards;
  opt.movement_regions = 4;
  return opt;
}

std::string run_digest(const ScaleWorldOptions& opt, sim::Time duration) {
  ScaleWorld world(opt);
  world.start();
  (void)world.run_for(duration);
  return world.metrics_digest();
}

TEST(DvSharded, FixedShardCountIsDeterministic) {
  // Four workers, DV broadcasts crossing region boundaries both ways,
  // plus scripted cross-shard link faults (bb circuits are the only
  // links whose members live on different shards).
  ScaleWorldOptions opt = dv_sharded_options(4);
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xc4a05;
  opt.chaos.horizon = sim::seconds(10);
  opt.chaos.backbone_outages_per_sec = 0.2;
  opt.chaos.mean_outage = sim::seconds(2);
  const std::string first = run_digest(opt, sim::seconds(10));
  const std::string second = run_digest(opt, sim::seconds(10));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mhrp::scenario
