// Property-style tests: parameterized sweeps asserting the protocol's
// invariants across world shapes, movement sequences, and configuration
// points rather than single scripted scenarios.
//
//  * reachability: wherever a mobile host registers, a correspondent's
//    ping reaches it — including under randomized movement;
//  * overhead law: every tunneled packet carries exactly 8 + 4k octets
//    of MHRP overhead, k = previous-source list length, bounded by the
//    configured maximum;
//  * cache convergence: after a move, a bounded number of packets
//    repairs every cache agent on the path;
//  * home transparency: at home, zero overhead, always.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "scenario/metrics.hpp"
#include "scenario/mhrp_world.hpp"

namespace mhrp {
namespace {

using scenario::MhrpWorld;
using scenario::MhrpWorldOptions;

/// Whether foreign agents keep forwarding pointers (§5.2).
enum class Pointers : std::uint64_t { kDropped, kKept };

struct WorldShape {
  int foreign_sites;
  int mobile_hosts;
  // correspondents and forwarding_pointers are 8 bytes wide so the struct
  // has no padding; its byte dump equals that of int and bool fields
  // with zeroed padding.
  std::int64_t correspondents;
  std::size_t max_list_length;
  Pointers forwarding_pointers;
};
// gtest prints a parameter without operator<< as a byte dump, and ctest
// takes that dump into the test name; padding bytes would make the name
// change from run to run. The same holds for LoopCase below.
static_assert(std::has_unique_object_representations_v<WorldShape>);

class MhrpWorldProperty : public ::testing::TestWithParam<WorldShape> {};

bool ping_ok(MhrpWorld& w, node::Host& from, net::IpAddress to) {
  bool replied = false;
  from.ping(to, [&](const node::Host::PingResult& r) { replied = r.replied; },
            32, sim::seconds(8));
  w.topo.sim().run_for(sim::seconds(10));
  return replied;
}

TEST_P(MhrpWorldProperty, EveryMobileReachableWhereverItRegisters) {
  const WorldShape shape = GetParam();
  MhrpWorldOptions options;
  options.foreign_sites = shape.foreign_sites;
  options.mobile_hosts = shape.mobile_hosts;
  options.correspondents = static_cast<int>(shape.correspondents);
  options.protocol.max_list_length = shape.max_list_length;
  options.protocol.forwarding_pointers =
      shape.forwarding_pointers == Pointers::kKept;
  MhrpWorld w(options);

  for (int i = 0; i < shape.mobile_hosts; ++i) {
    ASSERT_TRUE(w.move_and_register(i, i % shape.foreign_sites)) << i;
  }
  for (int i = 0; i < shape.mobile_hosts; ++i) {
    node::Host& corr = *w.correspondents[std::size_t(i) %
                                         w.correspondents.size()];
    EXPECT_TRUE(ping_ok(w, corr, w.mobile_address(i))) << "mobile " << i;
  }
}

TEST_P(MhrpWorldProperty, RandomizedWalkNeverStrandsTheMobileHost) {
  const WorldShape shape = GetParam();
  MhrpWorldOptions options;
  options.foreign_sites = shape.foreign_sites;
  options.mobile_hosts = 1;
  options.correspondents = 1;
  options.protocol.max_list_length = shape.max_list_length;
  options.protocol.forwarding_pointers =
      shape.forwarding_pointers == Pointers::kKept;
  options.protocol.seed = 7 + static_cast<std::uint64_t>(shape.foreign_sites);
  MhrpWorld w(options);
  util::Rng rng(options.protocol.seed);

  for (int step = 0; step < 6; ++step) {
    // Random site, occasionally home.
    const int site = rng.chance(0.2)
                         ? -1
                         : static_cast<int>(rng.index(
                               std::size_t(shape.foreign_sites)));
    ASSERT_TRUE(w.move_and_register(0, site)) << "step " << step;
    EXPECT_TRUE(ping_ok(w, *w.correspondents[0], w.mobile_address(0)))
        << "step " << step << " site " << site;
  }
}

TEST_P(MhrpWorldProperty, OverheadIsEightPlusFourPerListEntry) {
  const WorldShape shape = GetParam();
  MhrpWorldOptions options;
  options.foreign_sites = shape.foreign_sites;
  options.mobile_hosts = 1;
  options.correspondents = 1;
  options.protocol.max_list_length = shape.max_list_length;
  options.protocol.forwarding_pointers =
      shape.forwarding_pointers == Pointers::kKept;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));

  scenario::FlowRecorder recorder(*w.mobiles[0]);
  recorder.set_filter([&](const net::Packet& p) {
    // Exclude link-local deliveries (the foreign agent's ConnectAck is
    // handed over on the cell itself, legitimately untunneled).
    return p.header().dst == w.mobile_address(0) && p.hop_count() > 1;
  });
  // A burst of pings with occasional moves in between.
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(ping_ok(w, *w.correspondents[0], w.mobile_address(0)));
    if (round + 1 < shape.foreign_sites) {
      ASSERT_TRUE(w.move_and_register(0, round + 1));
    }
  }
  const auto& overhead = recorder.total().overhead_bytes;
  ASSERT_GT(overhead.count, 0u);
  // Law: 8 + 4k, with k bounded by max_list_length.
  EXPECT_GE(overhead.min, 8.0);
  EXPECT_LE(overhead.max, 8.0 + 4.0 * double(shape.max_list_length));
  // Every observation is ≡ 0 (mod 4).
  EXPECT_EQ(static_cast<long>(overhead.min) % 4, 0);
  EXPECT_EQ(static_cast<long>(overhead.max) % 4, 0);
}

TEST_P(MhrpWorldProperty, CachesConvergeAfterMove) {
  const WorldShape shape = GetParam();
  if (shape.foreign_sites < 2) GTEST_SKIP();
  MhrpWorldOptions options;
  options.foreign_sites = shape.foreign_sites;
  options.mobile_hosts = 1;
  options.correspondents = static_cast<int>(shape.correspondents);
  options.protocol.max_list_length = shape.max_list_length;
  options.protocol.forwarding_pointers =
      shape.forwarding_pointers == Pointers::kKept;
  MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));

  // Warm every correspondent's cache.
  for (auto* corr : w.correspondents) {
    ASSERT_TRUE(ping_ok(w, *corr, w.mobile_address(0)));
  }
  ASSERT_TRUE(w.move_and_register(0, 1));

  // One packet from each correspondent must repair its own cache.
  for (std::size_t c = 0; c < w.correspondents.size(); ++c) {
    EXPECT_TRUE(ping_ok(w, *w.correspondents[c], w.mobile_address(0)));
    auto entry = w.corr_agents[c]->cache().peek(w.mobile_address(0));
    ASSERT_TRUE(entry.has_value()) << "correspondent " << c;
    EXPECT_EQ(*entry, w.fa_address(1)) << "correspondent " << c;
  }
}

TEST_P(MhrpWorldProperty, ZeroOverheadAtHomeAlways) {
  const WorldShape shape = GetParam();
  MhrpWorldOptions options;
  options.foreign_sites = shape.foreign_sites;
  options.mobile_hosts = 1;
  options.correspondents = 1;
  options.protocol.max_list_length = shape.max_list_length;
  options.protocol.forwarding_pointers =
      shape.forwarding_pointers == Pointers::kKept;
  MhrpWorld w(options);
  // Roam, then come home — history must not leave residual overhead.
  ASSERT_TRUE(w.move_and_register(0, 0));
  ASSERT_TRUE(ping_ok(w, *w.correspondents[0], w.mobile_address(0)));
  ASSERT_TRUE(w.move_and_register(0, -1));
  // First packet home may still take a stale tunnel; it repairs S.
  ASSERT_TRUE(ping_ok(w, *w.correspondents[0], w.mobile_address(0)));

  scenario::FlowRecorder recorder(*w.mobiles[0]);
  recorder.set_filter([&](const net::Packet& p) {
    return p.header().dst == w.mobile_address(0);
  });
  ASSERT_TRUE(ping_ok(w, *w.correspondents[0], w.mobile_address(0)));
  ASSERT_GT(recorder.total().overhead_bytes.count, 0u);
  EXPECT_EQ(recorder.total().overhead_bytes.max, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MhrpWorldProperty,
    ::testing::Values(WorldShape{1, 1, 1, 8, Pointers::kKept},
                      WorldShape{2, 1, 1, 8, Pointers::kKept},
                      WorldShape{3, 2, 2, 8, Pointers::kKept},
                      WorldShape{3, 1, 3, 2, Pointers::kKept},
                      WorldShape{4, 3, 2, 8, Pointers::kDropped},
                      WorldShape{5, 1, 1, 1, Pointers::kDropped},
                      WorldShape{6, 4, 3, 4, Pointers::kKept}),
    [](const ::testing::TestParamInfo<WorldShape>& info) {
      const WorldShape& s = info.param;
      std::string name = "f";
      name += std::to_string(s.foreign_sites);
      name += "m";
      name += std::to_string(s.mobile_hosts);
      name += "c";
      name += std::to_string(s.correspondents);
      name += "k";
      name += std::to_string(s.max_list_length);
      name += s.forwarding_pointers == Pointers::kKept ? "ptr" : "noptr";
      return name;
    });

// ---- Loop-contraction property (§5.3) over loop size and list cap ----

struct LoopCase {
  int loop_size;
  // Per-destination location-update rate limit of every loop member.
  int update_interval_ms;
  std::size_t max_list;
};
static_assert(std::has_unique_object_representations_v<LoopCase>);

class LoopContraction : public ::testing::TestWithParam<LoopCase> {};

TEST_P(LoopContraction, EveryLoopEventuallyDissolves) {
  const LoopCase param = GetParam();
  scenario::Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  const net::IpAddress mh = net::IpAddress::parse("10.99.0.77");

  std::vector<node::Router*> routers;
  std::vector<std::unique_ptr<core::MhrpAgent>> agents;
  for (int i = 0; i < param.loop_size; ++i) {
    auto& r = topo.add_router(scenario::numbered("C", i));
    topo.connect(r, lan, net::IpAddress::of(10, 9, 0, std::uint8_t(i + 1)),
                 24);
    routers.push_back(&r);
    core::AgentConfig config;
    config.cache_agent = true;
    config.max_list_length = param.max_list;
    config.update_min_interval = sim::millis(param.update_interval_ms);
    agents.push_back(std::make_unique<core::MhrpAgent>(r, config));
  }
  auto& injector = topo.add_host("inj");
  topo.connect(injector, lan, net::IpAddress::parse("10.9.0.100"), 24);
  topo.install_static_routes();
  for (int i = 0; i < param.loop_size; ++i) {
    agents[std::size_t(i)]->cache().update(
        mh, routers[std::size_t((i + 1) % param.loop_size)]->primary_address());
  }

  auto has_cycle = [&] {
    for (std::size_t start = 0; start < agents.size(); ++start) {
      std::set<std::size_t> path{start};
      std::size_t cursor = start;
      while (true) {
        auto next = agents[cursor]->cache().peek(mh);
        if (!next.has_value()) break;
        int idx = -1;
        for (std::size_t i = 0; i < routers.size(); ++i) {
          if (routers[i]->primary_address() == *next) idx = int(i);
        }
        if (idx < 0) break;
        if (!path.insert(std::size_t(idx)).second) return true;
        cursor = std::size_t(idx);
      }
    }
    return false;
  };

  auto inject = [&] {
    core::MhrpHeader h;
    h.orig_protocol = net::to_u8(net::IpProto::kUdp);
    h.mobile_host = mh;
    util::ByteWriter w;
    h.encode(w);
    std::vector<std::uint8_t> transport(12, 0xEE);
    auto udp = net::encode_udp({1, 2}, transport);
    w.bytes(udp);
    net::IpHeader iph;
    iph.protocol = net::to_u8(net::IpProto::kMhrp);
    iph.src = injector.primary_address();
    iph.dst = routers[0]->primary_address();
    iph.ttl = 255;
    injector.send_ip(net::Packet(iph, w.take()));
  };

  ASSERT_TRUE(has_cycle());
  int injections = 0;
  // §5.3: each packet contracts the loop by roughly a factor of the list
  // size per cycle; TTL death only defers to the next packet.
  for (; injections < 50 && has_cycle(); ++injections) {
    inject();
    topo.sim().run_for(sim::seconds(5));
  }
  EXPECT_FALSE(has_cycle()) << "loop survived " << injections << " probes";
  std::uint64_t detected = 0;
  for (const auto& a : agents) detected += a->stats().loops_detected;
  EXPECT_GE(detected, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LoopContraction,
    ::testing::Values(LoopCase{2, 10, 8}, LoopCase{3, 200, 8},
                      LoopCase{4, 200, 2}, LoopCase{6, 10, 2},
                      LoopCase{8, 10, 3}, LoopCase{10, 200, 2},
                      LoopCase{12, 10, 4}, LoopCase{16, 200, 2}),
    [](const ::testing::TestParamInfo<LoopCase>& info) {
      std::string name = "L";
      name += std::to_string(info.param.loop_size);
      name += "K";
      name += std::to_string(info.param.max_list);
      return name;
    });

}  // namespace
}  // namespace mhrp
