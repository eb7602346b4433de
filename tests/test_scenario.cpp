// Scenario-harness tests: the topology builder's static routing, link
// behavior (latency, loss, down, mid-flight detach), workload
// generators, and the metrics recorder — the instruments every benchmark
// trusts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/udp.hpp"
#include "scenario/metrics.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"
#include "scenario/tracer.hpp"
#include "scenario/workload.hpp"

namespace mhrp {
namespace {

using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

TEST(TopologyRouting, StaticRoutesReachEveryRouterPrefix) {
  // Triangle of routers with stub LANs; every router must route to every
  // stub.
  Topology topo;
  auto& ab = topo.add_link("ab", sim::millis(1));
  auto& bc = topo.add_link("bc", sim::millis(1));
  auto& ca = topo.add_link("ca", sim::millis(1));
  auto& a = topo.add_router("A");
  auto& b = topo.add_router("B");
  auto& c = topo.add_router("C");
  topo.connect(a, ab, ip("10.0.1.1"), 24);
  topo.connect(b, ab, ip("10.0.1.2"), 24);
  topo.connect(b, bc, ip("10.0.2.1"), 24);
  topo.connect(c, bc, ip("10.0.2.2"), 24);
  topo.connect(c, ca, ip("10.0.3.1"), 24);
  topo.connect(a, ca, ip("10.0.3.2"), 24);
  auto& stub_a = topo.add_link("stubA", sim::millis(1));
  auto& stub_b = topo.add_link("stubB", sim::millis(1));
  auto& stub_c = topo.add_link("stubC", sim::millis(1));
  topo.connect(a, stub_a, ip("10.1.0.1"), 24);
  topo.connect(b, stub_b, ip("10.2.0.1"), 24);
  topo.connect(c, stub_c, ip("10.3.0.1"), 24);
  topo.install_static_routes();

  for (auto* r : {&a, &b, &c}) {
    for (const char* dst : {"10.1.0.9", "10.2.0.9", "10.3.0.9"}) {
      EXPECT_NE(r->routing_table().lookup(ip(dst)), nullptr)
          << r->name() << " -> " << dst;
    }
  }
  // Direct neighbors are one hop; the triangle keeps everything at 1.
  EXPECT_EQ(topo.hop_distance(a, b), 1);
  EXPECT_EQ(topo.hop_distance(a, c), 1);
}

TEST(TopologyRouting, HostsGetDefaultViaLanRouter) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& far_lan = topo.add_link("far", sim::millis(1));
  auto& r = topo.add_router("R");
  auto& h = topo.add_host("H");
  topo.connect(r, lan, ip("10.1.0.1"), 24);
  topo.connect(r, far_lan, ip("10.2.0.1"), 24);
  topo.connect(h, lan, ip("10.1.0.10"), 24);
  topo.install_static_routes();
  const auto* route = h.routing_table().lookup(ip("10.2.0.55"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, ip("10.1.0.1"));
}

TEST(TopologyRouting, HostPrefixesDoNotLeakIntoRouting) {
  // A host whose address is foreign to its attachment point (a visiting
  // mobile) must be invisible to the routing fabric.
  Topology topo;
  auto& lan1 = topo.add_link("lan1", sim::millis(1));
  auto& lan2 = topo.add_link("lan2", sim::millis(1));
  auto& r = topo.add_router("R");
  topo.connect(r, lan1, ip("10.1.0.1"), 24);
  topo.connect(r, lan2, ip("10.2.0.1"), 24);
  auto& visitor = topo.add_host("V");
  topo.connect(visitor, lan2, ip("172.16.0.9"), 24);  // off-subnet address
  topo.install_static_routes();
  EXPECT_EQ(r.routing_table().lookup(ip("172.16.0.9")), nullptr);
}

TEST(TopologyRouting, SharedPrefixRoutesTowardTheNearestRouter) {
  // Regression: routes were installed per (router, prefix) in node order,
  // so a prefix configured on several routers was routed toward the last
  // one listed. Here the LAN is one hop from R0 through B and two through
  // A and C.
  Topology topo;
  auto& r0a = topo.add_link("r0a", sim::millis(1));
  auto& r0b = topo.add_link("r0b", sim::millis(1));
  auto& ac = topo.add_link("ac", sim::millis(1));
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& r0 = topo.add_router("R0");
  auto& a = topo.add_router("A");
  auto& b = topo.add_router("B");
  auto& c = topo.add_router("C");
  topo.connect(r0, r0a, ip("10.0.1.1"), 24);
  topo.connect(a, r0a, ip("10.0.1.2"), 24);
  topo.connect(r0, r0b, ip("10.0.2.1"), 24);
  topo.connect(b, r0b, ip("10.0.2.2"), 24);
  topo.connect(a, ac, ip("10.0.3.1"), 24);
  topo.connect(c, ac, ip("10.0.3.2"), 24);
  topo.connect(b, lan, ip("10.9.0.1"), 24);
  topo.connect(c, lan, ip("10.9.0.2"), 24);
  topo.install_static_routes();

  const routing::Route* via_b = r0.routing_table().lookup(ip("10.9.0.10"));
  ASSERT_NE(via_b, nullptr);
  EXPECT_EQ(via_b->next_hop, ip("10.0.2.2"));
  EXPECT_EQ(via_b->metric, 1);
  const routing::Route* via_c = a.routing_table().lookup(ip("10.9.0.10"));
  ASSERT_NE(via_c, nullptr);
  EXPECT_EQ(via_c->next_hop, ip("10.0.3.2"));
}

TEST(Links, LatencyIsApplied) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(7));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  // Warm ARP first.
  bool warm = false;
  a.ping(ip("10.1.0.11"),
         [&](const node::Host::PingResult& r) { warm = r.replied; });
  topo.sim().run_for(sim::seconds(5));
  ASSERT_TRUE(warm);
  sim::Time rtt = 0;
  a.ping(ip("10.1.0.11"), [&](const node::Host::PingResult& r) {
    rtt = r.rtt;
  });
  topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(rtt, sim::millis(14));  // 7 ms each way
}

TEST(Links, SerializationDelayFollowsBandwidth) {
  Topology topo;
  // 1 Mbit/s: a ~1000-byte frame costs ~8 ms on top of latency.
  auto& lan = topo.add_link("slow", sim::millis(1), 1'000'000);
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  bool warm = false;
  a.ping(ip("10.1.0.11"),
         [&](const node::Host::PingResult& r) { warm = r.replied; }, 16);
  topo.sim().run_for(sim::seconds(5));
  ASSERT_TRUE(warm);
  sim::Time rtt = 0;
  a.ping(ip("10.1.0.11"),
         [&](const node::Host::PingResult& r) { rtt = r.rtt; },
         /*payload=*/958);  // 958 + 8 ICMP + 20 IP + 14 frame = 1000 B
  topo.sim().run_for(sim::seconds(5));
  EXPECT_GT(rtt, sim::millis(17));
  EXPECT_LT(rtt, sim::millis(19));
}

TEST(Links, DownLinkDropsSilently) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  lan.fail();
  bool replied = true;
  a.ping(ip("10.1.0.11"),
         [&](const node::Host::PingResult& r) { replied = r.replied; }, 16,
         sim::seconds(3));
  topo.sim().run_for(sim::seconds(10));
  EXPECT_FALSE(replied);
  EXPECT_EQ(lan.frames_carried(), 0u);
}

TEST(Links, LossProbabilityDropsSomeFrames) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  util::Rng rng(7);
  lan.set_impairments(net::LinkImpairments{.loss = 0.5}, rng);
  int replies = 0;
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    a.ping(ip("10.1.0.11"), [&](const node::Host::PingResult& r) {
      ++done;
      if (r.replied) ++replies;
    }, 16, sim::seconds(2));
    topo.sim().run_for(sim::millis(200));
  }
  topo.sim().run_for(sim::seconds(10));
  EXPECT_EQ(done, 40);
  EXPECT_GT(replies, 0);
  EXPECT_LT(replies, 40);
}

TEST(Links, ClearImpairmentsReleasesTheCallerRng) {
  // set_impairments() borrows the caller's RNG by reference;
  // clear_impairments() must drop that reference so the RNG may die
  // before the link. (Under the ASan CI config a stale reference here is
  // a use-after-scope.)
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  int replies = 0;
  auto count = [&](const node::Host::PingResult& r) {
    if (r.replied) ++replies;
  };
  {
    util::Rng rng(99);
    lan.set_impairments(net::LinkImpairments{.loss = 1.0},
                        rng);  // certain loss while the model is armed
    a.ping(ip("10.1.0.11"), count, 16, sim::seconds(2));
    topo.sim().run_for(sim::seconds(5));
    EXPECT_EQ(replies, 0);
    lan.clear_impairments();
  }  // rng destroyed; the link must not have kept a pointer to it
  a.ping(ip("10.1.0.11"), count, 16, sim::seconds(2));
  topo.sim().run_for(sim::seconds(5));
  EXPECT_EQ(replies, 1);
}

TEST(Links, MidFlightDetachSuppressesDelivery) {
  // A frame en route to an interface that detached must vanish — the
  // radio left the cell.
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(5));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  net::Interface& bi = topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();
  // Pre-seed ARP so the datagram goes straight out.
  a.arp_table(*a.interfaces().front()).learn(ip("10.1.0.11"), bi.mac());
  std::vector<std::uint8_t> data{1};
  int delivered = 0;
  b.bind_udp(9, [&](const net::UdpDatagram&, const net::IpHeader&,
                    net::Interface&) { ++delivered; });
  a.send_udp(ip("10.1.0.11"), 9, 9, data);
  // Detach B while the frame is in flight (5 ms latency).
  topo.sim().run_for(sim::millis(1));
  lan.detach(bi);
  topo.sim().run_for(sim::seconds(1));
  EXPECT_EQ(delivered, 0);
}

TEST(Workload, CbrFlowPacesAndTags) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  auto& b = topo.add_host("B");
  topo.connect(a, lan, ip("10.1.0.10"), 24);
  topo.connect(b, lan, ip("10.1.0.11"), 24);
  topo.install_static_routes();

  scenario::FlowRecorder recorder(b);
  int received = 0;
  b.bind_udp(9000, [&](const net::UdpDatagram& d, const net::IpHeader&,
                       net::Interface&) {
    ++received;
    EXPECT_EQ(d.data.size(), 100u);
  });
  scenario::CbrFlow flow(a, ip("10.1.0.11"), 9000, 100, sim::millis(10));
  flow.start();
  topo.sim().run_for(sim::seconds(1));
  flow.stop();
  topo.sim().run_for(sim::seconds(1));
  EXPECT_EQ(flow.sent(), 101u);  // t=0 plus every 10 ms
  EXPECT_EQ(received, 101);
  EXPECT_EQ(recorder.flow(flow.flow_id()).received, 101u);
  // Plain LAN delivery: zero mobility overhead, 1 hop.
  EXPECT_EQ(recorder.flow(flow.flow_id()).overhead_bytes.max, 0.0);
  EXPECT_EQ(recorder.flow(flow.flow_id()).hops.max, 1.0);
}

TEST(Workload, MovementScheduleVisitsCells) {
  scenario::MhrpWorldOptions options;
  options.foreign_sites = 3;
  scenario::MhrpWorld w(options);
  ASSERT_TRUE(w.move_and_register(0, 0));
  scenario::MovementSchedule walk(
      *w.mobiles[0], {w.cells[0], w.cells[1], w.cells[2]}, sim::seconds(3),
      w.topo.rng().fork(), /*random_order=*/false);
  walk.start();
  w.topo.sim().run_for(sim::seconds(30));
  walk.stop();
  EXPECT_GE(walk.moves(), 5u);
  // The host is attached to one of the scheduled cells and registered.
  EXPECT_NE(w.mobiles[0]->radio().link(), nullptr);
}

TEST(Metrics, DistributionTracksMinMeanMax) {
  scenario::Distribution d;
  d.add(2.0);
  d.add(4.0);
  d.add(9.0);
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.min, 2.0);
  EXPECT_EQ(d.max, 9.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(Metrics, EmptyDistributionReportsZeros) {
  // Regression: min/max used to start at +/-inf, which leaked into
  // digests and broke strict JSON exports for flows with no samples.
  scenario::Distribution d;
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.min, 0.0);
  EXPECT_EQ(d.max, 0.0);
  EXPECT_EQ(d.mean(), 0.0);
}

TEST(Metrics, DistributionFirstSampleSetsBothExtremes) {
  scenario::Distribution d;
  d.add(-3.5);
  EXPECT_EQ(d.min, -3.5);
  EXPECT_EQ(d.max, -3.5);
}

TEST(Metrics, SummarizeMatchesPercentileOnUnsortedInput) {
  // The single-sort fast path must agree with the public percentile()
  // (which sorts a copy) on unsorted input.
  const std::vector<double> raw = {9.0, 1.0, 4.0, 7.5, 2.0, 8.0, 3.0};
  const scenario::PercentileSummary s = scenario::summarize(raw);
  EXPECT_EQ(s.count, raw.size());
  EXPECT_DOUBLE_EQ(s.p50, scenario::percentile(raw, 50));
  EXPECT_DOUBLE_EQ(s.p90, scenario::percentile(raw, 90));
  EXPECT_DOUBLE_EQ(s.p99, scenario::percentile(raw, 99));
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Metrics, SummarizeEmptyIsAllZeros) {
  const scenario::PercentileSummary s = scenario::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Metrics, RecorderFiltersMulticastByDefault) {
  scenario::MhrpWorldOptions options;
  scenario::MhrpWorld w(options);
  scenario::FlowRecorder recorder(*w.mobiles[0]);
  ASSERT_TRUE(w.move_and_register(0, 0));
  w.topo.sim().run_for(sim::seconds(5));
  // Plenty of agent advertisements were delivered, none recorded.
  EXPECT_GT(w.mobiles[0]->counters().delivered_local,
            recorder.total().received);
  // The only unicast deliveries so far are the registration acks.
  EXPECT_LE(recorder.total().received, 4u);
}

// Two hosts on one LAN; A sends one UDP datagram to B's bound port.
struct HookWorld {
  Topology topo;
  node::Host* a;
  node::Host* b;

  HookWorld() {
    auto& lan = topo.add_link("lan", sim::millis(1));
    a = &topo.add_host("A");
    b = &topo.add_host("B");
    topo.connect(*a, lan, ip("10.0.0.1"), 24);
    topo.connect(*b, lan, ip("10.0.0.2"), 24);
    topo.install_static_routes();
    b->bind_udp(7, [](const net::UdpDatagram&, const net::IpHeader&,
                      net::Interface&) {});
  }

  void send_one() {
    static constexpr unsigned char payload[] = {1, 2, 3};
    a->send_udp(ip("10.0.0.2"), 40001, 7, payload);
    topo.sim().run_for(sim::seconds(1));
  }
};

TEST(HookChaining, RecorderThenTracerBothObserve) {
  HookWorld w;
  scenario::FlowRecorder recorder(*w.b);
  std::ostringstream sink;
  scenario::Tracer tracer(w.topo, &sink);
  w.send_one();
  EXPECT_GE(recorder.total().received, 1u);
  EXPECT_GT(tracer.events(), 0u);
}

TEST(HookChaining, TracerThenRecorderBothObserve) {
  // Regression: FlowRecorder used to overwrite on_deliver_hook, silently
  // disconnecting a Tracer attached first. Both observers must see the
  // delivery regardless of attachment order.
  HookWorld w;
  std::ostringstream sink;
  scenario::Tracer tracer(w.topo, &sink);
  scenario::FlowRecorder recorder(*w.b);
  w.send_one();
  EXPECT_GE(recorder.total().received, 1u);
  EXPECT_GT(tracer.events(), 0u);
  EXPECT_NE(sink.str().find("recv"), std::string::npos);
}

TEST(HookChaining, TracerCoversNodesAddedAfterConstruction) {
  // Regression: the tracer only attached to nodes present at
  // construction — a node added afterwards was silently untraced.
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  auto& a = topo.add_host("A");
  topo.connect(a, lan, ip("10.0.0.1"), 24);

  std::ostringstream sink;
  scenario::Tracer tracer(topo, &sink);  // B does not exist yet

  auto& b = topo.add_host("B");
  topo.connect(b, lan, ip("10.0.0.2"), 24);
  topo.install_static_routes();
  b.bind_udp(7, [](const net::UdpDatagram&, const net::IpHeader&,
                   net::Interface&) {});
  static constexpr unsigned char payload[] = {1, 2, 3};
  a.send_udp(ip("10.0.0.2"), 40001, 7, payload);
  topo.sim().run_for(sim::seconds(1));

  EXPECT_GT(tracer.events(), 0u);
  EXPECT_NE(sink.str().find("recv"), std::string::npos);
  EXPECT_NE(sink.str().find("B"), std::string::npos);
}

TEST(HookChaining, DestroyedTracerDetachesFromEveryNode) {
  // Regression: the tracer's per-node hooks captured `this` and stayed
  // installed after it died, so the next packet called into freed memory.
  HookWorld w;
  std::ostringstream sink;
  auto tracer = std::make_unique<scenario::Tracer>(w.topo, &sink);
  tracer.reset();
  EXPECT_FALSE(w.a->on_forward_hook);
  EXPECT_FALSE(w.b->on_deliver_hook);
  EXPECT_FALSE(w.topo.on_node_added);
  w.send_one();
  EXPECT_EQ(w.b->counters().delivered_local, 1u);
  EXPECT_TRUE(sink.str().empty());
}

TEST(HookChaining, DestroyedRecorderDetachesFromItsNode) {
  // Regression: the recorder's hook outlived it, and the next delivery
  // wrote into freed memory; observers attached beside it stay attached.
  HookWorld w;
  std::ostringstream sink;
  scenario::Tracer tracer(w.topo, &sink);
  auto recorder = std::make_unique<scenario::FlowRecorder>(*w.b);
  recorder.reset();
  w.send_one();
  EXPECT_EQ(w.b->on_deliver_hook.size(), 1u);  // the tracer's alone
  EXPECT_NE(sink.str().find("recv"), std::string::npos);
}

TEST(ScaleWorldHarness, AttachAndRegisterKeepsTheHandoffSeries) {
  // Regression: attach_and_register on a started world replaced the
  // mobile's registration hook and then cleared it, so the handoff
  // series stopped growing while registrations went on completing.
  scenario::ScaleWorldOptions options;
  options.routers = 16;
  options.foreign_agents = 4;
  options.mobile_hosts = 1;
  options.correspondents = 1;
  options.mean_dwell = sim::seconds(2);
  scenario::ScaleWorld w(options);
  const auto& stats = w.mobiles[0]->stats();
  w.run_for(sim::seconds(20));
  const std::uint64_t registrations = stats.registrations_completed;
  ASSERT_GT(registrations, 0u);
  // Every registration in this world follows a move, so each one closes
  // a handoff.
  EXPECT_EQ(w.handoff_latencies().size(), registrations);

  ASSERT_TRUE(w.attach_and_register(*w.mobiles[0], *w.cells[1],
                                    sim::seconds(5)));
  w.run_for(sim::seconds(40));
  EXPECT_GT(stats.registrations_completed, registrations + 10);
  EXPECT_EQ(w.handoff_latencies().size(), stats.registrations_completed);
}

TEST(ScaleWorldHarness, CbrDatagramsReachAListeningPort) {
  // Regression: nothing listened on the CBR flows' ports, so every
  // delivered datagram bounced a port-unreachable. Every ICMP error must
  // now answer a dropped datagram (perfbench/run.py's rule).
  scenario::ScaleWorldOptions options;
  options.routers = 16;
  options.foreign_agents = 4;
  options.mobile_hosts = 8;
  options.correspondents = 2;
  options.mean_dwell = sim::seconds(3);
  scenario::ScaleWorld w(options);
  w.run_for(sim::seconds(10));
  std::uint64_t errors = 0;
  std::uint64_t drops = 0;
  for (const auto& n : w.topo.nodes()) {
    const node::Node::Counters& c = n->counters();
    errors += c.icmp_errors_sent;
    drops += c.dropped_ttl + c.dropped_arp_timeout + c.dropped_no_route;
  }
  EXPECT_GT(w.recorder(0).flow(w.flow_id(0)).received, 0u);
  EXPECT_LE(errors, drops);
}

TEST(ScaleWorldHarness, DeliveredCountsOnlyCbrDatagrams) {
  // Regression: packets_delivered summed every unicast datagram a mobile
  // received, so a slice could deliver more than its flows sent.
  scenario::ScaleWorldOptions options;
  options.routers = 16;
  options.foreign_agents = 4;
  options.mobile_hosts = 8;
  options.correspondents = 2;
  options.mean_dwell = sim::seconds(3);
  scenario::ScaleWorld w(options);
  const scenario::ScaleRunStats s = w.run_for(sim::seconds(10));
  EXPECT_GT(s.packets_delivered, 0u);
  EXPECT_LE(s.packets_delivered, s.cbr_sent);
  EXPECT_LE(s.icmp_errors, s.ttl_drops + s.arp_timeouts + s.no_route_drops);
}

/// Where one RouteWalker::walk ended, and after how many hops.
struct RouteWalk {
  node::Node* end = nullptr;
  int hops = 0;
  std::string failure;  // empty when the walk arrived
};

/// Follows static routes hop by hop from a router toward an address. A
/// walk ends at the node owning the address, or at the router delivering
/// to it on a connected LAN; it fails on a missing route, a next hop
/// nobody owns, or a router visited twice.
class RouteWalker {
 public:
  explicit RouteWalker(const Topology& topo) {
    for (const auto& node : topo.nodes()) {
      for (const auto& iface : node->interfaces()) {
        owner_.emplace(iface->ip(), node.get());
      }
    }
  }

  [[nodiscard]] RouteWalk walk(node::Node& from, net::IpAddress dst) {
    RouteWalk walk;
    ++stamp_;
    node::Node* at = &from;
    visited_[at] = stamp_;
    while (!at->owns_address(dst)) {
      const routing::Route* route = at->routing_table().lookup(dst);
      if (route == nullptr) {
        walk.failure = "no route at " + at->name();
        return walk;
      }
      const bool connected = route->next_hop.is_unspecified();
      const auto next = owner_.find(connected ? dst : route->next_hop);
      if (next == owner_.end()) {
        walk.failure = "nobody owns the next hop from " + at->name();
        return walk;
      }
      if (connected && !next->second->forwarding()) break;  // a LAN host
      if (std::exchange(visited_[next->second], stamp_) == stamp_) {
        walk.failure = "loop back to " + next->second->name();
        return walk;
      }
      at = next->second;
      ++walk.hops;
    }
    walk.end = at;
    return walk;
  }

 private:
  std::unordered_map<net::IpAddress, node::Node*> owner_;
  std::unordered_map<const node::Node*, std::uint64_t> visited_;  // stamps
  std::uint64_t stamp_ = 0;
};

scenario::ScaleWorldOptions routing_world(
    scenario::ScaleWorldOptions::Backbone backbone, int routers) {
  scenario::ScaleWorldOptions options;
  options.backbone = backbone;
  options.routers = routers;
  options.foreign_agents = std::min(routers - 1, 16);
  options.mobile_hosts = 0;
  options.correspondents = 2;
  return options;
}

TEST(ScaleWorldRouting, AggregatedRoutesAreLoopFreeShortestPaths) {
  // Every router walks to each foreign agent, the home agent, each
  // correspondent and one address in each router's own block (its side
  // of a circuit to a lower-numbered router) in exactly the shortest
  // hop count. Any other router address is reached without a loop. A
  // 200-router grid is 15 wide with a last row of 5.
  using Backbone = scenario::ScaleWorldOptions::Backbone;
  const std::pair<Backbone, int> worlds[] = {
      {Backbone::kTree, 2},   {Backbone::kTree, 3},   {Backbone::kTree, 63},
      {Backbone::kTree, 200}, {Backbone::kGrid, 2},   {Backbone::kGrid, 3},
      {Backbone::kGrid, 5},   {Backbone::kGrid, 16},  {Backbone::kGrid, 200},
      {Backbone::kGrid, 576}};
  for (const auto& [backbone, n] : worlds) {
    scenario::ScaleWorld w(routing_world(backbone, n));
    const std::string world =
        std::string(backbone == Backbone::kTree ? "tree " : "grid ") +
        std::to_string(n);
    RouteWalker walker(w.topo);
    std::unordered_map<net::IpAddress, std::size_t> router_of;
    for (std::size_t r = 0; r < w.routers.size(); ++r) {
      for (const auto& iface : w.routers[r]->interfaces()) {
        router_of.emplace(iface->ip(), r);
      }
    }

    // (address, the router a walk must end at)
    std::vector<std::pair<net::IpAddress, const node::Node*>> exact;
    for (std::size_t j = 0; j < w.fas.size(); ++j) {
      exact.emplace_back(w.fas[j]->agent_address(), w.fa_routers[j]);
    }
    exact.emplace_back(w.ha->agent_address(), w.home_router);
    for (const node::Host* c : w.correspondents) {
      exact.emplace_back(c->primary_address(), w.routers.back());
    }
    std::vector<std::pair<net::IpAddress, const node::Node*>> others;
    for (std::size_t r = 0; r < w.routers.size(); ++r) {
      bool own_picked = false;
      for (const auto& iface : w.routers[r]->interfaces()) {
        bool to_lower = false;
        for (const net::Interface* peer : iface->link()->members()) {
          const auto it = router_of.find(peer->ip());
          to_lower |= it != router_of.end() && it->second < r;
        }
        if (to_lower && !own_picked) {
          exact.emplace_back(iface->ip(), w.routers[r]);
          own_picked = true;
        } else {
          others.emplace_back(iface->ip(), w.routers[r]);
        }
      }
    }

    for (const auto& [dst, owner] : exact) {
      const std::vector<int> distance = w.topo.hop_distances(*owner);
      for (std::size_t r = 0; r < w.routers.size(); ++r) {
        const RouteWalk walk = walker.walk(*w.routers[r], dst);
        ASSERT_TRUE(walk.failure.empty())
            << world << ": R" << r << " -> " << dst << ": " << walk.failure;
        ASSERT_EQ(walk.end, owner) << world << ": R" << r << " -> " << dst;
        ASSERT_EQ(walk.hops, distance[r]) << world << ": R" << r << " -> "
                                          << dst;
      }
    }
    for (const auto& [dst, owner] : others) {
      for (std::size_t r = 0; r < w.routers.size(); ++r) {
        const RouteWalk walk = walker.walk(*w.routers[r], dst);
        ASSERT_TRUE(walk.failure.empty())
            << world << ": R" << r << " -> " << dst << ": " << walk.failure;
        ASSERT_EQ(walk.end, owner) << world << ": R" << r << " -> " << dst;
      }
    }
  }
}

TEST(ScaleWorldHarness, RoutesPerRouterStayFlat) {
  // With an aggregating address plan no router's table grows with the
  // internetwork: O(log N) routes on a tree, O(sqrt N) on a grid.
  using Backbone = scenario::ScaleWorldOptions::Backbone;
  const std::pair<Backbone, int> worlds[] = {{Backbone::kTree, 255},
                                             {Backbone::kTree, 4095},
                                             {Backbone::kGrid, 16 * 16},
                                             {Backbone::kGrid, 64 * 64}};
  for (const auto& [backbone, n] : worlds) {
    scenario::ScaleWorldOptions options = routing_world(backbone, n);
    options.mobile_hosts = 4;
    scenario::ScaleWorld w(options);
    std::size_t largest = 0;
    for (node::Router* r : w.routers) {
      largest = std::max(largest, r->routing_table().size());
    }
    const auto bound =
        backbone == Backbone::kTree
            ? 2 * static_cast<std::size_t>(std::ceil(std::log2(n))) + 16
            : 2 * static_cast<std::size_t>(std::ceil(std::sqrt(n))) + 16;
    EXPECT_LE(largest, bound)
        << (backbone == Backbone::kTree ? "tree " : "grid ") << n;
  }
}

TEST(MhrpWorldHarness, HelpersReportConsistentState) {
  scenario::MhrpWorldOptions options;
  options.foreign_sites = 2;
  options.mobile_hosts = 2;
  scenario::MhrpWorld w(options);
  EXPECT_EQ(w.total_agent_state(), 2u);  // two provisioned DB rows
  ASSERT_TRUE(w.move_and_register(0, 0));
  ASSERT_TRUE(w.move_and_register(1, 1));
  // Two DB rows + two visiting entries (+ any caches).
  EXPECT_GE(w.total_agent_state(), 4u);
  EXPECT_EQ(w.fa_address(0), ip("10.2.0.1"));
  EXPECT_EQ(w.mobile_address(1), ip("10.1.0.101"));
}

}  // namespace
}  // namespace mhrp
