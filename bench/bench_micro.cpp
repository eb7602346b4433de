// E10 — infrastructure micro-benchmarks: the per-packet primitive costs
// underlying every experiment. MHRP header encode/decode, §4.1/§4.4
// transforms, location-cache operations, the Internet checksum, IP
// packet (de)serialization, the event queue, and routing-table build and
// lookup.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "routing/routing_table.hpp"
#include "sim/event_queue.hpp"
#include "util/checksum.hpp"

using namespace mhrp;

namespace {

net::Packet sample_packet() {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = net::IpAddress::parse("10.1.0.10");
  h.dst = net::IpAddress::parse("10.2.0.77");
  std::vector<std::uint8_t> payload(64, 0x42);
  return net::Packet(h, net::encode_udp({1, 2}, payload));
}

void BM_ChecksumIpHeader(benchmark::State& state) {
  std::vector<std::uint8_t> header(20, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(header));
  }
}
BENCHMARK(BM_ChecksumIpHeader);

void BM_ChecksumMtuPayload(benchmark::State& state) {
  std::vector<std::uint8_t> payload(1500, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(payload));
  }
}
BENCHMARK(BM_ChecksumMtuPayload);

void BM_MhrpHeaderEncode(benchmark::State& state) {
  core::MhrpHeader h;
  h.orig_protocol = 17;
  h.mobile_host = net::IpAddress::parse("10.2.0.77");
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    h.previous_sources.emplace_back(std::uint32_t(0x0A000001 + i));
  }
  for (auto _ : state) {
    util::ByteWriter w(h.encoded_size());
    h.encode(w);
    benchmark::DoNotOptimize(w.take());
  }
}
BENCHMARK(BM_MhrpHeaderEncode)->Arg(0)->Arg(2)->Arg(8);

void BM_MhrpHeaderDecode(benchmark::State& state) {
  core::MhrpHeader h;
  h.orig_protocol = 17;
  h.mobile_host = net::IpAddress::parse("10.2.0.77");
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    h.previous_sources.emplace_back(std::uint32_t(0x0A000001 + i));
  }
  util::ByteWriter w;
  h.encode(w);
  auto bytes = w.take();
  for (auto _ : state) {
    util::ByteReader r(bytes);
    benchmark::DoNotOptimize(core::MhrpHeader::decode(r));
  }
}
BENCHMARK(BM_MhrpHeaderDecode)->Arg(0)->Arg(2)->Arg(8);

void BM_EncapsulateDecapsulate(benchmark::State& state) {
  const net::Packet original = sample_packet();
  const net::IpAddress fa = net::IpAddress::parse("10.4.0.1");
  const net::IpAddress ha = net::IpAddress::parse("10.2.0.1");
  for (auto _ : state) {
    net::Packet p = original;
    core::encapsulate(p, fa, ha);
    benchmark::DoNotOptimize(core::decapsulate(p));
  }
}
BENCHMARK(BM_EncapsulateDecapsulate);

void BM_Retunnel(benchmark::State& state) {
  net::Packet tunneled = sample_packet();
  core::encapsulate(tunneled, net::IpAddress::parse("10.4.0.1"),
                    net::IpAddress::parse("10.2.0.1"));
  for (auto _ : state) {
    net::Packet p = tunneled;
    benchmark::DoNotOptimize(
        core::retunnel(p, net::IpAddress::parse("10.4.0.1"),
                       net::IpAddress::parse("10.5.0.1"), 8));
  }
}
BENCHMARK(BM_Retunnel);

void BM_PacketSerializeRoundTrip(benchmark::State& state) {
  const net::Packet p = sample_packet();
  for (auto _ : state) {
    auto wire = p.serialize();
    benchmark::DoNotOptimize(net::Packet::deserialize(wire));
  }
}
BENCHMARK(BM_PacketSerializeRoundTrip);

void BM_LocationCacheHit(benchmark::State& state) {
  core::LocationCache cache(1024);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    cache.update(net::IpAddress(0x0A000000 + i),
                 net::IpAddress(0x0B000000 + i));
  }
  std::uint32_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(net::IpAddress(0x0A000000 + (cursor++ % 1000))));
  }
}
BENCHMARK(BM_LocationCacheHit);

void BM_LocationCacheUpdateWithEviction(benchmark::State& state) {
  core::LocationCache cache(256);
  std::uint32_t cursor = 0;
  for (auto _ : state) {
    cache.update(net::IpAddress(0x0A000000 + cursor++),
                 net::IpAddress::parse("10.4.0.1"));
  }
  state.counters["evictions"] = double(cache.stats().evictions);
}
BENCHMARK(BM_LocationCacheUpdateWithEviction);

// The slab event queue over its two hot patterns: schedule then pop
// (pure throughput) and schedule then cancel (the timer-churn pattern —
// every retransmit timer that is armed and then disarmed).

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      (void)q.schedule(t + (i * 7919) % 100, [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop());
    }
    t += 100;
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueScheduleAndCancel(benchmark::State& state) {
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    // One survivor past every cancelled event, so the single pop below
    // drains the round's tombstones from the heap.
    auto keep = q.schedule(t + 1000, [] {});
    for (int i = 0; i < 16; ++i) {
      auto h = q.schedule(t + (i * 7919) % 100, [] {});
      benchmark::DoNotOptimize(q.cancel(h));
    }
    (void)keep;
    benchmark::DoNotOptimize(q.pop());
    t += 10000;
  }
}
BENCHMARK(BM_EventQueueScheduleAndCancel);

// One router's table at the perfbench workloads' shapes, in ScaleWorld's
// address plan: a /30 per backbone link (172.16.0.0/16), a /24 per
// foreign cell (192.168.j.0/24) plus the correspondent LAN
// (10.200.0.0/24), and the home network (10.0.0.0/11).

struct RouterShape {
  int backbone_links;
  int connected_links;  // this router's own /30s, installed first
  int cells;
};
// A leaf router of roam's 2048-router tree: 2,113 routes.
constexpr RouterShape kRoamTreeLeaf{2047, 1, 64};
// An inner router of forward's 24 x 24 grid: 1,130 routes.
constexpr RouterShape kForwardGridInner{1104, 4, 24};

std::vector<routing::Route> shaped_routes(const RouterShape& shape) {
  const net::IpAddress via = net::IpAddress::parse("172.16.0.2");
  std::vector<routing::Route> routes;
  for (int i = 0; i < shape.backbone_links; ++i) {
    const bool connected = i < shape.connected_links;
    routes.push_back(
        {net::Prefix(net::IpAddress(0xAC100000u + 4u * std::uint32_t(i)), 30),
         connected ? net::kUnspecified : via, nullptr,
         connected ? 0 : 1 + i % 40,
         connected ? routing::RouteKind::kConnected
                   : routing::RouteKind::kStatic});
  }
  for (int j = 0; j < shape.cells; ++j) {
    routes.push_back(
        {net::Prefix(net::IpAddress(0xC0A80000u + 256u * std::uint32_t(j)), 24),
         via, nullptr, 1 + j % 40, routing::RouteKind::kStatic});
  }
  routes.push_back({net::Prefix::parse("10.200.0.0/24"), via, nullptr, 20,
                    routing::RouteKind::kStatic});
  routes.push_back({net::Prefix::parse("10.0.0.0/11"), via, nullptr, 20,
                    routing::RouteKind::kStatic});
  return routes;
}

/// Builds the table as a topology does: connected routes when the
/// interfaces are added, then one sizing and the static routes.
void build_table(routing::RoutingTable& table,
                 const std::vector<routing::Route>& routes,
                 const RouterShape& shape) {
  const auto connected = static_cast<std::size_t>(shape.connected_links);
  for (std::size_t i = 0; i < connected; ++i) table.install(routes[i]);
  table.reserve(routes.size());
  for (std::size_t i = connected; i < routes.size(); ++i) {
    table.install(routes[i]);
  }
}

void BM_RoutingTableBuild(benchmark::State& state, RouterShape shape) {
  const std::vector<routing::Route> routes = shaped_routes(shape);
  for (auto _ : state) {
    routing::RoutingTable table;
    build_table(table, routes, shape);
    benchmark::DoNotOptimize(&table);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(routes.size()));
}
BENCHMARK_CAPTURE(BM_RoutingTableBuild, roam_tree, kRoamTreeLeaf);
BENCHMARK_CAPTURE(BM_RoutingTableBuild, forward_grid, kForwardGridInner);

// Tunneled unicast goes to a foreign agent's cell address (/24) or a
// mobile's home address (/11), each after a miss at /30.
void BM_RoutingTableLookup(benchmark::State& state, RouterShape shape) {
  const std::vector<routing::Route> routes = shaped_routes(shape);
  routing::RoutingTable table;
  build_table(table, routes, shape);
  std::vector<net::IpAddress> destinations;
  for (int j = 0; j < shape.cells; ++j) {
    destinations.emplace_back(0xC0A80001u + 256u * std::uint32_t(j));
    destinations.emplace_back(0x0A010100u + 37u * std::uint32_t(j));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(destinations[cursor]));
    cursor = cursor + 1 == destinations.size() ? 0 : cursor + 1;
  }
}
BENCHMARK_CAPTURE(BM_RoutingTableLookup, roam_tree, kRoamTreeLeaf);
BENCHMARK_CAPTURE(BM_RoutingTableLookup, forward_grid, kForwardGridInner);

}  // namespace
