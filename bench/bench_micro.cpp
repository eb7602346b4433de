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
#include "scenario/scale_world.hpp"
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

// The slab event queue over its hot patterns: schedule then pop (pure
// throughput), schedule then cancel (every retransmit timer that is
// armed and then disarmed), and far re-arms among near-term pops (the
// agent-lifetime timer).

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

// A mobile host re-arms its 15 s agent-lifetime timer on every
// advertisement it hears (paper §3), so the timer is cancelled long
// before its entry could drain, while link deliveries pop around it.
// Each iteration re-arms one of 1,024 timers 15 s ahead, round robin,
// and pops one of 64 delivery streams, which schedules its next
// delivery 1 ms on. `heap_per_live` is heap entries per live event at
// the end: the dead mass the re-arms leave in the heap.
void BM_EventQueueRearmChurn(benchmark::State& state) {
  constexpr std::size_t kTimers = 1024;
  constexpr int kStreams = 64;
  sim::EventQueue q;
  std::vector<sim::EventHandle> timers(kTimers);
  for (int i = 0; i < kStreams; ++i) (void)q.schedule(i, [] {});
  std::size_t next = 0;
  for (auto _ : state) {
    const sim::Time now = q.next_time();
    sim::EventHandle& timer = timers[next];
    next = next + 1 == kTimers ? 0 : next + 1;
    (void)q.cancel(timer);
    timer = q.schedule(now + sim::seconds(15), [] {});
    auto fired = q.pop();
    benchmark::DoNotOptimize(fired);
    (void)q.schedule(fired.when + sim::millis(1), [] {});
  }
  state.counters["heap_per_live"] = static_cast<double>(q.heap_entries()) /
                                    static_cast<double>(q.size());
}
BENCHMARK(BM_EventQueueRearmChurn);

// One router's table at the perfbench workloads' shapes: the largest
// table a ScaleWorld of that backbone, router count and foreign-agent
// count builds, with the addresses tunneled unicast looks up there.

struct WorkloadShape {
  scenario::ScaleWorldOptions::Backbone backbone;
  int routers;
  int foreign_agents;
};
// roam: a 2048-router tree with 64 foreign agents.
constexpr WorkloadShape kRoamTree{scenario::ScaleWorldOptions::Backbone::kTree,
                                  2048, 64};
// forward: a 24 x 24 grid with 24 foreign agents.
constexpr WorkloadShape kForwardGrid{
    scenario::ScaleWorldOptions::Backbone::kGrid, 576, 24};

struct ShapedTable {
  std::vector<routing::Route> routes;  // as RoutingTable::routes() lists them
  // Each foreign agent's cell address (a /24 inside its router's block)
  // and a mobile's home address (the /11).
  std::vector<net::IpAddress> destinations;
};

ShapedTable shaped_table(const WorkloadShape& shape) {
  scenario::ScaleWorldOptions options;
  options.backbone = shape.backbone;
  options.routers = shape.routers;
  options.foreign_agents = shape.foreign_agents;
  options.mobile_hosts = 0;
  scenario::ScaleWorld world(options);
  ShapedTable table;
  for (node::Router* router : world.routers) {
    if (router->routing_table().size() > table.routes.size()) {
      table.routes = router->routing_table().routes();
    }
  }
  // The world's interfaces die with it; lookup never reads them.
  for (routing::Route& route : table.routes) route.iface = nullptr;
  for (std::size_t j = 0; j < world.fas.size(); ++j) {
    table.destinations.push_back(world.fas[j]->agent_address());
    table.destinations.push_back(
        world.mobile_address(37 * static_cast<int>(j)));
  }
  return table;
}

void BM_RoutingTableBuild(benchmark::State& state, WorkloadShape shape) {
  const ShapedTable shaped = shaped_table(shape);
  for (auto _ : state) {
    routing::RoutingTable table;
    for (const routing::Route& route : shaped.routes) table.install(route);
    benchmark::DoNotOptimize(&table);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shaped.routes.size()));
}
BENCHMARK_CAPTURE(BM_RoutingTableBuild, roam_tree, kRoamTree);
BENCHMARK_CAPTURE(BM_RoutingTableBuild, forward_grid, kForwardGrid);

void BM_RoutingTableLookup(benchmark::State& state, WorkloadShape shape) {
  const ShapedTable shaped = shaped_table(shape);
  routing::RoutingTable table;
  for (const routing::Route& route : shaped.routes) table.install(route);
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(shaped.destinations[cursor]));
    cursor = cursor + 1 == shaped.destinations.size() ? 0 : cursor + 1;
  }
}
BENCHMARK_CAPTURE(BM_RoutingTableLookup, roam_tree, kRoamTree);
BENCHMARK_CAPTURE(BM_RoutingTableLookup, forward_grid, kForwardGrid);

}  // namespace
