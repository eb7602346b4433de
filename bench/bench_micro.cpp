// E10 — infrastructure micro-benchmarks: the per-packet primitive costs
// underlying every experiment. MHRP header encode/decode, §4.1/§4.4
// transforms, location-cache operations, the Internet checksum, IP
// packet (de)serialization, and the event queue.
#include <benchmark/benchmark.h>

#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
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

}  // namespace
