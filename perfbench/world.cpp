// One run of a repository-benchmark workload: builds a seeded ScaleWorld,
// warms it up, times one simulated slice, checks nothing itself, and prints
// every measurement as one JSON object on the last line of stdout.
//
//   perfbench_world        --workload forward|roam --seed N
//   perfbench_world_traced --workload forward|roam --seed N
//
// Both binaries come from this file. The untraced one carries only what
// the end-to-end metrics need: wall-clock set-up and slice times, peak RSS,
// and a delivery hook on every mobile for one-way CBR latency. The traced
// one (PERFBENCH_TRACED=1) runs the same world with the event-loop
// profiler, a global operator-new counter, and capture hooks whose
// recordings are replayed through RoutingTable::lookup and a fresh WalStore
// after the slice has ended. Both print the hash of metrics_digest(), so
// the caller can check that the two simulated the same run.
//
// Everything here observes ScaleWorld from outside, through public
// options, hooks, and counters. perfbench/README.md explains the
// workloads and what each metric is for.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "scenario/scale_world.hpp"
#include "store/sim_disk.hpp"
#include "store/wal_store.hpp"
#include "telemetry/json_writer.hpp"
#include "util/checksum.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if PERFBENCH_TRACED
// Every operator new in the process lands here; the slice reads the
// counter before and after. Array and nothrow forms forward to these.
namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using namespace mhrp;
using Clock = std::chrono::steady_clock;

constexpr bool kTraced = PERFBENCH_TRACED != 0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  scenario::ScaleWorldOptions options;
  sim::Time warmup = sim::seconds(2);  // discovery, first bindings, caches
  sim::Time slice = sim::seconds(10);  // the measured part
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  scenario::ScaleWorldOptions& o = w.options;
  o.link_latency = sim::millis(1);
  o.cbr_payload = 64;
  o.correspondents = 8;
  o.protocol.seed = seed;
  if (name == "forward") {
    // Long unicast paths through full routing tables, inside tunnels the
    // correspondents build; little registration and no store. 1024 hosts
    // at an 8 s dwell put about 1,260 handoffs in a slice, enough for a
    // p99, at the datagram rate of 256 hosts sending every 20 ms.
    o.backbone = scenario::ScaleWorldOptions::Backbone::kGrid;
    o.routers = 576;
    o.foreign_agents = 24;
    o.mobile_hosts = 1024;
    o.mean_dwell = sim::seconds(8);
    o.cbr_interval = sim::millis(80);
  } else if (name == "roam") {
    // Fast movement: registrations, cell broadcasts, and the durable
    // home-agent store, on a large build with light unicast.
    o.backbone = scenario::ScaleWorldOptions::Backbone::kTree;
    o.routers = 2048;
    o.foreign_agents = 64;
    o.mobile_hosts = 4000;
    o.mean_dwell = sim::seconds(4);
    o.cbr_interval = sim::seconds(1);
    store::StoreOptions& s = o.protocol.store;
    s.enabled = true;
    s.sync_policy = store::SyncPolicy::kInterval;
    s.compaction_slice_rows = 256;
    // Each snapshot region holds 8 + 12 bytes per row plus the patch of
    // rows touched mid-pass; give both twice that, and the log 2 MiB.
    const std::size_t rows = static_cast<std::size_t>(o.mobile_hosts);
    s.snapshot_region_sectors = 2 * ((8 + 12 * rows) / s.sector_size + 1);
    s.disk_sectors = 2 + 2 * s.snapshot_region_sectors + 4096;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint16_t cbr_port(std::size_t mobile) {
  // ScaleWorld's CbrFlow addresses mobile i on this port.
  return static_cast<std::uint16_t>(4000 + mobile % 1000);
}

// ---- Counters summed over the world, read before and after the slice ----

enum Counter : std::size_t {
  kSent,           // correspondents' ip_sent
  kReceived,       // CBR datagrams received, counted per flow
  kMoves,
  kRegistrations,
  kRetransmits,
  kAbandoned,
  kForwarded,
  kTtlDrops,
  kArpTimeouts,
  kNoRouteDrops,
  kIcmpErrors,
  kFrames,
  kTunnels,        // tunnels_built + retunnels over every agent
  kExamined,       // foreign agents' packets_examined
  kUpdatesSent,    // agents' and mobiles' location updates
  kCacheHits,      // correspondents' LocationCache
  kCacheLookups,
  kAppends,
  kBatches,
  kSyncs,
  kAcksDeferred,
  kHandoffs,
  kCounterCount,
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters read_counters(scenario::ScaleWorld& w) {
  Counters c{};
  for (const node::Host* h : w.correspondents) c[kSent] += h->counters().ip_sent;
  for (std::size_t i = 0; i < w.mobiles.size(); ++i) {
    const int m = static_cast<int>(i);
    c[kReceived] += w.recorder(m).flow(w.flow_id(m)).received;
    const core::MobileHostStats& s = w.mobiles[i]->stats();
    c[kMoves] += s.moves;
    c[kRegistrations] += s.registrations_completed;
    c[kRetransmits] += s.registration_retransmits;
    c[kAbandoned] += s.registrations_abandoned;
    c[kUpdatesSent] += s.updates_sent;
  }
  for (const auto& n : w.topo.nodes()) {
    const node::Node::Counters& k = n->counters();
    c[kForwarded] += k.forwarded;
    c[kTtlDrops] += k.dropped_ttl;
    c[kArpTimeouts] += k.dropped_arp_timeout;
    c[kNoRouteDrops] += k.dropped_no_route;
    c[kIcmpErrors] += k.icmp_errors_sent;
  }
  for (const auto& l : w.topo.links()) c[kFrames] += l->frames_carried();
  auto agent = [&c](const core::MhrpAgent& a) {
    c[kTunnels] += a.stats().tunnels_built + a.stats().retunnels;
    c[kUpdatesSent] += a.stats().updates_sent;
  };
  agent(*w.ha);
  for (const auto& fa : w.fas) {
    agent(*fa);
    c[kExamined] += fa->stats().packets_examined;
  }
  for (const auto& ca : w.corr_agents) {
    agent(*ca);
    const core::LocationCache::Stats& s = ca->cache().stats();
    c[kCacheHits] += s.hits;
    c[kCacheLookups] += s.hits + s.misses;
  }
  if (w.ha_store) {
    const store::WalStoreStats& s = w.ha_store->wal().stats();
    c[kAppends] += s.appends;
    c[kBatches] += s.batches;
    c[kSyncs] += s.syncs;
    c[kAcksDeferred] += w.ha_store->stats().acks_deferred;
  }
  c[kHandoffs] = w.handoff_latencies().size();
  return c;
}

// ---- Simulated-time percentiles ----

// Every hop costs exactly one 1 ms link latency, so simulated latencies sit
// on a 1 ms grid with heavy ties, and a plain order statistic would not
// move until a whole quantum of samples shifted. The percentile is read
// off the grouped distribution instead: classes one quantum wide centred
// on the grid, with linear interpolation inside the class that holds the
// rank (the textbook grouped-data percentile). Returns milliseconds, or
// nothing when fewer than ten samples rank above the percentile.
std::optional<double> grouped_percentile_ms(std::vector<sim::Time> samples,
                                            double p, sim::Time quantum) {
  const double n = static_cast<double>(samples.size());
  if (n * (1.0 - p) < 10.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  auto class_of = [quantum](sim::Time t) { return (t + quantum / 2) / quantum; };
  const double target = p * n;
  std::size_t below = 0;
  std::size_t i = 0;
  while (i < samples.size()) {
    const sim::Time k = class_of(samples[i]);
    std::size_t j = i;
    while (j < samples.size() && class_of(samples[j]) == k) ++j;
    const double in_class = static_cast<double>(j - i);
    if (static_cast<double>(below) + in_class >= target) {
      const double lower = static_cast<double>(k * quantum - quantum / 2);
      const double frac = (target - static_cast<double>(below)) / in_class;
      return (lower + frac * static_cast<double>(quantum)) / 1000.0;
    }
    below = j;
    i = j;
  }
  return static_cast<double>(samples.back()) / 1000.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Traced-run replays, timed after the slice ----

struct Lookup {
  const routing::RoutingTable* table;
  net::IpAddress dst;
};

struct BindingChange {
  sim::Time at;
  net::IpAddress mobile;
  net::IpAddress foreign_agent;
};

// Keeps lookup results observable so the timed loop is not elided.
volatile std::uintptr_t g_replay_sink = 0;

constexpr int kReplayRounds = 5;

/// Median ns per RoutingTable::lookup over the captured pairs.
double time_lookups(const std::vector<Lookup>& pairs) {
  if (pairs.empty()) return 0.0;
  std::vector<double> per_lookup;
  for (int round = 0; round < kReplayRounds; ++round) {
    std::uintptr_t sink = 0;
    const auto t0 = Clock::now();
    for (const Lookup& l : pairs) {
      sink += reinterpret_cast<std::uintptr_t>(l.table->lookup(l.dst));
    }
    const auto t1 = Clock::now();
    g_replay_sink = g_replay_sink + sink;
    per_lookup.push_back(seconds_between(t0, t1) * 1e9 /
                         static_cast<double>(pairs.size()));
  }
  return scenario::percentile(per_lookup, 50);
}

/// Median ns per WalStore::append_buffered, with one sync at each
/// group-commit window boundary the captured changes crossed, replayed on
/// a fresh disk formatted and provisioned like the home agent's.
double time_store_appends(const std::vector<BindingChange>& changes,
                          const store::StoreOptions& options,
                          const scenario::ScaleWorld& world) {
  if (changes.empty() || !options.enabled) return 0.0;
  std::vector<double> per_append;
  for (int round = 0; round < kReplayRounds; ++round) {
    store::SimDisk disk(options.sector_size, options.disk_sectors);
    store::WalStore wal(disk, options);
    wal.format();
    for (int i = 0; i < world.options.mobile_hosts; ++i) {
      (void)wal.append_buffered({store::WalRecord::Kind::kProvision,
                                 world.mobile_address(i), net::IpAddress(), 0});
    }
    if (!wal.sync()) return 0.0;
    const sim::Time window = std::max<sim::Time>(options.sync_interval, 1);
    sim::Time open_window = changes.front().at / window;
    std::uint32_t sequence = 0;
    const auto t0 = Clock::now();
    for (const BindingChange& c : changes) {
      if (c.at / window != open_window) {
        (void)wal.sync();
        open_window = c.at / window;
      }
      (void)wal.append_buffered({store::WalRecord::Kind::kBinding, c.mobile,
                                 c.foreign_agent, ++sequence});
    }
    (void)wal.sync();
    const auto t1 = Clock::now();
    per_append.push_back(seconds_between(t0, t1) * 1e9 /
                         static_cast<double>(changes.size()));
  }
  return scenario::percentile(per_append, 50);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---- One run ----

/// What the hooks record in the slice. Declared before the world, so it
/// outlives the hooks that point into it.
struct Recording {
  bool measuring = false;
  std::vector<sim::Time> latencies;  // one-way, per CBR datagram received
  std::uint64_t header_bytes = 0;
  std::vector<Lookup> lookups;  // traced only, capped at kMaxLookups
  std::vector<BindingChange> changes;  // traced only
};
constexpr std::size_t kMaxLookups = std::size_t(1) << 20;

int run(const std::string& name, const Workload& wl) {
  scenario::ScaleWorldOptions options = wl.options;
  options.telemetry.profiler = kTraced;
  Recording rec;

  const auto t_build = Clock::now();
  scenario::ScaleWorld world(options);
  // A sink on every CBR port, so datagrams are consumed instead of
  // bouncing a port-unreachable that would drop the correspondent's
  // cache entry.
  for (std::size_t i = 0; i < world.mobiles.size(); ++i) {
    world.mobiles[i]->bind_udp(cbr_port(i), [](const net::UdpDatagram&,
                                               const net::IpHeader&,
                                               net::Interface&) {});
  }
  world.start();

  // Flow ids exist once start() has created the flows.
  sim::Executive& clock = world.topo.sim();
  for (std::size_t i = 0; i < world.mobiles.size(); ++i) {
    node::Node& mobile = *world.mobiles[i];
    const std::uint64_t flow = world.flow_id(static_cast<int>(i));
    mobile.on_deliver_hook = [&rec, &clock, flow,
                              previous = std::move(mobile.on_deliver_hook)](
                                 const net::Packet& p) {
      if (rec.measuring && p.flow_id() == flow) {
        rec.latencies.push_back(clock.now() - p.created_at());
        if (p.max_wire_size() > 20 + p.base_payload_size()) {
          rec.header_bytes += p.max_wire_size() - 20 - p.base_payload_size();
        }
      }
      if (previous) previous(p);
    };
  }
  if constexpr (kTraced) {
    rec.lookups.reserve(kMaxLookups);
    for (const auto& n : world.topo.nodes()) {
      node::Node& node = *n;
      node.on_forward_hook =
          [&rec, table = &node.routing_table(),
           previous = std::move(node.on_forward_hook)](
              const net::Packet& p, net::Interface& out) {
            if (rec.measuring && rec.lookups.size() < kMaxLookups) {
              rec.lookups.push_back({table, p.header().dst});
            }
            if (previous) previous(p, out);
          };
    }
    world.ha->on_binding_changed =
        [&rec, &clock, previous = std::move(world.ha->on_binding_changed)](
            net::IpAddress mobile, net::IpAddress fa) {
          if (rec.measuring) rec.changes.push_back({clock.now(), mobile, fa});
          if (previous) previous(mobile, fa);
        };
  }

  (void)world.run_for(wl.warmup);
  const auto t_warm = Clock::now();

  const Counters before = read_counters(world);
  sim::EventLoopProfiler* profiler = world.instruments.profiler();
  if (profiler != nullptr) profiler->reset();
#if PERFBENCH_TRACED
  const std::uint64_t allocs_before = g_allocations;
#endif
  rec.measuring = true;
  const auto t_slice = Clock::now();
  const std::uint64_t events = world.run_for(wl.slice).events_executed;
  const auto t_end = Clock::now();
  rec.measuring = false;
#if PERFBENCH_TRACED
  const std::uint64_t allocations = g_allocations - allocs_before;
#else
  const std::uint64_t allocations = 0;
#endif
  const Counters after = read_counters(world);
  Counters d{};
  for (std::size_t k = 0; k < kCounterCount; ++k) d[k] = after[k] - before[k];

  const double setup_s = seconds_between(t_build, t_warm);
  const double run_s = seconds_between(t_slice, t_end);
  const std::string digest = world.metrics_digest();

  const std::vector<double>& handoff_s = world.handoff_latencies();
  std::vector<sim::Time> handoffs;
  for (std::size_t k = handoff_s.size() - d[kHandoffs]; k < handoff_s.size();
       ++k) {
    handoffs.push_back(sim::from_seconds(handoff_s[k]));
  }
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };

  telemetry::JsonWriter json(std::cout);
  auto field = [&json](const char* key, auto value) {
    json.key(key);
    json.value(value);
  };
  json.begin_object();
  field("workload", name);
  field("seed", wl.options.protocol.seed);
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("compiler", compiler());
  field("warmup_s", sim::to_seconds(wl.warmup));
  field("slice_s", sim::to_seconds(wl.slice));
  // The digest text is long; its CRC is enough to compare runs.
  field("digest", static_cast<std::uint64_t>(util::crc32(std::span(
                      reinterpret_cast<const std::uint8_t*>(digest.data()),
                      digest.size()))));

  // End-to-end metrics; the simulated-time ones cover the slice only.
  json.key("metrics");
  json.begin_object();
  field("setup_s", setup_s);
  field("run_s", run_s);
  field("peak_rss_mb", peak_rss_mb());
  field("delivery_ratio", ratio(d[kReceived], d[kSent]));
  field("registration_ratio", ratio(d[kRegistrations], d[kMoves]));
  const sim::Time quantum = wl.options.link_latency;
  auto add_percentile = [&](const char* key,
                            const std::vector<sim::Time>& v, double p) {
    if (auto ms = grouped_percentile_ms(v, p, quantum)) field(key, *ms);
  };
  add_percentile("handoff_p50_ms", handoffs, 0.50);
  add_percentile("handoff_p99_ms", handoffs, 0.99);
  add_percentile("pkt_latency_p50_ms", rec.latencies, 0.50);
  add_percentile("pkt_latency_p99_ms", rec.latencies, 0.99);
  field("overhead_bytes_mean",
        ratio(rec.header_bytes, rec.latencies.size()));
  json.end_object();

  // Slice counters the caller checks on every run.
  json.key("counts");
  json.begin_object();
  field("sent", d[kSent]);
  field("received", d[kReceived]);
  field("moves", d[kMoves]);
  field("registrations", d[kRegistrations]);
  field("handoffs", handoffs.size());
  field("latency_samples", rec.latencies.size());
  field("ttl_drops", d[kTtlDrops]);
  field("arp_timeouts", d[kArpTimeouts]);
  field("no_route_drops", d[kNoRouteDrops]);
  field("icmp_errors", d[kIcmpErrors]);
  field("events", events);
  json.end_object();

  if constexpr (kTraced) {
    const double ev = static_cast<double>(std::max<std::uint64_t>(events, 1));
    auto per_event_ns = [profiler](sim::EventCategory c) {
      const sim::EventLoopProfiler::Bucket& b = profiler->bucket(c);
      return b.events == 0 ? 0.0
                           : b.wall_seconds * 1e9 / static_cast<double>(b.events);
    };
    std::uint64_t routes_total = 0;
    std::uint64_t routes_max = 0;
    for (const auto& n : world.topo.nodes()) {
      const std::uint64_t size = n->routing_table().size();
      routes_total += size;
      routes_max = std::max(routes_max, size);
    }
    const std::uint64_t link_deliveries =
        profiler->bucket(sim::EventCategory::kLinkDelivery).events;

    json.key("layers");
    json.begin_object();
    field("sim.events", events);
    field("sim.allocs_per_event", static_cast<double>(allocations) / ev);
    field("sim.dispatch_ns",
          (run_s - profiler->total_wall_seconds()) * 1e9 / ev);
    field("net.delivery_ns", per_event_ns(sim::EventCategory::kLinkDelivery));
    field("net.deliveries", link_deliveries);
    field("net.frames", d[kFrames]);
    field("net.fanout", ratio(link_deliveries, d[kFrames]));
    field("node.hops_per_pkt", ratio(d[kForwarded], d[kReceived]));
    field("node.ttl_drops", d[kTtlDrops]);
    field("node.arp_timeouts", d[kArpTimeouts]);
    field("node.icmp_errors", d[kIcmpErrors]);
    field("node.arp_ns", per_event_ns(sim::EventCategory::kArp));
    field("routing.lookup_ns", time_lookups(rec.lookups));
    field("routing.routes_total", routes_total);
    field("routing.routes_max", routes_max);
    field("core.ca_hit_ratio", ratio(d[kCacheHits], d[kCacheLookups]));
    field("core.tunnels_per_pkt", ratio(d[kTunnels], d[kReceived]));
    field("core.examined_per_pkt", ratio(d[kExamined], d[kReceived]));
    field("core.updates_sent", d[kUpdatesSent]);
    field("core.movement_ns", per_event_ns(sim::EventCategory::kMovement));
    field("core.advert_ns", per_event_ns(sim::EventCategory::kAdvertisement));
    field("core.reg_retransmits", d[kRetransmits]);
    field("core.reg_abandoned", d[kAbandoned]);
    field("core.agent_state_total", world.total_agent_state());
    field("core.agent_state_busiest", world.busiest_node_state());
    field("store.appends", d[kAppends]);
    field("store.batches", d[kBatches]);
    field("store.syncs", d[kSyncs]);
    field("store.acks_deferred", d[kAcksDeferred]);
    field("store.sync_ns", per_event_ns(sim::EventCategory::kStoreSync));
    field("store.append_ns",
          time_store_appends(rec.changes, wl.options.protocol.store, world));
    field("scenario.cbr_send_ns", per_event_ns(sim::EventCategory::kWorkload));
    json.end_object();
  }
  json.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 7;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::optional<Workload> wl = make_workload(workload, seed);
  if (!wl) {
    std::fprintf(stderr,
                 "usage: %s --workload forward|roam --seed N\n", argv[0]);
    return 2;
  }
  return run(workload, *wl);
}
