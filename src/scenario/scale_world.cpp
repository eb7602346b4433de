#include "scenario/scale_world.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "analysis/packet_auditor.hpp"
#include "scenario/replay_digest.hpp"
#include "telemetry/json_writer.hpp"

namespace mhrp::scenario {

namespace {

// Address plan:
//   10.0.0.0/11   home LAN on router 0; HA is 10.1.0.1, mobiles from
//                 10.1.1.0 (a /11 so two million mobiles fit in one home
//                 prefix)
//   128.0.0.0/2   router blocks. Every router but router 0 owns one
//                 aligned block that holds every prefix it originates: the
//                 /30 of each backbone link to a lower-numbered router (a
//                 tree router's uplink; a grid router's links from the left
//                 and from above), the /24 of its cell if it hosts a foreign
//                 agent (FA at .1), and on the last router the
//                 correspondent LAN /24 (hosts from .10). Blocks nest: a
//                 tree router's subtree block holds its own block and its
//                 children's subtree blocks; a grid router's block lies in
//                 its row's block. Each block is the smallest power of two
//                 that holds its parts packed largest first, which keeps
//                 every part aligned. Nesting costs room: a subtree block
//                 can be four times its children's, so the /2 holds trees
//                 of up to about 30,000 routers and grids of far more.
// Topology::install_static_routes then gives a router one route per
// child block, per ancestor's block and per ancestor's other child on a
// tree, and one per other row and per other router in its row on a
// grid, instead of one per router-interface prefix. A grid route to
// another row runs down the source's column first. The one prefix the
// grid does not aggregate, the home LAN, is reached along the source's
// row first instead (ties go to the higher-numbered neighbor), which is
// the reverse of router 0's routes out. The correspondents' datagrams to
// the home network and the home agent's location updates back to them
// thus cross the same routers, whose cache agents learn from the updates
// they forward (§4.3).
constexpr int kHomePrefixLength = 11;                 // 10.0.0.0/11
constexpr std::uint32_t kHomeLanBase = 0x0A010000;    // 10.1.0.0
constexpr std::uint32_t kMobileBase = 0x0A010100;     // 10.1.1.0
constexpr std::uint32_t kPlanBase = 0x80000000;       // 128.0.0.0
constexpr std::uint64_t kPlanSize = 0x40000000;       // a /2
constexpr std::uint64_t kLanSize = 256;               // a cell or the corr LAN
constexpr std::uint64_t kCircuitSize = 4;             // a backbone /30

/// `sizes` (powers of two, zero for nothing) packed largest first, ties in
/// order: where each part starts, and the smallest block holding them.
struct Packing {
  std::vector<std::uint64_t> offsets;
  std::uint64_t size = 0;
};

Packing pack(const std::vector<std::uint64_t>& sizes) {
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  Packing packing;
  packing.offsets.resize(sizes.size());
  std::uint64_t end = 0;
  for (std::size_t i : order) {
    packing.offsets[i] = end;
    end += sizes[i];
  }
  packing.size = end == 0 ? 0 : std::bit_ceil(end);
  return packing;
}

net::Prefix block_at(std::uint64_t base, std::uint64_t size) {
  return {net::IpAddress(static_cast<std::uint32_t>(base)),
          32 - std::countr_zero(size)};
}

/// Every address ScaleWorld's backbone uses, and the blocks it declares.
struct AddressPlan {
  std::vector<std::pair<int, int>> circuits;   // (a, b), a < b, build order
  std::vector<std::uint32_t> circuit_subnets;  // per circuit
  std::vector<int> fa_routers;                 // per foreign site
  std::vector<std::uint32_t> cell_subnets;     // per foreign site
  std::uint32_t corr_subnet = 0;
  /// Every router's own block (member: that router) and every enclosing
  /// block of two or more non-empty parts (members: its routers).
  std::vector<std::pair<net::Prefix, std::vector<int>>> blocks;
};

AddressPlan plan_addresses(const ScaleWorldOptions& o) {
  const bool grid = o.backbone == ScaleWorldOptions::Backbone::kGrid;
  const int routers = o.routers;
  const int width =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(routers))));
  AddressPlan plan;
  for (int r = 0; r < routers; ++r) {
    if (!grid) {
      if (r > 0) plan.circuits.emplace_back((r - 1) / 2, r);
    } else {
      if ((r + 1) % width != 0 && r + 1 < routers) {
        plan.circuits.emplace_back(r, r + 1);
      }
      if (r + width < routers) plan.circuits.emplace_back(r, r + width);
    }
  }
  for (int j = 0; j < o.foreign_agents; ++j) {
    plan.fa_routers.push_back(1 + (j * (routers - 1)) / o.foreign_agents);
  }
  const auto n = static_cast<std::size_t>(routers);
  const auto sites = static_cast<std::size_t>(o.foreign_agents);

  // What each router originates, in a fixed order: its cell, the
  // correspondent LAN, its circuits; each part with where its subnet goes.
  struct Part {
    std::uint64_t size;
    std::uint32_t* subnet;
  };
  std::vector<std::vector<Part>> parts(n);
  plan.cell_subnets.resize(sites);
  plan.circuit_subnets.resize(plan.circuits.size());
  for (std::size_t j = 0; j < sites; ++j) {
    parts[static_cast<std::size_t>(plan.fa_routers[j])].push_back(
        {kLanSize, &plan.cell_subnets[j]});
  }
  parts[n - 1].push_back({kLanSize, &plan.corr_subnet});
  for (std::size_t k = 0; k < plan.circuits.size(); ++k) {
    parts[static_cast<std::size_t>(plan.circuits[k].second)].push_back(
        {kCircuitSize, &plan.circuit_subnets[k]});
  }
  auto part_sizes = [&parts](std::size_t r) {
    std::vector<std::uint64_t> sizes;
    for (const Part& part : parts[r]) sizes.push_back(part.size);
    return sizes;
  };

  // The block hierarchy, children before parents: ids below n are the
  // routers' own blocks, ids from n up the enclosing blocks. A tree
  // router's subtree block packs its own block and its children's
  // subtree blocks; a grid row's block packs its routers' blocks, and the
  // top block packs the rows.
  std::vector<std::vector<std::size_t>> kids;  // per enclosing block
  if (grid) {
    std::vector<std::size_t> rows;
    const auto row_width = static_cast<std::size_t>(width);
    for (std::size_t first = 0; first < n; first += row_width) {
      std::vector<std::size_t> row(std::min(row_width, n - first));
      std::iota(row.begin(), row.end(), first);
      rows.push_back(n + kids.size());
      kids.push_back(std::move(row));
    }
    kids.push_back(std::move(rows));
  } else {
    std::vector<std::size_t> subtree(n);
    for (std::size_t r = n; r-- > 0;) {
      std::vector<std::size_t> block{r};
      for (std::size_t c : {2 * r + 1, 2 * r + 2}) {
        if (c < n) block.push_back(subtree[c]);
      }
      subtree[r] = n + kids.size();
      kids.push_back(std::move(block));
    }
  }
  const std::size_t top = n + kids.size() - 1;
  std::vector<std::uint64_t> size(top + 1);
  std::vector<std::uint64_t> base(top + 1);
  std::vector<std::vector<int>> members(top + 1);
  auto kid_sizes = [&](std::size_t e) {
    std::vector<std::uint64_t> sizes;
    for (std::size_t k : kids[e]) sizes.push_back(size[k]);
    return sizes;
  };
  for (std::size_t r = 0; r < n; ++r) {
    size[r] = pack(part_sizes(r)).size;
    members[r] = {static_cast<int>(r)};
  }
  for (std::size_t e = 0; e < kids.size(); ++e) {
    size[n + e] = pack(kid_sizes(e)).size;
    for (std::size_t k : kids[e]) {
      members[n + e].insert(members[n + e].end(), members[k].begin(),
                            members[k].end());
    }
  }
  if (size[top] > kPlanSize) {
    throw std::invalid_argument(
        "ScaleWorld: address plan outgrows 128.0.0.0/2");
  }

  // Place the blocks top-down. An enclosing block with one non-empty part
  // has that part's prefix, so only the others are declared.
  base[top] = kPlanBase;
  for (std::size_t e = kids.size(); e-- > 0;) {
    const std::vector<std::uint64_t> sizes = kid_sizes(e);
    const Packing packing = pack(sizes);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      base[kids[e][i]] = base[n + e] + packing.offsets[i];
    }
    if (std::count_if(sizes.begin(), sizes.end(),
                      [](std::uint64_t s) { return s > 0; }) >= 2) {
      plan.blocks.emplace_back(block_at(base[n + e], size[n + e]),
                               std::move(members[n + e]));
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (size[r] == 0) continue;  // router 0 originates only the home LAN
    plan.blocks.emplace_back(block_at(base[r], size[r]),
                             std::move(members[r]));
    const Packing packing = pack(part_sizes(r));
    for (std::size_t i = 0; i < parts[r].size(); ++i) {
      *parts[r][i].subnet =
          static_cast<std::uint32_t>(base[r] + packing.offsets[i]);
    }
  }
  return plan;
}

ScaleWorldOptions validate(ScaleWorldOptions o) {
  if (o.routers < 2) throw std::invalid_argument("ScaleWorld: routers < 2");
  if (o.foreign_agents < 1 || o.foreign_agents > std::min(o.routers - 1, 250)) {
    throw std::invalid_argument("ScaleWorld: foreign_agents out of range");
  }
  // Bounded by the home /11's address room past the mobile base
  // (10.31.255.255 - 10.1.1.0 leaves a little over two million).
  if (o.mobile_hosts < 0 || o.mobile_hosts > 2000000) {
    throw std::invalid_argument("ScaleWorld: mobile_hosts out of range");
  }
  if (o.correspondents < 1 || o.correspondents > 200) {
    throw std::invalid_argument("ScaleWorld: correspondents out of range");
  }
  if (o.shards < 1 || o.shards > 64) {
    throw std::invalid_argument("ScaleWorld: shards out of range");
  }
  if (o.movement_regions == 0) o.movement_regions = o.shards;
  if (o.movement_regions < 1 || o.movement_regions % o.shards != 0) {
    throw std::invalid_argument(
        "ScaleWorld: movement_regions must be a positive multiple of shards");
  }
  if (o.movement_regions > o.foreign_agents ||
      o.movement_regions > o.routers) {
    throw std::invalid_argument(
        "ScaleWorld: more movement regions than cells/routers");
  }
  if (o.shards > 1) {
    // See DESIGN.md §13: trace and the profiler interleave wall-clock
    // observations across workers; loss bursts draw from one shared RNG
    // on links transmitted from several shards.
    if (o.telemetry.trace || o.telemetry.profiler) {
      throw std::invalid_argument(
          "ScaleWorld: trace/profiler telemetry requires shards == 1");
    }
    if (o.chaos.loss_bursts_per_sec > 0) {
      throw std::invalid_argument(
          "ScaleWorld: chaos loss bursts require shards == 1");
    }
  }
  return o;
}

}  // namespace

ScaleWorld::ScaleWorld(ScaleWorldOptions opts)
    : MhrpDeployment(opts.protocol,
                     static_cast<std::uint32_t>(std::max(0, opts.shards))),
      options(validate(opts)),
      instruments(options.telemetry) {
  const int n = options.routers;
  const int regions = options.movement_regions;

  // Placement: routers are cut into `regions` contiguous blocks, regions
  // map evenly onto shards (movement_regions % shards == 0), and every
  // cell, mobile, and correspondent lives on its hosting region's shard.
  // Router 0 (the home site) falls in region 0 -> shard 0; the last
  // router (the correspondent site) falls in the last region -> the last
  // shard. Only backbone circuits ever cross shards.
  auto region_of_router = [n, regions](int r) { return (r * regions) / n; };
  auto shard_of_region = [this, regions](int g) {
    return static_cast<std::uint32_t>((g * options.shards) / regions);
  };

  const AddressPlan plan = plan_addresses(options);
  routers.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    routers.push_back(&topo.add_router(numbered("R", r),
                                       shard_of_region(region_of_router(r))));
  }
  home_router = routers.front();
  Roles roles;

  // Backbone: point-to-point /30 circuits between adjacent routers.
  for (std::size_t k = 0; k < plan.circuits.size(); ++k) {
    const auto [a, b] = plan.circuits[k];
    auto& link = topo.add_link("bb" + std::to_string(k), options.link_latency);
    const std::uint32_t subnet = plan.circuit_subnets[k];
    topo.connect(*routers[static_cast<std::size_t>(a)], link,
                 net::IpAddress(subnet + 1), 30);
    topo.connect(*routers[static_cast<std::size_t>(b)], link,
                 net::IpAddress(subnet + 2), 30);
    backbone_links.push_back(&link);
  }
  for (const auto& [block, owners] : plan.blocks) {
    std::vector<const node::Node*> members;
    members.reserve(owners.size());
    for (int r : owners) {
      members.push_back(routers[static_cast<std::size_t>(r)]);
    }
    topo.add_aggregate(block, std::move(members));
  }

  // Home site on router 0.
  home_lan = &topo.add_link("homeLan", options.link_latency);
  net::Interface& ha_iface = topo.connect(
      *home_router, *home_lan, net::IpAddress(kHomeLanBase + 1),
      kHomePrefixLength);
  roles.home = {home_router, &ha_iface};

  // Correspondent site on the last router.
  auto& corr_lan = topo.add_link("corrLan", options.link_latency);
  topo.connect(*routers.back(), corr_lan,
               net::IpAddress(plan.corr_subnet + 1), 24);
  corr_shard_ = shard_of_region(region_of_router(n - 1));
  for (int c = 0; c < options.correspondents; ++c) {
    auto& host = topo.add_host(numbered("C", c), corr_shard_);
    topo.connect(
        host, corr_lan,
        net::IpAddress(plan.corr_subnet + 10 + static_cast<std::uint32_t>(c)),
        24);
    correspondents.push_back(&host);
    // §2: any node talking to mobile hosts "should generally also
    // function as a cache agent".
    roles.cache.push_back(&host);
  }

  // Foreign sites: F routers spread evenly over the backbone (router 0 is
  // the home site and never hosts a foreign agent), each with a cell.
  region_cells_.resize(static_cast<std::size_t>(regions));
  for (int j = 0; j < options.foreign_agents; ++j) {
    const int idx = plan.fa_routers[static_cast<std::size_t>(j)];
    node::Router& r = *routers[static_cast<std::size_t>(idx)];
    auto& cell = topo.add_link(numbered("cell", j), options.link_latency);
    const net::IpAddress agent(
        plan.cell_subnets[static_cast<std::size_t>(j)] + 1);
    roles.foreign.push_back({&r, &topo.connect(r, cell, agent, 24)});
    fa_routers.push_back(&r);
    cells.push_back(&cell);
    cell_shard_.push_back(shard_of_region(region_of_router(idx)));
    region_cells_[static_cast<std::size_t>(region_of_router(idx))].push_back(
        &cell);
  }
  for (int g = 0; g < regions; ++g) {
    if (region_cells_[static_cast<std::size_t>(g)].empty()) {
      throw std::invalid_argument(
          "ScaleWorld: movement region without a cell; lower "
          "movement_regions");
    }
  }

  // Mobile hosts, homed on the home LAN, initially detached. Mobile i
  // roams region i % movement_regions and lives on that region's shard.
  for (int i = 0; i < options.mobile_hosts; ++i) {
    const std::uint32_t shard = shard_of_region(i % regions);
    mobile_shard_.push_back(shard);
    add_mobile_host(numbered("M", i), mobile_address(i), ha_iface, shard);
  }

  install(roles);

  for (std::size_t r = 0; r < dv_processes.size(); ++r) {
    routing::dv::DvProcess& process = *dv_processes[r];
    // Route-change instants feed the convergence series; the hook fires
    // on the router's own shard, so each lane has one writer.
    process.on_route_change = [this, r](const net::Prefix&, int) {
      route_changes_.record(static_cast<std::uint32_t>(r),
                            sim::to_seconds(topo.sim().now()));
    };
  }

  if (topo.shard_count() > 1) {
    // Lookahead = the narrowest latency any cross-shard frame pays, the
    // widest window the placement can fund (DESIGN.md §13).
    const sim::Time lookahead = topo.min_cross_shard_latency();
    if (lookahead > 0) topo.sim().set_lookahead(lookahead);
  }

  bind_instruments();
  if (telemetry::TraceCollector* trace = instruments.trace()) {
    ha->set_trace(trace);
    for (auto& fa : fas) fa->set_trace(trace);
    for (auto& ca : corr_agents) ca->set_trace(trace);
    for (core::MobileHost* m : mobiles) m->set_trace(trace);
    if (ha_store) ha_store->set_trace(trace);
  }
  if (instruments.profiler() != nullptr) {
    topo.sim().set_profiler(instruments.profiler());
  }
}

void ScaleWorld::bind_instruments() {
  telemetry::MetricRegistry& reg = instruments.registry;
  bind_role_probes(reg);
  reg.probe("mobiles.delivered", [this] {
    std::uint64_t total = 0;
    for (const auto& r : recorders_) total += r->total().received;
    return static_cast<double>(total);
  });
  reg.probe("world.agent_state_total",
            [this] { return static_cast<double>(total_agent_state()); });
  reg.probe("world.agent_state_busiest",
            [this] { return static_cast<double>(busiest_node_state()); });
  if (!dv_processes.empty()) bind_dv_probes(reg, "dv", dv_processes);
  // Series histograms are rebuilt from the canonical merge at every
  // snapshot: live recording from worker shards would race, and its
  // float-sum order would depend on the interleaving.
  reg.histogram_probe("handoff.latency_s",
                      [this] { return handoff_latencies(); });
  reg.histogram_probe("recovery.time_s", [this] { return recovery_times(); });
  reg.histogram_probe("outage.loss_pkts", [this] { return outage_losses(); });
  reg.histogram_probe("binding.staleness_s",
                      [this] { return binding_staleness(); });
  reg.histogram_probe("ha.lost_bindings",
                      [this] { return ha_lost_bindings(); });
  reg.histogram_probe("ha.recovery_s", [this] { return ha_recovery_times(); });
  reg.histogram_probe("routing.convergence_s",
                      [this] { return convergence_times(); });
}

ScaleWorld::~ScaleWorld() {
  // `instruments` (declared after `topo`) is destroyed first; the
  // simulator must not keep a pointer into it.
  topo.sim().set_profiler(nullptr);
}

net::IpAddress ScaleWorld::mobile_address(int i) const {
  return net::IpAddress(kMobileBase + static_cast<std::uint32_t>(i));
}

void ScaleWorld::start() {
  if (started_) return;
  started_ = true;

  attach_times_.assign(mobiles.size(), sim::Time(-1));
  subscriptions_.reserve(2 * mobiles.size() + 1);
  for (std::size_t i = 0; i < mobiles.size(); ++i) {
    core::MobileHost* m = mobiles[i];
    subscriptions_.push_back(m->on_attached.add(
        [this, i] { attach_times_[i] = topo.sim().now(); }));
    subscriptions_.push_back(m->on_registered.add([this, i] {
      close_recovery(i);
      if (attach_times_[i] < 0) return;
      const double latency =
          sim::to_seconds(topo.sim().now() - attach_times_[i]);
      handoffs_.record(static_cast<std::uint32_t>(i), latency);
      if (telemetry::TraceCollector* trace = instruments.trace()) {
        trace->span(telemetry::TraceCategory::kProtocol, "handoff.rebind",
                    attach_times_[i], topo.sim().now(), "mobile",
                    static_cast<double>(i));
      }
      attach_times_[i] = -1;
    }));

    // Per-mobile movement, seeded from the world RNG in construction
    // order (deterministic across identically-built worlds).
    schedules_.push_back(std::make_unique<MovementSchedule>(
        *m, region_cells_[static_cast<std::size_t>(
                static_cast<int>(i) % options.movement_regions)],
        options.mean_dwell, topo.rng().fork()));
    recorders_.push_back(std::make_unique<FlowRecorder>(*m));

    // The flow's port needs a listener: an unbound port answers every
    // datagram with a port-unreachable, whose §4.5 handling at the
    // correspondent drops its cache entry and sends the next datagram
    // the triangle route through the home agent.
    const auto port = static_cast<std::uint16_t>(4000 + i % 1000);
    m->bind_udp(port, [](const net::UdpDatagram&, const net::IpHeader&,
                         net::Interface&) {});
    flows_.push_back(std::make_unique<CbrFlow>(
        *correspondents[i % correspondents.size()], mobile_address(int(i)),
        port, options.cbr_payload, options.cbr_interval));
  }

  // Stagger starts across one advertisement period so a million-host
  // world does not schedule every first move at the same instant.
  const sim::Time spread =
      std::max<sim::Time>(options.protocol.advertisement_period, 1);
  for (std::size_t i = 0; i < mobiles.size(); ++i) {
    const sim::Time offset =
        spread * static_cast<sim::Time>(i) /
        static_cast<sim::Time>(std::max<std::size_t>(mobiles.size(), 1));
    // Two posts, not one event: the movement schedule must start on the
    // mobile's shard and the CBR flow on its correspondent's shard.
    const sim::Time when = topo.sim().now() + offset;
    topo.sim().post(
        mobile_shard_[i], when, [this, i] { schedules_[i]->start(); },
        sim::EventCategory::kMovement);
    topo.sim().post(
        corr_shard_, when, [this, i] { flows_[i]->start(); },
        sim::EventCategory::kMovement);
  }

  arm_chaos();
}

void ScaleWorld::arm_chaos() {
  const ChaosOptions& c = options.chaos;
  if (!c.enabled) return;

  // The schedule draw and the plane's own impairment draws come from
  // distinct streams off one seed, so enabling loss bursts cannot shift
  // which links fail.
  fault_plane_ = std::make_unique<faults::FaultPlane>(
      topo.sim(), c.fault_seed ^ 0x696d706169724dULL);
  for (net::Link* cell : cells) fault_plane_->add_link(*cell);
  for (net::Link* bb : backbone_links) fault_plane_->add_link(*bb);
  for (std::size_t j = 0; j < fas.size(); ++j) {
    fault_plane_->add_node(*fa_routers[j], fas[j].get());
  }
  // The HA registers after every FA so FA node indices stay 0..F-1 (the
  // index contract existing schedules are written against).
  ha_target_ = fault_plane_->add_node(*home_router, ha.get());

  util::Rng draw(c.fault_seed);
  faults::FaultSchedule schedule;
  if (c.cell_outages_per_sec > 0) {
    schedule.append_poisson_link_outages(draw, c.horizon,
                                         c.cell_outages_per_sec, c.mean_outage,
                                         0, cells.size());
  }
  if (c.backbone_outages_per_sec > 0 && !backbone_links.empty()) {
    schedule.append_poisson_link_outages(
        draw, c.horizon, c.backbone_outages_per_sec, c.mean_outage,
        cells.size(), backbone_links.size());
  }
  if (c.fa_crashes_per_sec > 0) {
    schedule.append_poisson_node_crashes(
        draw, c.horizon, c.fa_crashes_per_sec, c.mean_downtime, 0, fas.size(),
        c.preserve_persistent_state);
  }
  if (c.loss_bursts_per_sec > 0) {
    net::LinkImpairments burst;
    burst.loss = c.burst_loss;
    schedule.append_poisson_impairment_bursts(
        draw, c.horizon, c.loss_bursts_per_sec, c.mean_burst, burst, 0,
        cells.size() + backbone_links.size());
  }
  if (c.ha_crashes_per_sec > 0) {
    // Drawn last so enabling HA crashes cannot shift the draws above.
    schedule.append_poisson_node_crashes(draw, c.horizon, c.ha_crashes_per_sec,
                                         c.mean_downtime, ha_target_, 1,
                                         c.preserve_persistent_state);
  }
  fault_plane_->load(schedule);
  fault_plane_->on_fault = [this](const faults::FaultEvent& e) {
    note_fault(e);
  };
  if (instruments.trace() != nullptr) {
    fault_plane_->set_trace(instruments.trace());
  }
  bind_fault_probes(instruments.registry, "faults", *fault_plane_);

  outages_.assign(mobiles.size(), Outage{});
  ha_bindings_.assign(mobiles.size(), net::IpAddress());
  binding_changed_at_.assign(mobiles.size(), 0);
  // Staleness bookkeeping and the binding oracle read per-mobile outage
  // state from the HA's shard; runs with more than one shard skip both
  // (the auditor is not attached there either), so the staleness series
  // stays empty.
  if (topo.shard_count() > 1) return;
  subscriptions_.push_back(ha->on_binding_changed.add(
      [this](net::IpAddress mobile, net::IpAddress fa) {
        const std::uint32_t raw = mobile.raw();
        if (raw < kMobileBase || raw >= kMobileBase + mobiles.size()) return;
        const auto i = static_cast<std::size_t>(raw - kMobileBase);
        ha_bindings_[i] = fa;
        binding_changed_at_[i] = topo.sim().now();
        if (outages_[i].staleness_start >= 0) {
          staleness_.record(0, sim::to_seconds(topo.sim().now() -
                                               outages_[i].staleness_start));
          outages_[i].staleness_start = -1;
        }
      }));

  // §5.2/§6.3 invariant: past the repair window, the home agent must not
  // keep tunneling toward a superseded binding. Only the HA's tunnels
  // are constrained — stale cache agents and forwarding pointers repair
  // lazily by design.
  const net::IpAddress ha_addr(kHomeLanBase + 1);
  auditor.set_binding_oracle(
      [this, ha_addr](net::IpAddress src, net::IpAddress mobile,
                      net::IpAddress dst, sim::Time now) {
        constexpr sim::Time kRepairWindow = sim::seconds(5);
        if (src != ha_addr) return true;
        const std::uint32_t raw = mobile.raw();
        if (raw < kMobileBase || raw >= kMobileBase + mobiles.size()) {
          return true;
        }
        const auto i = static_cast<std::size_t>(raw - kMobileBase);
        if (ha_bindings_[i].is_unspecified()) return true;
        if (dst == ha_bindings_[i]) return true;
        return now - binding_changed_at_[i] <= kRepairWindow;
      });
}

void ScaleWorld::note_fault(const faults::FaultEvent& event) {
  using faults::FaultKind;
  // Each link fail/recover opens a convergence epoch: the DV plane's
  // route churn that follows, up to the next epoch, is this fault's
  // reconvergence. Link events always execute on the fault plane's own
  // shard, so the epoch series has a single writer.
  if (!dv_processes.empty() && (event.kind == FaultKind::kLinkFail ||
                                event.kind == FaultKind::kLinkRecover)) {
    fault_epochs_.record(0, sim::to_seconds(topo.sim().now()));
  }
  // The home agent is node target ha_target_ (registered after the FAs).
  // Its crash is observed *at the crash* — on_fault fires after the
  // event applies, so at kNodeCrash the agent's map still holds the
  // pre-crash view while the disk cache is already gone; by kNodeReboot
  // the map has been rebuilt from store recovery and the difference is
  // exactly what the crash cost. Poisson crash windows can overlap: each
  // crash schedules its own reboot, so a burst of crashes yields a burst
  // of reboots of which only the FIRST ends the outage — the rest hit an
  // already-running agent after registrations have resumed, and diffing
  // against the stale snapshot would count superseded bindings as lost.
  // ha_crashed_at_ doubles as the down flag: only the outage-opening
  // crash captures, only the outage-ending reboot compares.
  if (event.target == ha_target_ && event.kind == FaultKind::kNodeCrash) {
    if (ha_crashed_at_ >= 0) return;  // already down
    ha_precrash_bindings_ = ha->home_bindings();
    ha_crashed_at_ = topo.sim().now();
    return;
  }
  if (event.target == ha_target_ && event.kind == FaultKind::kNodeReboot) {
    if (ha_crashed_at_ < 0) return;  // spurious reboot, HA already up
    std::size_t lost = 0;
    const sim::Time now = topo.sim().now();
    for (const auto& [mobile_host, fa] : ha_precrash_bindings_) {
      const auto recovered = ha->home_binding(mobile_host);
      if (recovered.has_value() && *recovered == fa) continue;
      if (fa.is_unspecified()) continue;  // "at home" lost = provisioning gap
      ++lost;
      // The orphaned mobile's traffic blackholes until it re-registers;
      // run its recovery clock like any other outage.
      const std::uint32_t raw = mobile_host.raw();
      if (raw >= kMobileBase && raw < kMobileBase + mobiles.size()) {
        const auto i = static_cast<std::size_t>(raw - kMobileBase);
        if (mobile_shard_[i] == topo.sim().shard_id()) {
          open_outage_for_mobile(i, now);
        } else {
          // The mobile's outage clock lives on its shard; hop there at
          // the earliest legal cross-shard time (now + lookahead).
          const sim::Time w = topo.sim().lookahead();
          topo.sim().post(
              mobile_shard_[i], now + w,
              [this, i] { open_outage_for_mobile(i, topo.sim().now()); },
              sim::EventCategory::kFaultInjection);
        }
      }
    }
    ha_lost_bindings_.record(0, static_cast<double>(lost));
    ha_recoveries_.record(0, sim::to_seconds(now - ha_crashed_at_));
    ha_crashed_at_ = -1;
    return;
  }
  // A crashed foreign agent (node target j = FA j) or a partitioned cell
  // (link targets 0..F-1 are the cells) orphans every mobile registered
  // there; backbone faults have no single victim set, so only the
  // aggregate plane stats record them.
  if (event.kind == FaultKind::kNodeCrash ||
      (event.kind == FaultKind::kLinkFail && event.target < cells.size())) {
    const std::size_t site = event.target;
    const net::IpAddress agent = fas[site]->agent_address();
    // FA crashes already execute on the site's shard; cell link faults
    // execute on the plane's shard (shard 0), so hop when they differ.
    if (cell_shard_[site] == topo.sim().shard_id()) {
      open_outages_for(agent);
    } else {
      const sim::Time w = topo.sim().lookahead();
      topo.sim().post(
          cell_shard_[site], topo.sim().now() + w,
          [this, agent] { open_outages_for(agent); },
          sim::EventCategory::kFaultInjection);
    }
  }
}

void ScaleWorld::open_outages_for(net::IpAddress foreign_agent) {
  const sim::Time now = topo.sim().now();
  // Runs on the orphaned cell's shard, and every mobile that can be
  // registered there lives on that shard too (mobiles roam only their
  // own region's cells). The filter is a no-op with one shard and keeps
  // worker shards off foreign mobiles' state with more.
  const std::uint32_t self = topo.sim().shard_id();
  for (std::size_t i = 0; i < mobiles.size(); ++i) {
    if (mobile_shard_[i] != self) continue;
    if (mobiles[i]->state() != core::MobileHost::State::kForeign) continue;
    if (mobiles[i]->current_agent() != foreign_agent) continue;
    open_outage_for_mobile(i, now);
  }
}

void ScaleWorld::open_outage_for_mobile(std::size_t i, sim::Time now) {
  Outage& o = outages_[i];
  if (o.recovery_start >= 0) return;  // already inside an outage
  o.recovery_start = now;
  o.received_at_start = recorders_[i]->total().received;
  if (o.staleness_start < 0) o.staleness_start = now;
}

void ScaleWorld::close_recovery(std::size_t i) {
  if (i >= outages_.size()) return;
  Outage& o = outages_[i];
  if (o.recovery_start < 0) return;
  const double elapsed =
      sim::to_seconds(topo.sim().now() - o.recovery_start);
  recoveries_.record(static_cast<std::uint32_t>(i), elapsed);
  const double expected = elapsed / sim::to_seconds(options.cbr_interval);
  const double received = static_cast<double>(
      recorders_[i]->total().received - o.received_at_start);
  const double loss = std::max(0.0, expected - received);
  outage_losses_.record(static_cast<std::uint32_t>(i), loss);
  o.recovery_start = -1;
}

ScaleRunStats ScaleWorld::run_for(sim::Time duration) {
  start();
  events_executed_ += topo.sim().run_for(duration);

  ScaleRunStats totals;
  totals.events_executed = events_executed_;
  for (const auto& link : topo.links()) {
    totals.frames_carried += link->frames_carried();
    totals.bytes_carried += link->bytes_carried();
  }
  for (std::size_t i = 0; i < mobiles.size(); ++i) {
    totals.cbr_sent += flows_[i]->sent();
    totals.packets_delivered +=
        recorders_[i]->flow(flows_[i]->flow_id()).received;
    totals.moves += mobiles[i]->stats().moves;
    totals.registrations += mobiles[i]->stats().registrations_completed;
  }
  for (const auto& n : topo.nodes()) {
    const node::Node::Counters& c = n->counters();
    totals.ttl_drops += c.dropped_ttl;
    totals.arp_timeouts += c.dropped_arp_timeout;
    totals.no_route_drops += c.dropped_no_route;
    totals.icmp_errors += c.icmp_errors_sent;
  }

  ScaleRunStats delta = totals;
  for (std::uint64_t ScaleRunStats::*field :
       {&ScaleRunStats::events_executed, &ScaleRunStats::frames_carried,
        &ScaleRunStats::bytes_carried, &ScaleRunStats::cbr_sent,
        &ScaleRunStats::packets_delivered, &ScaleRunStats::moves,
        &ScaleRunStats::registrations, &ScaleRunStats::ttl_drops,
        &ScaleRunStats::arp_timeouts, &ScaleRunStats::no_route_drops,
        &ScaleRunStats::icmp_errors}) {
    delta.*field -= last_totals_.*field;
  }
  last_totals_ = totals;
  return delta;
}

std::vector<double> ScaleWorld::Series::values() const {
  std::vector<Entry> all;
  for (const auto& lane : lanes_) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  // (time, idx) is a total order over each multi-writer series — one
  // entry per mobile or router per event time — so the merged view is
  // canonical: the same protocol history renders identically at every
  // shard count.
  std::stable_sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t < b.t : a.idx < b.idx;
  });
  std::vector<double> out;
  out.reserve(all.size());
  for (const Entry& e : all) out.push_back(e.v);
  return out;
}

std::vector<double> ScaleWorld::convergence_times() const {
  std::vector<double> times;
  const std::vector<double> epochs = fault_epochs_.values();
  if (epochs.empty()) return times;
  // Route-change entries carry their own instant as the value, so the
  // canonical (time, router) merge yields the change instants in
  // ascending order.
  const std::vector<double> changes = route_changes_.values();
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    const double from = epochs[k];
    const double until = k + 1 < epochs.size()
                             ? epochs[k + 1]
                             : std::numeric_limits<double>::infinity();
    if (until <= from) continue;  // coincident epochs: one window
    // Last route change inside [from, until) closes this epoch's
    // reconvergence; an epoch with no churn (the fault changed nothing
    // the plane routes on) contributes no sample.
    auto lo = std::lower_bound(changes.begin(), changes.end(), from);
    auto hi = std::lower_bound(changes.begin(), changes.end(), until);
    if (lo == hi) continue;
    times.push_back(*(hi - 1) - from);
  }
  return times;
}

std::string ScaleWorld::metrics_digest() const {
  std::ostringstream out;
  out << "scaleworld n=" << options.routers << " f=" << options.foreign_agents
      << " m=" << options.mobile_hosts << " seed=" << options.protocol.seed
      << " now=" << topo.sim().now() << " events=" << events_executed_ << "\n";
  out << topology_digest(topo);

  // One line per registered metric (sorted by name): the agent, mobile,
  // store, and fault-plane probes plus the latency histograms. Probes
  // read the same stats structs the old hand-built lines printed, so the
  // digest still captures every protocol-observable counter — now
  // through the registry, which holds no wall-clock or trace-dependent
  // values (telemetry on/off cannot change a byte here).
  out << instruments.registry.snapshot().to_text();

  if (ha_store) {
    out << "store policy=" << to_string(ha_store->policy()) << "\n";
  }

  char buf[32];
  auto series = [&out, &buf](const char* tag, const std::vector<double>& v) {
    out << tag << " n=" << v.size();
    for (double x : v) {
      std::snprintf(buf, sizeof buf, " %.9e", x);
      out << buf;
    }
    out << "\n";
  };
  series("handoffs", handoff_latencies());

  if (fault_plane_) {
    out << fault_plane_->digest();
    series("recovery", recovery_times());
    series("outage_loss", outage_losses());
    series("staleness", binding_staleness());
    series("ha_lost_bindings", ha_lost_bindings());
    series("ha_recovery", ha_recovery_times());
  }
  if (!dv_processes.empty()) series("convergence", convergence_times());
  return out.str();
}

std::string ScaleWorld::metrics_json() const {
  std::ostringstream out;
  telemetry::JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("mhrp.scaleworld.metrics.v1");
  json.key("params");
  json.begin_object();
  json.key("backbone");
  json.value(options.backbone == ScaleWorldOptions::Backbone::kGrid ? "grid"
                                                                    : "tree");
  json.key("routers");
  json.value(options.routers);
  json.key("foreign_agents");
  json.value(options.foreign_agents);
  json.key("mobile_hosts");
  json.value(options.mobile_hosts);
  json.key("correspondents");
  json.value(options.correspondents);
  json.key("seed");
  json.value(options.protocol.seed);
  json.key("chaos");
  json.value(options.chaos.enabled);
  json.key("routing");
  json.value(options.protocol.routing == routing::dv::Mode::kDv ? "dv"
                                                                : "static");
  json.end_object();
  json.key("now_us");
  json.value(topo.sim().now());
  json.key("events_executed");
  json.value(events_executed_);
  json.key("metrics");
  instruments.registry.snapshot().write_json(json);
  json.end_object();
  return out.str();
}

}  // namespace mhrp::scenario
