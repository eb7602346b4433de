// ScaleWorld: a seeded generator of large grid/tree internetworks with
// MHRP fully installed, built to exercise Johnson's §3/§7 scalability
// claims at populations far beyond the Figure-1 walkthrough: N backbone
// routers, F foreign-agent sites (each with a wireless cell), M mobile
// hosts roaming between cells on exponential dwell times, and a
// constant-bit-rate UDP workload from correspondent hosts to every
// mobile. Everything — topology shape, movement, traffic — is a pure
// function of the seed, so two worlds built from the same options behave
// byte-identically (the deterministic-replay regression test relies on
// this, and it is what makes large-scale benchmark runs comparable).
#pragma once

#include <memory>
#include <vector>

#include "faults/fault_plane.hpp"
#include "scenario/deployment.hpp"
#include "scenario/metrics.hpp"
#include "scenario/telemetry_hooks.hpp"
#include "scenario/workload.hpp"
#include "util/hooks.hpp"

namespace mhrp::scenario {

/// Seeded chaos riding on top of a ScaleWorld run: Poisson link outages
/// (cells and backbone circuits), foreign-agent crashes with reboot, and
/// loss bursts, all drawn at start() into one FaultSchedule and driven by
/// the world's FaultPlane. A disabled ChaosOptions costs nothing.
struct ChaosOptions {
  bool enabled = false;
  std::uint64_t fault_seed = 0xfa17;   // schedule draw, separate from topo
  sim::Time horizon = sim::seconds(60);  // faults are drawn over [0, horizon)
  double cell_outages_per_sec = 0.0;
  double backbone_outages_per_sec = 0.0;
  sim::Time mean_outage = sim::seconds(2);
  double fa_crashes_per_sec = 0.0;
  sim::Time mean_downtime = sim::seconds(2);
  bool preserve_persistent_state = true;  // reboot keeps the home database
  /// Home-agent crashes (the §2 durability experiment: each one power-
  /// cuts the HA's store disk, and the lost-binding series records how
  /// many acked registrations each recovery failed to bring back).
  double ha_crashes_per_sec = 0.0;
  double loss_bursts_per_sec = 0.0;
  double burst_loss = 0.3;
  sim::Time mean_burst = sim::seconds(1);
};

struct ScaleWorldOptions {
  enum class Backbone {
    kGrid,  // routers on a ceil(sqrt(N)) grid, links to right/down
    kTree,  // binary tree rooted at the home router
  };

  Backbone backbone = Backbone::kGrid;
  int routers = 16;         // N, >= 2 (router 0 is the home site)
  int foreign_agents = 4;   // F, 1 <= F <= min(N - 1, 250)
  int mobile_hosts = 8;     // M, <= 2000000 (the home /11's address room)
  int correspondents = 2;   // CBR senders, round-robin over mobiles
  sim::Time link_latency = sim::millis(1);
  sim::Time mean_dwell = sim::seconds(5);  // per-cell dwell (exponential)
  sim::Time cbr_interval = sim::millis(200);
  std::size_t cbr_payload = 64;
  /// Executive shards, 1..64. One (the default) runs inline on the
  /// caller's thread; with more, the caller's thread runs shard 0 and
  /// one worker thread each other shard. Router regions, their cells,
  /// and the mobiles roaming them are placed round-robin-free
  /// (contiguous region blocks) so every wireless cell is shard-local and
  /// only backbone circuits cross shards. Replay digests are
  /// byte-identical for a FIXED shard count. Worlds with more than one
  /// shard refuse trace/profiler telemetry and chaos loss bursts, and
  /// skip the audit layer and the staleness oracle (DESIGN.md §13).
  int shards = 1;
  /// Movement partitioning: mobiles are split over this many regions and
  /// each roams only its region's cells. 0 = one region per shard (one
  /// global region with one shard). Must be a positive multiple of
  /// `shards`; pin it explicitly (e.g. 8) to compare digests across
  /// shard counts, since the region count changes where mobiles roam.
  int movement_regions = 0;
  /// Protocol knobs shared with every other scenario world.
  ProtocolOptions protocol;
  /// Fault injection (off by default; see ChaosOptions).
  ChaosOptions chaos;
  /// Observability (registry always on; trace/profiler off by default).
  TelemetryOptions telemetry;
};

/// Wall-clock-free results of one run_for() slice (all values are
/// simulation-level counts; the bench layers wall timing on top).
struct ScaleRunStats {
  std::uint64_t events_executed = 0;
  std::uint64_t frames_carried = 0;  // across every link
  std::uint64_t bytes_carried = 0;
  std::uint64_t cbr_sent = 0;           // CBR datagrams the flows sent
  std::uint64_t packets_delivered = 0;  // CBR datagrams reaching a mobile
  std::uint64_t moves = 0;
  std::uint64_t registrations = 0;  // completed mobile registrations
  // Summed over every node: datagrams dropped, by cause, and the ICMP
  // errors sent. Each ICMP error answers one drop unless a datagram
  // reached a port nothing listens on.
  std::uint64_t ttl_drops = 0;
  std::uint64_t arp_timeouts = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t icmp_errors = 0;

  bool operator==(const ScaleRunStats&) const = default;
};

class ScaleWorld : public MhrpDeployment {
 public:
  explicit ScaleWorld(ScaleWorldOptions options = ScaleWorldOptions());
  ~ScaleWorld();

  ScaleWorldOptions options;

  /// Metric registry (always bound — probes over every agent, the mobile
  /// population, the store, and the fault plane), plus the optional trace
  /// collector and event-loop profiler per options.telemetry. The
  /// registry holds only protocol-observable values, so its snapshot is
  /// byte-identical with tracing/profiling on or off.
  WorldTelemetry instruments;

  node::Router* home_router = nullptr;
  net::Link* home_lan = nullptr;
  std::vector<node::Router*> routers;  // all N, indexed like dv_processes
  std::vector<node::Router*> fa_routers;  // the F hosting foreign agents
  std::vector<net::Link*> backbone_links;  // the /30 circuits, in build order
  std::vector<net::Link*> cells;
  std::vector<node::Host*> correspondents;

  [[nodiscard]] net::IpAddress mobile_address(int i) const;

  /// Start roaming and traffic. Idempotent.
  void start();

  /// Advance the simulation by `duration` and return what happened in
  /// that slice (deltas, not totals).
  ScaleRunStats run_for(sim::Time duration);

  /// Completed handoff latencies (seconds of simulated time from
  /// attach_to() to registration-complete), in canonical (time, mobile)
  /// order — recorded per shard and merged on a shard-count-independent
  /// key, so the same measurements appear in the same order however many
  /// workers produced them.
  [[nodiscard]] std::vector<double> handoff_latencies() const {
    return handoffs_.values();
  }

  // ---- Chaos (populated only when options.chaos.enabled) ----

  /// The fault plane driving the run, or nullptr with chaos disabled.
  [[nodiscard]] faults::FaultPlane* fault_plane() {
    return fault_plane_.get();
  }
  /// Seconds from each FA-crash / cell-partition outage to the affected
  /// mobile's next completed registration, in canonical (time, mobile)
  /// order.
  [[nodiscard]] std::vector<double> recovery_times() const {
    return recoveries_.values();
  }
  /// CBR packets lost per recovered outage (expected minus received
  /// while the outage was open), aligned with recovery_times().
  [[nodiscard]] std::vector<double> outage_losses() const {
    return outage_losses_.values();
  }
  /// Seconds each outage left the home agent forwarding toward a dead
  /// binding, measured from outage start to the HA's binding change.
  [[nodiscard]] std::vector<double> binding_staleness() const {
    return staleness_.values();
  }
  /// Time-to-reconverge of the DV plane, one entry per link-fault epoch
  /// that produced route churn: seconds from the link fail/recover to
  /// the LAST DV route change observed anywhere before the next epoch
  /// (canonical (time, router) merge order, like every other series).
  /// Empty under static routing or with chaos disabled.
  [[nodiscard]] std::vector<double> convergence_times() const;
  /// One entry per HA crash: away-bindings present before the crash that
  /// recovery did not restore. All zeros under a durable sync policy;
  /// under kAsync this is the measured cost of acking early.
  [[nodiscard]] std::vector<double> ha_lost_bindings() const {
    return ha_lost_bindings_.values();
  }
  /// Seconds each HA crash+recovery took, store mount included.
  [[nodiscard]] std::vector<double> ha_recovery_times() const {
    return ha_recoveries_.values();
  }

  /// Delivery statistics at the mobile hosts (per-flow and total).
  [[nodiscard]] const FlowRecorder& recorder(int mobile) const {
    return *recorders_[static_cast<std::size_t>(mobile)];
  }
  [[nodiscard]] std::uint64_t flow_id(int mobile) const {
    return flows_[static_cast<std::size_t>(mobile)]->flow_id();
  }

  /// Deterministic textual digest of everything observable after a run:
  /// node counters, link totals, the metric-registry snapshot (agent,
  /// mobile, store, and fault-plane probes plus the latency histograms),
  /// and the raw latency series. Two same-seed worlds driven identically
  /// must produce byte-identical digests (the replay regression test
  /// asserts exactly that), with telemetry collection on or off.
  /// Process-global identifiers (packet ids, flow ids, MAC addresses)
  /// are deliberately excluded.
  [[nodiscard]] std::string metrics_digest() const;

  /// The registry snapshot as a strict JSON document (schema
  /// "mhrp.scaleworld.metrics.v1": run parameters + every metric).
  /// Throws telemetry::NonFiniteJsonError if any value is non-finite.
  [[nodiscard]] std::string metrics_json() const;

 private:
  /// One mobile's open outage, if any (start < 0 = none). The recovery
  /// clock closes at the next completed registration; the staleness
  /// clock closes at the HA's next binding change for that host.
  struct Outage {
    sim::Time recovery_start = -1;
    sim::Time staleness_start = -1;
    std::uint64_t received_at_start = 0;
  };

  /// One measurement series. Each shard appends to its own lane, so a
  /// lane has one writer; values() merges the lanes on (simulated time,
  /// idx), a canonical order no interleaving can perturb, so the same
  /// history reads identically at every shard count. idx is a
  /// shard-count-independent tiebreaker (a mobile or router index); a
  /// series with a single writer records idx 0 and so keeps insertion
  /// order.
  class Series {
   public:
    explicit Series(const sim::Executive& clock)
        : clock_(&clock), lanes_(clock.shard_count()) {}
    void record(std::uint32_t idx, double v) {
      lanes_[clock_->shard_id()].push_back({clock_->now(), idx, v});
    }
    [[nodiscard]] std::vector<double> values() const;

   private:
    struct Entry {
      sim::Time t = 0;
      std::uint32_t idx = 0;
      double v = 0.0;
    };
    const sim::Executive* clock_;
    std::vector<std::vector<Entry>> lanes_;
  };

  void arm_chaos();
  void bind_instruments();
  void note_fault(const faults::FaultEvent& event);
  void open_outages_for(net::IpAddress foreign_agent);
  /// Start mobile i's outage clocks. Must run on the mobile's shard.
  void open_outage_for_mobile(std::size_t i, sim::Time now);
  void close_recovery(std::size_t i);

  std::vector<std::unique_ptr<CbrFlow>> flows_;
  std::vector<std::unique_ptr<MovementSchedule>> schedules_;
  std::vector<std::unique_ptr<FlowRecorder>> recorders_;
  std::vector<sim::Time> attach_times_;  // per mobile, last attach_to()
  std::vector<std::uint32_t> mobile_shard_;  // per mobile
  std::vector<std::uint32_t> cell_shard_;    // per cell / foreign site
  std::vector<std::vector<net::Link*>> region_cells_;  // per movement region
  std::uint32_t corr_shard_ = 0;
  std::unique_ptr<faults::FaultPlane> fault_plane_;
  std::vector<Outage> outages_;  // per mobile, touched on its shard only
  Series handoffs_{topo.sim()};
  Series recoveries_{topo.sim()};
  Series outage_losses_{topo.sim()};
  // HA-side series: written only from the home agent's shard (shard 0).
  Series staleness_{topo.sim()};
  Series ha_lost_bindings_{topo.sim()};
  Series ha_recoveries_{topo.sim()};
  /// DV route-change instants (value = seconds), written from each
  /// router's on_route_change on its own shard.
  Series route_changes_{topo.sim()};
  /// Link fail/recover instants (value = seconds), recorded by
  /// note_fault on the fault plane's shard.
  Series fault_epochs_{topo.sim()};
  std::size_t ha_target_ = static_cast<std::size_t>(-1);  // fault-plane index
  std::vector<std::pair<net::IpAddress, net::IpAddress>> ha_precrash_bindings_;
  sim::Time ha_crashed_at_ = -1;
  std::vector<net::IpAddress> ha_bindings_;      // per mobile, HA's view
  std::vector<sim::Time> binding_changed_at_;    // per mobile
  std::uint64_t events_executed_ = 0;
  ScaleRunStats last_totals_;
  bool started_ = false;
  // To the mobiles' attach/registration hooks and the HA's binding
  // changes; declared last so they detach before the state they feed.
  std::vector<util::Subscription> subscriptions_;
};

}  // namespace mhrp::scenario
