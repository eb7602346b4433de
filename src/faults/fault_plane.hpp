// FaultPlane: replays a FaultSchedule against a live simulation through
// the redesigned lifecycle API — net::Link::fail()/recover() and
// set_impairments(), node::Node::fail()/recover(), and
// core::MhrpAgent::reboot() — instead of the ad-hoc mutators the
// robustness tests used to poke. Targets are registered explicitly by
// the scenario layer (the plane knows nothing about topology builders),
// and every event is scheduled on the slab sim::EventQueue, so fault
// injection is exactly as deterministic as the rest of the run.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.hpp"
#include "faults/fault_schedule.hpp"
#include "net/link.hpp"
#include "node/node.hpp"
#include "sim/executive.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace mhrp::faults {

struct FaultPlaneStats {
  std::uint64_t link_failures = 0;
  std::uint64_t link_recoveries = 0;
  std::uint64_t impairment_bursts = 0;
  std::uint64_t impairments_cleared = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t node_reboots = 0;
  std::uint64_t drop_windows_opened = 0;
  std::uint64_t drop_windows_closed = 0;
  std::uint64_t messages_dropped = 0;  // by the targeted drop filters
  std::uint64_t disk_error_windows = 0;  // kDiskReadError applied
};

class FaultPlane {
 public:
  /// `seed` drives the impairment draws on links this plane impairs (the
  /// schedule itself carries all scheduling randomness).
  FaultPlane(sim::Executive& sim, std::uint64_t seed);
  ~FaultPlane();

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // ---- Target registration (index order = schedule target ids) ----

  std::size_t add_link(net::Link& link);
  /// Register a node; when `agent` is non-null, a kNodeReboot event also
  /// runs the agent's §5.2 reboot (volatile state lost, home database
  /// per the event's preserve flag).
  std::size_t add_node(node::Node& node, core::MhrpAgent* agent = nullptr);

  /// Schedule every event of `schedule` on the simulator (absolute
  /// times). May be called once per schedule; targets must already be
  /// registered. Events whose target index is out of range throw.
  void load(const FaultSchedule& schedule);

  /// Apply one event immediately (tests use this for hand-driven
  /// injections; load() funnels through it too). Schedules the inverse
  /// event after `event.duration` when the duration is positive.
  void apply(const FaultEvent& event);

  /// Read while quiesced (between runs): under a sharded executive the
  /// counters are bumped from several shards and only settle at window
  /// boundaries.
  [[nodiscard]] const FaultPlaneStats& stats() const { return stats_; }
  /// Deterministic one-line stats rendering for replay digests.
  [[nodiscard]] std::string digest() const;

  /// Fired after each event is applied (and after the auto-scheduled
  /// inverse fires) — the scenario layer hangs its recovery metrics
  /// (time-to-reregister, packets lost per outage) off this.
  std::function<void(const FaultEvent&)> on_fault;

  /// Optional trace sink (nullptr = tracing off). When set, every
  /// applied event lands as an instant on the fault track.
  /// Observability only: it never changes injection behavior.
  void set_trace(telemetry::TraceCollector* trace) { trace_ = trace; }

 private:
  struct NodeTarget {
    node::Node* node = nullptr;
    core::MhrpAgent* agent = nullptr;
    /// Targeted-drop windows currently open (bit per drop FaultKind).
    std::uint8_t drop_mask = 0;
    bool filter_installed = false;
  };

  static std::uint8_t drop_bit(FaultKind kind);
  void bump(std::uint64_t FaultPlaneStats::*counter);
  void install_drop_filter(std::size_t target);
  [[nodiscard]] bool should_drop(const NodeTarget& t,
                                 const net::Packet& packet) const;

  sim::Executive& sim_;
  util::Rng rng_;
  std::vector<net::Link*> links_;
  std::vector<bool> impaired_;  // impairments installed (rng_ borrowed)
  std::vector<NodeTarget> nodes_;
  // Node-targeted events run on each node's shard; stats aggregate them.
  mutable std::mutex stats_mu_;
  FaultPlaneStats stats_;
  telemetry::TraceCollector* trace_ = nullptr;
};

}  // namespace mhrp::faults
