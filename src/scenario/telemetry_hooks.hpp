// Scenario-level telemetry wiring: one WorldTelemetry bundle per world
// (registry always on, trace collector and event-loop profiler optional),
// plus the probe binders that connect the registry to the stats structs
// the protocol layers already maintain.
//
// Determinism contract: the registry holds only protocol-observable
// values (probes over AgentStats / MobileHostStats / HomeStoreStats /
// FaultPlaneStats and histograms recorded in always-on callbacks), so a
// snapshot is byte-identical whether or not tracing or profiling is
// enabled. Wall-clock profiler data and the trace collector's own
// recorded/dropped counters must never be registered here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/mobile_host.hpp"
#include "faults/fault_plane.hpp"
#include "routing/dv/dv_process.hpp"
#include "sim/profiler.hpp"
#include "store/home_store.hpp"
#include "telemetry/metric_registry.hpp"
#include "telemetry/trace.hpp"

namespace mhrp::scenario {

/// Per-world telemetry knobs. The metric registry is always available
/// (snapshotting is pull-based and costs nothing until asked); trace and
/// profiler default off so the hot path pays only null-pointer checks.
struct TelemetryOptions {
  bool trace = false;
  std::uint64_t trace_sample_every = 1;  // packet events; 1 = keep all
  bool profiler = false;
};

/// The bundle a world owns: registry (always), trace collector and
/// event-loop profiler (only when asked for — accessors return nullptr
/// otherwise, matching the instrumentation sites' null checks).
class WorldTelemetry {
 public:
  explicit WorldTelemetry(const TelemetryOptions& options = {});

  WorldTelemetry(const WorldTelemetry&) = delete;
  WorldTelemetry& operator=(const WorldTelemetry&) = delete;

  telemetry::MetricRegistry registry;

  [[nodiscard]] telemetry::TraceCollector* trace() { return trace_.get(); }
  [[nodiscard]] const telemetry::TraceCollector* trace() const {
    return trace_.get();
  }
  [[nodiscard]] sim::EventLoopProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const sim::EventLoopProfiler* profiler() const {
    return profiler_.get();
  }

 private:
  std::unique_ptr<telemetry::TraceCollector> trace_;
  std::unique_ptr<sim::EventLoopProfiler> profiler_;
};

/// Register probes over one agent's stats under `prefix` (e.g. "ha").
/// The agent must outlive the registry.
void bind_agent_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const core::MhrpAgent& agent);

/// Register probes summing the stats of every agent in `agents` under
/// `prefix` (e.g. "fa" for the foreign-agent population). The vector and
/// its agents must outlive the registry.
void bind_agent_aggregate_probes(
    telemetry::MetricRegistry& registry, const std::string& prefix,
    const std::vector<std::unique_ptr<core::MhrpAgent>>& agents);

/// Register probes summing every mobile host's stats under `prefix`.
void bind_mobile_probes(telemetry::MetricRegistry& registry,
                        const std::string& prefix,
                        const std::vector<core::MobileHost*>& mobiles);

/// Register probes over the home store (and its WAL) under `prefix`.
void bind_store_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const store::HomeStore& store);

/// Register probes over the fault plane's counters under `prefix`.
void bind_fault_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const faults::FaultPlane& plane);

/// Register probes summing every DV routing process's counters under
/// `prefix` (e.g. "dv"). The vector and its processes must outlive the
/// registry.
void bind_dv_probes(
    telemetry::MetricRegistry& registry, const std::string& prefix,
    const std::vector<std::unique_ptr<routing::dv::DvProcess>>& processes);

}  // namespace mhrp::scenario
