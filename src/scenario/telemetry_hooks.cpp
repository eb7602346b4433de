#include "scenario/telemetry_hooks.hpp"

namespace mhrp::scenario {

WorldTelemetry::WorldTelemetry(const TelemetryOptions& options) {
  if (options.trace) {
    telemetry::TraceCollector::Options trace_opts;
    trace_opts.sample_every = options.trace_sample_every;
    trace_ = std::make_unique<telemetry::TraceCollector>(trace_opts);
  }
  if (options.profiler) {
    profiler_ = std::make_unique<sim::EventLoopProfiler>();
  }
}

namespace {

// All probes return double; the registry evaluates them at snapshot
// time, so nothing here touches the hot path.
double u(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

void bind_agent_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const core::MhrpAgent& agent) {
  const core::MhrpAgent* a = &agent;
  registry.probe(prefix + ".registrations",
                 [a] { return u(a->stats().registrations); });
  registry.probe(prefix + ".intercepted_home",
                 [a] { return u(a->stats().intercepted_home); });
  registry.probe(prefix + ".tunnels_built",
                 [a] { return u(a->stats().tunnels_built); });
  registry.probe(prefix + ".retunnels",
                 [a] { return u(a->stats().retunnels); });
  registry.probe(prefix + ".tunneled_to_home",
                 [a] { return u(a->stats().tunneled_to_home); });
  registry.probe(prefix + ".delivered_to_visitor",
                 [a] { return u(a->stats().delivered_to_visitor); });
  registry.probe(prefix + ".updates_sent",
                 [a] { return u(a->stats().updates_sent); });
  registry.probe(prefix + ".updates_received",
                 [a] { return u(a->stats().updates_received); });
  registry.probe(prefix + ".loops_detected",
                 [a] { return u(a->stats().loops_detected); });
  registry.probe(prefix + ".list_overflows",
                 [a] { return u(a->stats().list_overflows); });
  registry.probe(prefix + ".packets_examined",
                 [a] { return u(a->stats().packets_examined); });
  registry.probe(prefix + ".errors_reversed",
                 [a] { return u(a->stats().errors_reversed); });
  registry.probe(prefix + ".errors_terminated",
                 [a] { return u(a->stats().errors_terminated); });
  registry.probe(prefix + ".recovery_readds",
                 [a] { return u(a->stats().recovery_readds); });
  registry.probe(prefix + ".dropped_disconnected",
                 [a] { return u(a->stats().dropped_disconnected); });
  registry.probe(prefix + ".discarded_for_recovery",
                 [a] { return u(a->stats().discarded_for_recovery); });
  registry.probe(prefix + ".bindings_logged",
                 [a] { return u(a->stats().bindings_logged); });
  registry.probe(prefix + ".acks_deferred",
                 [a] { return u(a->stats().acks_deferred); });
  registry.probe(prefix + ".acks_released",
                 [a] { return u(a->stats().acks_released); });
  registry.probe(prefix + ".acks_dropped_on_crash",
                 [a] { return u(a->stats().acks_dropped_on_crash); });
  registry.probe(prefix + ".cache_entries",
                 [a] { return u(a->cache().size()); });
  registry.probe(prefix + ".home_database_size",
                 [a] { return u(a->home_database_size()); });
  registry.probe(prefix + ".visiting_entries",
                 [a] { return u(a->visiting_count()); });
}

void bind_agent_aggregate_probes(
    telemetry::MetricRegistry& registry, const std::string& prefix,
    const std::vector<std::unique_ptr<core::MhrpAgent>>& agents) {
  const auto* v = &agents;
  const auto sum = [v](std::uint64_t core::AgentStats::* field) {
    std::uint64_t total = 0;
    for (const auto& agent : *v) total += agent->stats().*field;
    return u(total);
  };
  registry.probe(prefix + ".count", [v] { return u(v->size()); });
  registry.probe(prefix + ".registrations", [sum] {
    return sum(&core::AgentStats::registrations);
  });
  registry.probe(prefix + ".tunnels_built", [sum] {
    return sum(&core::AgentStats::tunnels_built);
  });
  registry.probe(prefix + ".retunnels",
                 [sum] { return sum(&core::AgentStats::retunnels); });
  registry.probe(prefix + ".delivered_to_visitor", [sum] {
    return sum(&core::AgentStats::delivered_to_visitor);
  });
  registry.probe(prefix + ".updates_sent",
                 [sum] { return sum(&core::AgentStats::updates_sent); });
  registry.probe(prefix + ".updates_received", [sum] {
    return sum(&core::AgentStats::updates_received);
  });
  registry.probe(prefix + ".loops_detected",
                 [sum] { return sum(&core::AgentStats::loops_detected); });
  registry.probe(prefix + ".packets_examined", [sum] {
    return sum(&core::AgentStats::packets_examined);
  });
  registry.probe(prefix + ".cache_entries", [v] {
    std::size_t total = 0;
    for (const auto& agent : *v) total += agent->cache().size();
    return static_cast<double>(total);
  });
  registry.probe(prefix + ".visiting_entries", [v] {
    std::size_t total = 0;
    for (const auto& agent : *v) total += agent->visiting_count();
    return static_cast<double>(total);
  });
}

void bind_mobile_probes(telemetry::MetricRegistry& registry,
                        const std::string& prefix,
                        const std::vector<core::MobileHost*>& mobiles) {
  const auto* v = &mobiles;
  const auto sum = [v](std::uint64_t core::MobileHostStats::* field) {
    std::uint64_t total = 0;
    for (const core::MobileHost* m : *v) total += m->stats().*field;
    return u(total);
  };
  registry.probe(prefix + ".count", [v] { return u(v->size()); });
  registry.probe(prefix + ".moves",
                 [sum] { return sum(&core::MobileHostStats::moves); });
  registry.probe(prefix + ".registrations_completed", [sum] {
    return sum(&core::MobileHostStats::registrations_completed);
  });
  registry.probe(prefix + ".registration_retransmits", [sum] {
    return sum(&core::MobileHostStats::registration_retransmits);
  });
  registry.probe(prefix + ".registrations_abandoned", [sum] {
    return sum(&core::MobileHostStats::registrations_abandoned);
  });
  registry.probe(prefix + ".advertisements_heard", [sum] {
    return sum(&core::MobileHostStats::advertisements_heard);
  });
  registry.probe(prefix + ".solicitations_sent", [sum] {
    return sum(&core::MobileHostStats::solicitations_sent);
  });
  registry.probe(prefix + ".tunneled_received", [sum] {
    return sum(&core::MobileHostStats::tunneled_received);
  });
  registry.probe(prefix + ".updates_sent",
                 [sum] { return sum(&core::MobileHostStats::updates_sent); });
}

void bind_store_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const store::HomeStore& store) {
  const store::HomeStore* s = &store;
  registry.probe(prefix + ".logged", [s] { return u(s->stats().logged); });
  registry.probe(prefix + ".acks_immediate",
                 [s] { return u(s->stats().acks_immediate); });
  registry.probe(prefix + ".acks_deferred",
                 [s] { return u(s->stats().acks_deferred); });
  registry.probe(prefix + ".interval_syncs",
                 [s] { return u(s->stats().interval_syncs); });
  registry.probe(prefix + ".crashes", [s] { return u(s->stats().crashes); });
  registry.probe(prefix + ".recoveries",
                 [s] { return u(s->stats().recoveries); });
  registry.probe(prefix + ".wal_appends",
                 [s] { return u(s->wal().stats().appends); });
  registry.probe(prefix + ".wal_bytes_appended",
                 [s] { return u(s->wal().stats().bytes_appended); });
  registry.probe(prefix + ".wal_syncs",
                 [s] { return u(s->wal().stats().syncs); });
  registry.probe(prefix + ".wal_snapshots",
                 [s] { return u(s->wal().stats().snapshots); });
  registry.probe(prefix + ".wal_batches",
                 [s] { return u(s->wal().stats().batches); });
  registry.probe(prefix + ".wal_batched_appends",
                 [s] { return u(s->wal().stats().batched_appends); });
  registry.probe(prefix + ".compactions_started",
                 [s] { return u(s->stats().compactions_started); });
  registry.probe(prefix + ".compaction_steps",
                 [s] { return u(s->wal().stats().compaction_steps); });
  registry.probe(prefix + ".patched_rows",
                 [s] { return u(s->wal().stats().patched_rows); });
  registry.probe(prefix + ".table_rows",
                 [s] { return u(s->wal().table().size()); });
  registry.probe(prefix + ".table_slots",
                 [s] { return u(s->wal().table().slot_count()); });
  registry.probe(prefix + ".table_tombstones",
                 [s] { return u(s->wal().table().tombstone_count()); });
  registry.probe(prefix + ".last_lsn", [s] { return u(s->last_lsn()); });
  registry.probe(prefix + ".durable_lsn", [s] { return u(s->durable_lsn()); });
}

void bind_fault_probes(telemetry::MetricRegistry& registry,
                       const std::string& prefix,
                       const faults::FaultPlane& plane) {
  const faults::FaultPlane* p = &plane;
  registry.probe(prefix + ".link_failures",
                 [p] { return u(p->stats().link_failures); });
  registry.probe(prefix + ".link_recoveries",
                 [p] { return u(p->stats().link_recoveries); });
  registry.probe(prefix + ".impairment_bursts",
                 [p] { return u(p->stats().impairment_bursts); });
  registry.probe(prefix + ".impairments_cleared",
                 [p] { return u(p->stats().impairments_cleared); });
  registry.probe(prefix + ".node_crashes",
                 [p] { return u(p->stats().node_crashes); });
  registry.probe(prefix + ".node_reboots",
                 [p] { return u(p->stats().node_reboots); });
  registry.probe(prefix + ".drop_windows_opened",
                 [p] { return u(p->stats().drop_windows_opened); });
  registry.probe(prefix + ".drop_windows_closed",
                 [p] { return u(p->stats().drop_windows_closed); });
  registry.probe(prefix + ".messages_dropped",
                 [p] { return u(p->stats().messages_dropped); });
  registry.probe(prefix + ".disk_error_windows",
                 [p] { return u(p->stats().disk_error_windows); });
}

void bind_dv_probes(
    telemetry::MetricRegistry& registry, const std::string& prefix,
    const std::vector<std::unique_ptr<routing::dv::DvProcess>>& processes) {
  const auto* ps = &processes;
  auto sum = [ps](std::uint64_t routing::dv::DvStats::*field) {
    std::uint64_t total = 0;
    for (const auto& p : *ps) total += p->stats().*field;
    return static_cast<double>(total);
  };
  using S = routing::dv::DvStats;
  registry.probe(prefix + ".updates_sent",
                 [sum] { return sum(&S::updates_sent); });
  registry.probe(prefix + ".updates_received",
                 [sum] { return sum(&S::updates_received); });
  registry.probe(prefix + ".periodic_rounds",
                 [sum] { return sum(&S::periodic_rounds); });
  registry.probe(prefix + ".triggered_updates",
                 [sum] { return sum(&S::triggered_updates); });
  registry.probe(prefix + ".route_changes",
                 [sum] { return sum(&S::route_changes); });
  registry.probe(prefix + ".routes_withdrawn",
                 [sum] { return sum(&S::routes_withdrawn); });
  registry.probe(prefix + ".routes_expired",
                 [sum] { return sum(&S::routes_expired); });
  registry.probe(prefix + ".poisons_received",
                 [sum] { return sum(&S::poisons_received); });
  registry.probe(prefix + ".counting_to_infinity",
                 [sum] { return sum(&S::counting_to_infinity); });
  registry.probe(prefix + ".malformed_updates",
                 [sum] { return sum(&S::malformed_updates); });
}

}  // namespace mhrp::scenario
