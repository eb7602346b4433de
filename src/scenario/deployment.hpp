// MhrpDeployment: an internetwork with the MHRP roles installed. Paper §2
// lets the home, foreign and cache agent roles "be combined in different
// ways on one or more hosts or routers"; every scenario world (Figure1,
// MhrpWorld, ScaleWorld) derives from this class, builds its topology,
// adds its mobile hosts here, names which node plays which role, and
// calls install() once. This is the only code that turns ProtocolOptions
// into an AgentConfig or a MobileHostConfig.
//
// install() order is part of the replay contract: agents advertise as
// they start and DV processes arm jittered timers, and those events'
// sequence numbers break ties between equal timestamps. Moving one step
// changes every replay digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/packet_auditor.hpp"
#include "core/agent.hpp"
#include "routing/dv/dv_process.hpp"
#include "scenario/protocol_options.hpp"
#include "scenario/topology.hpp"
#include "store/home_store.hpp"
#include "telemetry/metric_registry.hpp"

namespace mhrp::scenario {

/// A router running a mobility agent and the network it serves.
struct AgentSite {
  node::Router* router = nullptr;
  net::Interface* serves = nullptr;
};

/// Which node plays which §2 role.
struct Roles {
  AgentSite home;                  // home agent (also a cache agent)
  std::vector<AgentSite> foreign;  // foreign agents, one per cell
  std::vector<node::Node*> cache;  // nodes that are only cache agents
};

class MhrpDeployment {
 public:
  /// `shards` as for Topology: one (the default) runs inline, and 0 is
  /// rejected with std::invalid_argument.
  explicit MhrpDeployment(const ProtocolOptions& protocol,
                          std::uint32_t shards = 1);
  MhrpDeployment(const MhrpDeployment&) = delete;
  MhrpDeployment& operator=(const MhrpDeployment&) = delete;
  /// In audit builds, aborts with the report when `auditor` recorded a
  /// violation (audit::require_clean).
  ~MhrpDeployment();

  // Declared first so it is destroyed last: the agents and DV processes
  // below hook into its nodes.
  Topology topo;

  std::vector<core::MobileHost*> mobiles;
  std::unique_ptr<core::MhrpAgent> ha;
  /// The HA's durable database, present when protocol.store.enabled.
  std::unique_ptr<store::HomeStore> ha_store;
  std::vector<std::unique_ptr<core::MhrpAgent>> fas;  // in Roles::foreign order
  /// Cache-only agents in Roles::cache order: the correspondents, or
  /// Figure 1's R1 and S.
  std::vector<std::unique_ptr<core::MhrpAgent>> corr_agents;
  /// One DV routing process per router, in construction order, populated
  /// only under protocol.routing == Mode::kDv (static routes stay as the
  /// fallback tier). Started by install().
  std::vector<std::unique_ptr<routing::dv::DvProcess>> dv_processes;

  /// Add a mobile host homed on `home_network`, the home agent's
  /// interface: it takes that prefix and registers with that address.
  /// install() provisions it at the home agent.
  core::MobileHost& add_mobile_host(const std::string& name,
                                    net::IpAddress home_address,
                                    const net::Interface& home_network,
                                    std::uint32_t shard = 0,
                                    bool solicit_on_attach = true);

  /// Install routing and every agent, in this order: the ICMP quote limit
  /// on every node, static routes, DV processes (seeded from their own
  /// stream, so enabling DV shifts no other draw), the home agent (store
  /// attached before provisioning, so the log holds every row), the
  /// foreign agents, the cache agents, and — in audit builds, one-shard
  /// worlds only — `auditor` on every link and agent cache. Call once, after
  /// the last node and link exist.
  void install(const Roles& roles);

  /// Attach `mobile` to `cell` and run until its registration completes
  /// or `limit` elapses. Returns true on success.
  bool attach_and_register(core::MobileHost& mobile, net::Link& cell,
                           sim::Time limit);

  /// Location-update messages sent by every agent and mobile host.
  [[nodiscard]] std::uint64_t total_updates_sent() const;
  /// Total agent control state (HA database rows + FA visiting entries +
  /// cache entries) — the §3 "scales linearly" quantity.
  [[nodiscard]] std::size_t total_agent_state() const;
  /// Control state at the busiest single agent (§7: no node's burden
  /// grows with the whole internetwork's mobile population).
  [[nodiscard]] std::size_t busiest_node_state() const;

  /// Register the ha, fa, ca, mobiles and (if present) store probes.
  void bind_role_probes(telemetry::MetricRegistry& registry) const;

 private:
  [[nodiscard]] core::AgentConfig agent_config(bool home, bool foreign) const;

  ProtocolOptions protocol_;

 public:
  /// This world's wire auditor (audit_hooks.hpp). Declared last so it is
  /// destroyed first, before the links and caches it watches.
  analysis::PacketAuditor auditor;
};

}  // namespace mhrp::scenario
