#include "scenario/deployment.hpp"

#include <algorithm>
#include <limits>

#include "scenario/audit_hooks.hpp"
#include "scenario/telemetry_hooks.hpp"

namespace mhrp::scenario {

MhrpDeployment::MhrpDeployment(const ProtocolOptions& protocol,
                               std::uint32_t shards)
    : topo(protocol.seed, shards), protocol_(protocol) {}

MhrpDeployment::~MhrpDeployment() {
  if (audit::audit_build()) audit::require_clean(auditor.report());
}

core::MobileHost& MhrpDeployment::add_mobile_host(
    const std::string& name, net::IpAddress home_address,
    const net::Interface& home_network, std::uint32_t shard,
    bool solicit_on_attach) {
  core::MobileHostConfig config;
  config.home_agent = home_network.ip();
  config.update_min_interval = protocol_.update_min_interval;
  config.solicit_on_attach = solicit_on_attach;
  core::MobileHost& mobile =
      topo.add_mobile_host(name, home_address, home_network.prefix_length(),
                           config, shard);
  mobiles.push_back(&mobile);
  return mobile;
}

core::AgentConfig MhrpDeployment::agent_config(bool home, bool foreign) const {
  core::AgentConfig config;
  config.home_agent = home;
  config.foreign_agent = foreign;
  config.cache_agent = true;
  config.advertisement_period = protocol_.advertisement_period;
  config.max_list_length = protocol_.max_list_length;
  config.forwarding_pointers = protocol_.forwarding_pointers;
  config.update_min_interval = protocol_.update_min_interval;
  config.verify_recovery_with_arp =
      foreign && protocol_.fa_verify_recovery_with_arp;
  config.reregister_broadcast_on_reboot =
      foreign && protocol_.fa_reregister_broadcast_on_reboot;
  return config;
}

void MhrpDeployment::install(const Roles& roles) {
  for (const auto& node : topo.nodes()) {
    node->set_icmp_quote_limit(protocol_.icmp_quote_limit);
  }

  topo.install_static_routes();

  if (protocol_.routing == routing::dv::Mode::kDv) {
    util::Rng dv_seeds(protocol_.seed ^ 0x64767274ULL);
    for (const auto& node : topo.nodes()) {
      auto* router = dynamic_cast<node::Router*>(node.get());
      if (router == nullptr) continue;
      auto process = std::make_unique<routing::dv::DvProcess>(
          *router, protocol_.dv,
          dv_seeds.uniform(0, std::numeric_limits<std::uint64_t>::max() - 1));
      process->start();
      dv_processes.push_back(std::move(process));
    }
  }

  ha = std::make_unique<core::MhrpAgent>(*roles.home.router,
                                         agent_config(true, false));
  ha->serve_on(*roles.home.serves);
  if (protocol_.store.enabled) {
    ha_store = std::make_unique<store::HomeStore>(roles.home.router->sim(),
                                                  protocol_.store);
    ha->attach_store(*ha_store);
  }
  for (const core::MobileHost* mobile : mobiles) {
    ha->provision_mobile_host(mobile->home_address());
  }
  ha->start_advertising();

  for (const AgentSite& site : roles.foreign) {
    auto agent = std::make_unique<core::MhrpAgent>(*site.router,
                                                   agent_config(false, true));
    agent->serve_on(*site.serves);
    agent->start_advertising();
    fas.push_back(std::move(agent));
  }

  for (node::Node* node : roles.cache) {
    corr_agents.push_back(
        std::make_unique<core::MhrpAgent>(*node, agent_config(false, false)));
  }

  // The auditor is a single-threaded instrument: a world with more than
  // one shard transmits onto its links from several threads at once.
  if (audit::audit_build() && topo.shard_count() == 1) {
    audit::attach(auditor, *this);
  }
}

bool MhrpDeployment::attach_and_register(core::MobileHost& mobile,
                                         net::Link& cell, sim::Time limit) {
  bool registered = false;
  const util::Subscription subscription =
      mobile.on_registered.add([&registered] { registered = true; });
  mobile.attach_to(cell);
  const sim::Time deadline = topo.sim().now() + limit;
  while (!registered && topo.sim().now() < deadline) {
    topo.sim().run_for(sim::millis(100));
  }
  return registered;
}

std::uint64_t MhrpDeployment::total_updates_sent() const {
  std::uint64_t total = ha->stats().updates_sent;
  for (const auto& fa : fas) total += fa->stats().updates_sent;
  for (const auto& ca : corr_agents) total += ca->stats().updates_sent;
  for (const auto* m : mobiles) total += m->stats().updates_sent;
  return total;
}

std::size_t MhrpDeployment::total_agent_state() const {
  std::size_t total = ha->home_database_size() + ha->cache().size();
  for (const auto& fa : fas) total += fa->visiting_count() + fa->cache().size();
  for (const auto& ca : corr_agents) total += ca->cache().size();
  return total;
}

std::size_t MhrpDeployment::busiest_node_state() const {
  std::size_t busiest = ha->home_database_size() + ha->cache().size();
  for (const auto& fa : fas) {
    busiest = std::max(busiest, fa->visiting_count() + fa->cache().size());
  }
  for (const auto& ca : corr_agents) {
    busiest = std::max(busiest, ca->cache().size());
  }
  return busiest;
}

void MhrpDeployment::bind_role_probes(
    telemetry::MetricRegistry& registry) const {
  bind_agent_probes(registry, "ha", *ha);
  bind_agent_aggregate_probes(registry, "fa", fas);
  bind_agent_aggregate_probes(registry, "ca", corr_agents);
  bind_mobile_probes(registry, "mobiles", mobiles);
  if (ha_store) bind_store_probes(registry, "store", *ha_store);
}

}  // namespace mhrp::scenario
