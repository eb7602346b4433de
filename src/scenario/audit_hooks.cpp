#include "scenario/audit_hooks.hpp"

#include <cstdio>
#include <cstdlib>

#include "scenario/deployment.hpp"

namespace mhrp::scenario::audit {

void attach(analysis::PacketAuditor& auditor, Topology& topo) {
  for (const auto& link : topo.links()) auditor.attach_link(*link);
}

void attach(analysis::PacketAuditor& auditor, MhrpDeployment& world) {
  attach(auditor, world.topo);
  auto watch = [&auditor](core::MhrpAgent& agent) {
    auditor.watch_cache(agent.cache(), agent.node().name() + " cache");
  };
  if (world.ha) watch(*world.ha);
  for (const auto& fa : world.fas) watch(*fa);
  for (const auto& ca : world.corr_agents) watch(*ca);
}

bool audit_build() {
#ifdef MHRP_AUDIT
  return true;
#else
  return false;
#endif
}

void require_clean(const analysis::AuditReport& report) {
  if (report.clean()) return;
  std::fputs(report.to_string().c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace mhrp::scenario::audit
