// §3's alternative deployment: "It may also be possible to support an
// entire routing domain with one (or more) home agents or foreign agents
// by selectively using host-specific IP routes. When a mobile host
// disconnects from its home network, its home agent could begin
// advertising network reachability to that specific host. Such
// host-specific routes would be advertised only while the mobile host was
// disconnected from its home network, and would not be propagated outside
// that routing domain."
//
// DomainCoverage glues a home agent to the domain's distance-vector
// routing: whenever a provisioned mobile host's binding moves away from
// home, a /32 for it is injected (drawing the domain's traffic for that
// host to the agent, which intercepts and tunnels); when the host
// returns, the route is withdrawn (poisoned), and plain subnet routing
// resumes. The DV protocol already keeps host routes inside the domain.
#pragma once

#include "core/agent.hpp"
#include "routing/dv/dv_process.hpp"
#include "util/hooks.hpp"

namespace mhrp::core {

class DomainCoverage {
 public:
  /// `agent` must be a home agent on the same node that runs `dv`.
  /// Subscribes to the agent's on_binding_changed alongside any other
  /// observer (e.g. an HaReplicator); destruction detaches it.
  DomainCoverage(MhrpAgent& agent, routing::dv::DvProcess& dv) : dv_(dv) {
    subscription_ = agent.on_binding_changed.add(
        [this](net::IpAddress mobile_host, net::IpAddress foreign_agent) {
          const bool away = !foreign_agent.is_unspecified();
          dv_.advertise_host_route(mobile_host, away);
          if (away) {
            ++routes_advertised_;
          } else {
            ++routes_withdrawn_;
          }
        });
  }

  DomainCoverage(const DomainCoverage&) = delete;
  DomainCoverage& operator=(const DomainCoverage&) = delete;

  [[nodiscard]] std::uint64_t routes_advertised() const {
    return routes_advertised_;
  }
  [[nodiscard]] std::uint64_t routes_withdrawn() const {
    return routes_withdrawn_;
  }

 private:
  routing::dv::DvProcess& dv_;
  std::uint64_t routes_advertised_ = 0;
  std::uint64_t routes_withdrawn_ = 0;
  util::Subscription subscription_;
};

}  // namespace mhrp::core
