#include "scenario/mhrp_world.hpp"

#include <sstream>

#include "scenario/replay_digest.hpp"

namespace mhrp::scenario {

MhrpWorld::MhrpWorld(MhrpWorldOptions opts)
    : MhrpDeployment(opts.protocol), options(opts) {
  auto& backbone = topo.add_link("backbone", sim::millis(2));
  Roles roles;

  // Home site: router .1 on 10.1.0.0/24, backbone 10.0.0.1.
  home_router = &topo.add_router("HomeRouter");
  topo.connect(*home_router, backbone, net::IpAddress::of(10, 0, 0, 1), 24);
  home_lan = &topo.add_link("homeLan", sim::millis(1));
  net::Interface& ha_iface =
      topo.connect(*home_router, *home_lan, net::IpAddress::of(10, 1, 0, 1),
                   24);
  roles.home = {home_router, &ha_iface};

  // Correspondent site: router on 10.200.0.0/24, backbone 10.0.0.2.
  auto& corr_router = topo.add_router("CorrRouter");
  topo.connect(corr_router, backbone, net::IpAddress::of(10, 0, 0, 2), 24);
  auto& corr_lan = topo.add_link("corrLan", sim::millis(1));
  topo.connect(corr_router, corr_lan, net::IpAddress::of(10, 200, 0, 1), 24);
  for (int c = 0; c < opts.correspondents; ++c) {
    auto& host = topo.add_host(numbered("C", c));
    topo.connect(host, corr_lan,
                 net::IpAddress::of(10, 200, 0,
                                    static_cast<std::uint8_t>(10 + c)),
                 24);
    correspondents.push_back(&host);
    roles.cache.push_back(&host);
  }

  // Foreign sites: router j on 10.(2+j).0.0/24, backbone 10.0.0.(10+j),
  // each with a wireless cell.
  for (int j = 0; j < opts.foreign_sites; ++j) {
    auto& r = topo.add_router(numbered("FA", j));
    topo.connect(r, backbone,
                 net::IpAddress::of(10, 0, 0,
                                    static_cast<std::uint8_t>(10 + j)),
                 24);
    auto& cell = topo.add_link(numbered("cell", j), sim::millis(1));
    fa_routers.push_back(&r);
    cells.push_back(&cell);
    roles.foreign.push_back({&r, &topo.connect(r, cell, fa_address(j), 24)});
  }

  // Mobile hosts, homed on the home LAN (initially detached).
  for (int i = 0; i < opts.mobile_hosts; ++i) {
    add_mobile_host(numbered("M", i), mobile_address(i), ha_iface, 0,
                    opts.solicit_on_attach);
  }
  install(roles);
}

std::string MhrpWorld::metrics_digest() const {
  // The registry is built on demand here (MhrpWorld is the small scripted
  // world; nothing polls it mid-run) — probes read the same stats structs
  // either way, so the digest matches ScaleWorld's structure.
  telemetry::MetricRegistry reg;
  bind_role_probes(reg);

  std::ostringstream out;
  out << "mhrpworld f=" << options.foreign_sites
      << " m=" << options.mobile_hosts << " c=" << options.correspondents
      << " seed=" << options.protocol.seed << " now=" << topo.sim().now()
      << "\n";
  out << topology_digest(topo);
  out << reg.snapshot().to_text();
  return out.str();
}

}  // namespace mhrp::scenario
