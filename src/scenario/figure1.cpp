#include "scenario/figure1.hpp"

namespace mhrp::scenario {

namespace {
net::IpAddress ip(const char* text) { return net::IpAddress::parse(text); }
}  // namespace

Figure1::Figure1(Figure1Options options) : MhrpDeployment(options.protocol) {
  backbone = &topo.add_link("backbone", sim::millis(2));
  net_a = &topo.add_link("netA", sim::millis(1));
  net_b = &topo.add_link("netB", sim::millis(1));
  net_c = &topo.add_link("netC", sim::millis(1));
  net_d = &topo.add_link("netD", sim::millis(1));
  net_e = &topo.add_link("netE", sim::millis(1));

  r1 = &topo.add_router("R1");
  r2 = &topo.add_router("R2");
  r3 = &topo.add_router("R3");
  r4 = &topo.add_router("R4");
  r5 = &topo.add_router("R5");
  s = &topo.add_host("S");

  topo.connect(*r1, *backbone, ip("10.0.0.1"), 24);
  topo.connect(*r2, *backbone, ip("10.0.0.2"), 24);
  topo.connect(*r3, *backbone, ip("10.0.0.3"), 24);

  topo.connect(*r1, *net_a, ip("10.1.0.1"), 24);
  topo.connect(*s, *net_a, ip("10.1.0.10"), 24);

  net::Interface& r2_home = topo.connect(*r2, *net_b, ip("10.2.0.1"), 24);

  topo.connect(*r3, *net_c, ip("10.3.0.1"), 24);
  topo.connect(*r4, *net_c, ip("10.3.0.4"), 24);
  topo.connect(*r5, *net_c, ip("10.3.0.5"), 24);

  net::Interface& r4_cell = topo.connect(*r4, *net_d, ip("10.4.0.1"), 24);
  net::Interface& r5_cell = topo.connect(*r5, *net_e, ip("10.5.0.1"), 24);

  // M registers with R2's address *on its home network* — that is the
  // agent address R2 advertises on network B.
  m = &add_mobile_host("M", m_address(), r2_home);

  Roles roles;
  roles.home = {r2, &r2_home};
  roles.foreign = {{r4, &r4_cell}, {r5, &r5_cell}};
  roles.cache = {r1};
  if (options.s_is_cache_agent) roles.cache.push_back(s);
  install(roles);

  fa_r4 = fas[0].get();
  fa_r5 = fas[1].get();
  agent_r1 = corr_agents[0].get();
  if (options.s_is_cache_agent) agent_s = corr_agents[1].get();
}

}  // namespace mhrp::scenario
