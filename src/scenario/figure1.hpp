// The paper's Figure 1 internetwork, with MHRP installed:
//
//              ┌────────── backbone (10.0.0.0/24) ──────────┐
//             R1 (.1)            R2 (.2)                R3 (.3)
//              │                  │                       │
//        net A 10.1/24      net B 10.2/24           net C 10.3/24
//          S (.10)          M's home net             R4 (.4)  R5 (.5)
//                           (HA = R2)                 │        │
//                                             net D 10.4/24  net E 10.5/24
//                                             (wireless, FA) (wireless, FA)
//
// M is a mobile host with home address 10.2.0.77 on network B. R4 and R5
// are foreign agents on the wireless networks D and E (R5/E extends the
// figure to support the §6.3 walkthrough, where M moves from R4 to a new
// foreign agent R5). R2 is M's home agent. R1 is a cache agent, and S
// is one unless Figure1Options says otherwise. Every integration test
// and several benchmarks run on this world.
#pragma once

#include "scenario/deployment.hpp"

namespace mhrp::scenario {

struct Figure1Options {
  ProtocolOptions protocol;
  /// S runs a cache agent; false leaves it a plain host behind R1's.
  bool s_is_cache_agent = true;
};

class Figure1 : public MhrpDeployment {
 public:
  explicit Figure1(Figure1Options options = Figure1Options());

  node::Router* r1 = nullptr;
  node::Router* r2 = nullptr;  // home agent
  node::Router* r3 = nullptr;
  node::Router* r4 = nullptr;  // foreign agent, network D
  node::Router* r5 = nullptr;  // foreign agent, network E
  node::Host* s = nullptr;
  core::MobileHost* m = nullptr;

  net::Link* backbone = nullptr;
  net::Link* net_a = nullptr;
  net::Link* net_b = nullptr;
  net::Link* net_c = nullptr;
  net::Link* net_d = nullptr;
  net::Link* net_e = nullptr;

  // The installed agents by role; `ha` (R2: home + cache agent) is the
  // deployment's.
  core::MhrpAgent* fa_r4 = nullptr;     // foreign + cache agent
  core::MhrpAgent* fa_r5 = nullptr;     // foreign + cache agent
  core::MhrpAgent* agent_r1 = nullptr;  // cache agent
  core::MhrpAgent* agent_s = nullptr;   // S as cache agent (optional)

  static constexpr const char* kMAddress = "10.2.0.77";
  [[nodiscard]] net::IpAddress m_address() const {
    return net::IpAddress::parse(kMAddress);
  }

  /// Attach M to a cell and run the simulation until its registration
  /// round completes (or `limit` elapses). Returns true on success.
  bool move_and_register(net::Link& cell, sim::Time limit = sim::seconds(30)) {
    return attach_and_register(*m, cell, limit);
  }

  /// Convenience movements from the paper's walkthroughs.
  bool register_at_d() { return move_and_register(*net_d); }
  bool register_at_e() { return move_and_register(*net_e); }
  bool register_at_home() { return move_and_register(*net_b); }
};

}  // namespace mhrp::scenario
