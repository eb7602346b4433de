// A parameterized internetwork with MHRP fully installed: one home site
// (home agent router), F foreign sites (foreign agent routers with
// wireless cells), one correspondent site, M mobile hosts, and C
// correspondent hosts (each a cache agent). Property tests sweep its
// parameters; bench_scalability, bench_handoff, and bench_cache_convergence
// are built on it.
#pragma once

#include <string>
#include <vector>

#include "scenario/deployment.hpp"

namespace mhrp::scenario {

struct MhrpWorldOptions {
  int foreign_sites = 3;
  int mobile_hosts = 1;
  int correspondents = 1;  // each a cache agent
  /// §3: a mobile host "may wait to hear the next periodic advertisement
  /// message, or may optionally multicast an agent solicitation".
  bool solicit_on_attach = true;
  /// Protocol knobs shared with every other scenario world.
  ProtocolOptions protocol;
};

class MhrpWorld : public MhrpDeployment {
 public:
  explicit MhrpWorld(MhrpWorldOptions options = MhrpWorldOptions());

  MhrpWorldOptions options;

  node::Router* home_router = nullptr;  // also the home agent
  net::Link* home_lan = nullptr;
  std::vector<node::Router*> fa_routers;
  std::vector<net::Link*> cells;  // wireless cell of each foreign site
  std::vector<node::Host*> correspondents;

  [[nodiscard]] net::IpAddress mobile_address(int i) const {
    return net::IpAddress::of(10, 1, 0, static_cast<std::uint8_t>(100 + i));
  }
  [[nodiscard]] net::IpAddress fa_address(int site) const {
    return net::IpAddress::of(10, static_cast<std::uint8_t>(2 + site), 0, 1);
  }

  /// Attach mobile `i` to foreign cell `site` (or home when site < 0)
  /// and run until its registration completes. Returns success.
  bool move_and_register(int i, int site, sim::Time limit = sim::seconds(30)) {
    return attach_and_register(
        *mobiles[static_cast<std::size_t>(i)],
        site < 0 ? *home_lan : *cells[static_cast<std::size_t>(site)], limit);
  }

  /// Deterministic textual digest (topology counters plus a
  /// metric-registry snapshot over every agent, the mobiles, and the
  /// store) — the same replay contract as ScaleWorld::metrics_digest.
  [[nodiscard]] std::string metrics_digest() const;
};

}  // namespace mhrp::scenario
