// Topology: owns a simulated internetwork — the executive, every node,
// every link — and installs routing state that models a *converged*
// standard IP routing system (shortest paths over the link graph), which
// is what the paper assumes underneath MHRP ("the standard IP routing
// algorithms will deliver the packet to M's home network", §1).
//
// Hosts do not get full tables: like real end systems they get a default
// route via a router on their LAN (mobile hosts re-point it as they
// move). Routers get one shortest-path route per destination, where a
// destination is an aggregate the world declared (add_aggregate) or else
// one router-interface prefix. A world whose address plan aggregates
// keeps every router's table small as the internetwork grows (paper §3,
// §7); one that declares nothing gets a route per prefix.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mobile_host.hpp"
#include "node/host.hpp"
#include "node/router.hpp"
#include "sim/executive.hpp"
#include "sim/sharded_executive.hpp"
#include "util/hooks.hpp"
#include "util/rng.hpp"

namespace mhrp::scenario {

/// A node or link name: `prefix` followed by `n` in decimal ("R12",
/// "cell3"). Built by appending: operator+ on a one-character literal
/// makes gcc 12.2 report a false -Wrestrict overlap, which stops a
/// -Werror Release build.
[[nodiscard]] std::string numbered(std::string_view prefix, int n);

class Topology {
 public:
  /// Runs on a ShardedExecutive with `shards` shards: one (the default)
  /// runs inline on the caller's thread; with more, the caller's thread
  /// runs shard 0 and one worker thread each other shard. Throws
  /// std::invalid_argument when `shards` is 0. A node stays on the shard
  /// add_router/add_host/add_mobile_host place it on (shard 0 unless
  /// they say otherwise).
  explicit Topology(std::uint64_t seed = 1, std::uint32_t shards = 1)
      : sim_(shards), rng_(seed) {}

  /// The executive that runs the world: run()/run_for() here. Nodes
  /// hold the handle pinned to their shard (shard_view).
  [[nodiscard]] sim::ShardedExecutive& sim() { return sim_; }
  [[nodiscard]] const sim::ShardedExecutive& sim() const { return sim_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  // ---- Construction ----

  node::Router& add_router(const std::string& name, std::uint32_t shard = 0);
  node::Host& add_host(const std::string& name, std::uint32_t shard = 0);
  core::MobileHost& add_mobile_host(const std::string& name,
                                    net::IpAddress home_ip,
                                    int home_prefix_length,
                                    core::MobileHostConfig config,
                                    std::uint32_t shard = 0);

  net::Link& add_link(const std::string& name,
                      sim::Time latency = sim::millis(1),
                      std::uint64_t bandwidth_bps = 0);

  /// Create an interface on `node`, addressed `ip/prefix`, attached to
  /// `link`.
  net::Interface& connect(node::Node& node, net::Link& link,
                          net::IpAddress ip, int prefix_length,
                          const std::string& if_name = "");

  // ---- Partitioning ----

  [[nodiscard]] std::uint32_t shard_count() const {
    return sim_.shard_count();
  }
  /// Links whose member interfaces span more than one shard — the edges
  /// the conservative protocol synchronizes across.
  [[nodiscard]] std::vector<const net::Link*> cross_shard_links() const;
  /// The minimum latency over cross_shard_links(): the largest sound
  /// lookahead for the sharded executive. Returns 0 when no link crosses
  /// shards (any lookahead is then sound).
  [[nodiscard]] sim::Time min_cross_shard_latency() const;

  // ---- Routing ----

  /// Declare `prefix` an aggregate whose addresses `members` (routers)
  /// originate. Declared aggregates must nest: of two that overlap, the
  /// shorter prefix holds every member of the longer one. Throws
  /// std::invalid_argument when `prefix` is already declared.
  void add_aggregate(net::Prefix prefix,
                     std::vector<const node::Node*> members);

  /// Install static routes over the current link graph: a default route
  /// via a LAN router on non-forwarding nodes, and on routers one route
  /// per destination. The destinations are the declared aggregates plus
  /// every router-interface prefix outside all of them. A destination's
  /// routes cover the routers of its smallest enclosing aggregate (every
  /// router when none encloses it); each of those routers but the
  /// destination's own members gets one route toward the nearest member,
  /// over unit link costs, ties broken toward the higher node index
  /// (ScaleWorld's address plan explains why). Mobile hosts are
  /// skipped entirely (their default route follows their registration).
  void install_static_routes();

  // ---- Lookup ----

  [[nodiscard]] node::Node* find(const std::string& name);
  [[nodiscard]] net::Link* find_link(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<node::Node>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<net::Link>>& links() const {
    return links_;
  }

  /// Shortest-path hop distance (link count) between two nodes in the
  /// current graph; -1 when disconnected. Benchmarks use this to report
  /// path stretch against the optimum.
  [[nodiscard]] int hop_distance(const node::Node& a, const node::Node& b);
  /// hop_distance from `from` to every node, indexed like nodes().
  [[nodiscard]] std::vector<int> hop_distances(const node::Node& from);

  // ---- Observation ----

  /// Fired for every node added from now on, on all construction paths
  /// (add_router/add_host/add_mobile_host). Observers like Tracer
  /// subscribe to cover nodes created after they attached.
  util::Hooks<node::Node&> on_node_added;

 private:
  // Interface -> owning-node index, rebuilt per routing computation.
  // Lookup-only registry (never iterated), so pointer keys cannot leak
  // address order into route installation or digests.
  // mhrp-lint: allow(pointer-keyed) lookup-only ownership registry
  using IfaceOwnerMap = std::unordered_map<const net::Interface*, int>;
  [[nodiscard]] IfaceOwnerMap iface_owners() const;
  [[nodiscard]] int index_of(const node::Node& node) const;

  // Declared first so it is destroyed last: node/link destructors cancel
  // events through their executive handles.
  sim::ShardedExecutive sim_;
  util::Rng rng_;
  std::vector<std::unique_ptr<node::Node>> nodes_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::map<std::string, node::Node*> by_name_;
  std::map<std::string, net::Link*> link_by_name_;
  std::vector<bool> is_mobile_;  // parallel to nodes_
  std::map<net::Prefix, std::vector<const node::Node*>> aggregates_;
};

}  // namespace mhrp::scenario
