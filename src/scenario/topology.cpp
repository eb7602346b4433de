#include "scenario/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace mhrp::scenario {

std::string numbered(std::string_view prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

node::Router& Topology::add_router(const std::string& name,
                                   std::uint32_t shard) {
  auto router = std::make_unique<node::Router>(sim_.shard_view(shard), name);
  node::Router& ref = *router;
  nodes_.push_back(std::move(router));
  is_mobile_.push_back(false);
  by_name_[name] = &ref;
  on_node_added(ref);
  return ref;
}

node::Host& Topology::add_host(const std::string& name,
                               std::uint32_t shard) {
  auto host = std::make_unique<node::Host>(sim_.shard_view(shard), name);
  node::Host& ref = *host;
  nodes_.push_back(std::move(host));
  is_mobile_.push_back(false);
  by_name_[name] = &ref;
  on_node_added(ref);
  return ref;
}

core::MobileHost& Topology::add_mobile_host(const std::string& name,
                                            net::IpAddress home_ip,
                                            int home_prefix_length,
                                            core::MobileHostConfig config,
                                            std::uint32_t shard) {
  auto mh = std::make_unique<core::MobileHost>(sim_.shard_view(shard), name,
                                               home_ip, home_prefix_length,
                                               config);
  core::MobileHost& ref = *mh;
  nodes_.push_back(std::move(mh));
  is_mobile_.push_back(true);
  by_name_[name] = &ref;
  on_node_added(ref);
  return ref;
}

net::Link& Topology::add_link(const std::string& name, sim::Time latency,
                              std::uint64_t bandwidth_bps) {
  auto link = std::make_unique<net::Link>(sim_, name, latency, bandwidth_bps);
  net::Link& ref = *link;
  links_.push_back(std::move(link));
  link_by_name_[name] = &ref;
  return ref;
}

net::Interface& Topology::connect(node::Node& node, net::Link& link,
                                  net::IpAddress ip, int prefix_length,
                                  const std::string& if_name) {
  const std::string name =
      if_name.empty() ? "eth" + std::to_string(node.interfaces().size())
                      : if_name;
  net::Interface& iface = node.add_interface(name, ip, prefix_length);
  link.attach(iface);
  return iface;
}

int Topology::index_of(const node::Node& node) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].get() == &node) return static_cast<int>(i);
  }
  throw std::invalid_argument("node not in topology: " + node.name());
}

Topology::IfaceOwnerMap Topology::iface_owners() const {
  // One O(nodes + interfaces) pass replacing the per-link-member full
  // ownership scans that made 10⁵-node world construction quadratic.
  // Lookup-only (never iterated), so pointer keys cannot leak pointer
  // order into anything deterministic.
  IfaceOwnerMap owners;
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->interfaces().size();
  owners.reserve(total);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (const auto& iface : nodes_[n]->interfaces()) {
      owners.emplace(iface.get(), static_cast<int>(n));
    }
  }
  return owners;
}

void Topology::add_aggregate(net::Prefix prefix,
                             std::vector<const node::Node*> members) {
  if (!aggregates_.emplace(prefix, std::move(members)).second) {
    throw std::invalid_argument("Topology: aggregate " + prefix.to_string() +
                                " declared twice");
  }
}

void Topology::install_static_routes() {
  const IfaceOwnerMap owners = iface_owners();
  const auto n_nodes = nodes_.size();

  // Routers, and the hops between them in link order: a hop leaves on
  // `out` toward the neighbor's address `via` on the shared link.
  struct Hop {
    int to;
    net::Interface* out;
    net::IpAddress via;
  };
  std::vector<int> routers;
  std::vector<bool> is_router(n_nodes);
  std::vector<std::vector<Hop>> hops(n_nodes);
  // mhrp-lint: allow(pointer-keyed) lookup-only node registry
  std::unordered_map<const node::Node*, int> index;
  index.reserve(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    index.emplace(nodes_[n].get(), static_cast<int>(n));
    is_router[n] = nodes_[n]->forwarding() && !is_mobile_[n];
    if (is_router[n]) routers.push_back(static_cast<int>(n));
  }
  // The router owning `iface`, or -1.
  auto router_of = [&](const net::Interface* iface) {
    const auto owner = owners.find(iface);
    return owner != owners.end() &&
                   is_router[static_cast<std::size_t>(owner->second)]
               ? owner->second
               : -1;
  };
  for (const auto& link : links_) {
    const auto& members = link->members();
    for (net::Interface* a : members) {
      const int from = router_of(a);
      if (from < 0) continue;
      for (net::Interface* b : members) {
        const int to = router_of(b);
        if (to < 0 || to == from) continue;
        hops[static_cast<std::size_t>(from)].push_back({to, a, b->ip()});
      }
    }
  }

  // Plain hosts: a default route via a forwarding neighbor on their LAN,
  // the first forwarding-owned member in link order.
  for (std::size_t n = 0; n < n_nodes; ++n) {
    node::Node& node = *nodes_[n];
    if (is_mobile_[n] || node.forwarding()) continue;
    for (const auto& iface : node.interfaces()) {
      if (!iface->attached()) continue;
      const auto& members = iface->link()->members();
      const auto gateway = std::find_if(
          members.begin(), members.end(), [&](net::Interface* member) {
            return member != iface.get() && router_of(member) >= 0;
          });
      if (gateway == members.end()) continue;
      node.routing_table().install({net::Prefix(net::kUnspecified, 0),
                                    (*gateway)->ip(), iface.get(), 1,
                                    routing::RouteKind::kStatic});
      break;
    }
  }

  // One breadth-first search per destination, from its members over the
  // routers in `scope`. Each router reached gets one route, toward the
  // highest-indexed neighbor one hop closer to a member.
  std::vector<int> distance(n_nodes, -1);
  std::vector<std::uint32_t> scope_mark(n_nodes, 0);
  std::uint32_t stamp = 0;
  std::vector<int> queue;
  auto route_toward = [&](const net::Prefix& prefix,
                          const std::vector<int>& members,
                          const std::vector<int>& scope) {
    ++stamp;
    for (int r : scope) scope_mark[static_cast<std::size_t>(r)] = stamp;
    queue.clear();
    for (int m : members) {
      if (distance[static_cast<std::size_t>(m)] < 0) {
        distance[static_cast<std::size_t>(m)] = 0;
        queue.push_back(m);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      for (const Hop& hop : hops[static_cast<std::size_t>(u)]) {
        const auto v = static_cast<std::size_t>(hop.to);
        if (scope_mark[v] != stamp || distance[v] >= 0) continue;
        distance[v] = distance[static_cast<std::size_t>(u)] + 1;
        queue.push_back(hop.to);
      }
    }
    for (const int u : queue) {
      const auto ui = static_cast<std::size_t>(u);
      const int d = distance[ui];
      const auto& ifaces = nodes_[ui]->interfaces();
      // Members need no route, and a connected route for the same prefix
      // would shadow this one.
      if (d == 0 ||
          std::any_of(ifaces.begin(), ifaces.end(), [&](const auto& iface) {
            return iface->prefix() == prefix;
          })) {
        continue;
      }
      const Hop* next = nullptr;
      for (const Hop& hop : hops[ui]) {
        if (distance[static_cast<std::size_t>(hop.to)] == d - 1 &&
            (next == nullptr || hop.to > next->to)) {
          next = &hop;
        }
      }
      nodes_[ui]->routing_table().install(
          {prefix, next->via, next->out, d, routing::RouteKind::kStatic});
    }
    for (const int u : queue) distance[static_cast<std::size_t>(u)] = -1;
  };

  // The destinations: each declared aggregate, whose routes cover the
  // routers of its smallest enclosing aggregate, then each
  // router-interface prefix outside every aggregate, whose routes cover
  // every router. Only routers originate reachability: a host whose
  // address does not match its attachment point (a visiting mobile host)
  // stays invisible to routing; reaching it is the mobility protocols'
  // job.
  std::map<net::Prefix, std::vector<int>> declared;
  for (const auto& [prefix, members] : aggregates_) {
    std::vector<int>& indices = declared[prefix];
    for (const node::Node* member : members) {
      indices.push_back(index.at(member));
    }
  }
  // The members of the longest aggregate of at most `longest` bits
  // holding `prefix`, or nullptr.
  auto declared_within = [&declared](const net::Prefix& prefix, int longest)
      -> const std::vector<int>* {
    for (int length = longest; length >= 0; --length) {
      const auto it = declared.find(net::Prefix(prefix.address(), length));
      if (it != declared.end()) return &it->second;
    }
    return nullptr;
  };
  for (const auto& [prefix, members] : declared) {
    const std::vector<int>* enclosing =
        declared_within(prefix, prefix.length() - 1);
    route_toward(prefix, members, enclosing != nullptr ? *enclosing : routers);
  }
  std::map<net::Prefix, std::vector<int>> sites;
  for (int r : routers) {
    const node::Node& router = *nodes_[static_cast<std::size_t>(r)];
    for (const auto& iface : router.interfaces()) {
      const net::Prefix& prefix = iface->prefix();
      if (declared_within(prefix, prefix.length()) == nullptr) {
        sites[prefix].push_back(r);
      }
    }
  }
  for (const auto& [prefix, members] : sites) {
    route_toward(prefix, members, routers);
  }
}

node::Node* Topology::find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

net::Link* Topology::find_link(const std::string& name) {
  auto it = link_by_name_.find(name);
  return it == link_by_name_.end() ? nullptr : it->second;
}

int Topology::hop_distance(const node::Node& a, const node::Node& b) {
  return hop_distances(a)[static_cast<std::size_t>(index_of(b))];
}

std::vector<int> Topology::hop_distances(const node::Node& from) {
  // Breadth-first over link membership: nodes sharing a link are one hop
  // apart.
  const IfaceOwnerMap owners = iface_owners();
  std::vector<int> hops(nodes_.size(), -1);
  std::vector<std::size_t> queue{static_cast<std::size_t>(index_of(from))};
  hops[queue.front()] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    for (const auto& iface : nodes_[u]->interfaces()) {
      if (!iface->attached()) continue;
      for (const net::Interface* member : iface->link()->members()) {
        const auto owner = owners.find(member);
        if (owner == owners.end()) continue;
        const auto v = static_cast<std::size_t>(owner->second);
        if (hops[v] >= 0) continue;
        hops[v] = hops[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return hops;
}

std::vector<const net::Link*> Topology::cross_shard_links() const {
  std::vector<const net::Link*> crossing;
  for (const auto& link : links_) {
    const auto& members = link->members();
    bool crosses = false;
    for (std::size_t i = 1; i < members.size() && !crosses; ++i) {
      crosses = members[i]->shard() != members[0]->shard();
    }
    if (crosses) crossing.push_back(link.get());
  }
  return crossing;
}

sim::Time Topology::min_cross_shard_latency() const {
  sim::Time min_latency = 0;
  bool any = false;
  for (const net::Link* link : cross_shard_links()) {
    if (!any || link->latency() < min_latency) {
      min_latency = link->latency();
      any = true;
    }
  }
  return any ? min_latency : 0;
}

}  // namespace mhrp::scenario
