#include "scenario/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace mhrp::scenario {

sim::Executive& Topology::executive_for(std::uint32_t shard) {
  if (sharded_ == nullptr) {
    if (shard != 0) {
      throw std::out_of_range("Topology: shard out of range (single-threaded)");
    }
    return *sim_;
  }
  return sharded_->shard_view(shard);
}

node::Router& Topology::add_router(const std::string& name,
                                   std::uint32_t shard) {
  auto router = std::make_unique<node::Router>(executive_for(shard), name);
  node::Router& ref = *router;
  nodes_.push_back(std::move(router));
  is_mobile_.push_back(false);
  by_name_[name] = &ref;
  on_node_added(ref);
  return ref;
}

node::Host& Topology::add_host(const std::string& name,
                               std::uint32_t shard) {
  auto host = std::make_unique<node::Host>(executive_for(shard), name);
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
  auto mh = std::make_unique<core::MobileHost>(executive_for(shard), name,
                                               home_ip, home_prefix_length,
                                               config);
  core::MobileHost& ref = *mh;
  nodes_.push_back(std::move(mh));
  is_mobile_.push_back(true);
  by_name_[name] = &ref;
  on_node_added(ref);
  return ref;
}

node::Node& Topology::adopt(std::unique_ptr<node::Node> node) {
  node::Node& ref = *node;
  by_name_[node->name()] = node.get();
  nodes_.push_back(std::move(node));
  is_mobile_.push_back(false);
  on_node_added(ref);
  return ref;
}

net::Link& Topology::add_link(const std::string& name, sim::Time latency,
                              std::uint64_t bandwidth_bps) {
  auto link = std::make_unique<net::Link>(*sim_, name, latency, bandwidth_bps);
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

routing::Graph Topology::build_graph() const {
  const IfaceOwnerMap owners = iface_owners();
  routing::Graph graph(nodes_.size());
  // Nodes sharing a link are adjacent; cost 1 per link crossing. The
  // edge list is built in (link, member-pair) order — identical to the
  // pre-map scan, so Dijkstra tie-breaks and digests are unchanged.
  for (const auto& link : links_) {
    const auto& members = link->members();
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = 0; b < members.size(); ++b) {
        if (a == b) continue;
        const auto ia = owners.find(members[a]);
        const auto ib = owners.find(members[b]);
        if (ia != owners.end() && ib != owners.end()) {
          graph[static_cast<std::size_t>(ia->second)].push_back(
              {ib->second, 1.0});
        }
      }
    }
  }
  return graph;
}

void Topology::install_static_routes() {
  const IfaceOwnerMap owners = iface_owners();
  const routing::Graph graph = build_graph();

  // Collect every prefix in the internetwork with a representative node.
  struct PrefixSite {
    net::Prefix prefix;
    int node_index;
  };
  std::vector<PrefixSite> sites;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    // Only routers originate subnet reachability — a host whose address
    // does not match its attachment point (a visiting mobile host) must
    // stay invisible to routing; making it reachable is the mobility
    // protocols' job, not the routing fabric's.
    if (!nodes_[n]->forwarding()) continue;
    for (const auto& iface : nodes_[n]->interfaces()) {
      sites.push_back({iface->prefix(), static_cast<int>(n)});
    }
  }
  // A router ends up with one route per distinct site prefix it reaches,
  // so each table is sized once rather than grown by doubling.
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(sites.size());
  for (const PrefixSite& site : sites) prefixes.push_back(site.prefix);
  std::sort(prefixes.begin(), prefixes.end());
  const auto distinct_prefixes = static_cast<std::size_t>(
      std::unique(prefixes.begin(), prefixes.end()) - prefixes.begin());

  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    node::Node& node = *nodes_[n];
    if (is_mobile_[n]) continue;  // mobile hosts route via registration

    if (!node.forwarding()) {
      // Plain host: default route via a forwarding neighbor on its LAN —
      // the first forwarding-owned member in link order, exactly the
      // neighbor the old full-node scan selected.
      for (const auto& iface : node.interfaces()) {
        if (!iface->attached()) continue;
        for (net::Interface* member : iface->link()->members()) {
          if (member == iface.get()) continue;
          const auto owner = owners.find(member);
          if (owner == owners.end()) continue;
          if (!nodes_[static_cast<std::size_t>(owner->second)]->forwarding()) {
            continue;
          }
          node.routing_table().install(
              {net::Prefix(net::kUnspecified, 0), member->ip(),
               iface.get(), 1, routing::RouteKind::kStatic});
          goto next_node;
        }
      }
    next_node:
      continue;
    }

    // Router: full shortest-path table.
    node.routing_table().reserve(distinct_prefixes);
    const routing::ShortestPaths sp =
        routing::shortest_paths(graph, static_cast<int>(n));
    for (const PrefixSite& site : sites) {
      if (site.node_index == static_cast<int>(n)) continue;
      if (!sp.reachable(site.node_index)) continue;
      // Skip prefixes directly connected to us (connected route wins).
      bool connected = false;
      for (const auto& iface : node.interfaces()) {
        if (iface->prefix() == site.prefix) connected = true;
      }
      if (connected) continue;

      const int hop = sp.first_hop[static_cast<std::size_t>(site.node_index)];
      if (hop < 0) continue;
      // Find our interface sharing a link with `hop`, and the hop's
      // address on that link.
      node::Node& hop_node = *nodes_[static_cast<std::size_t>(hop)];
      net::Interface* out = nullptr;
      net::IpAddress via;
      for (const auto& iface : node.interfaces()) {
        if (!iface->attached()) continue;
        for (const auto& hop_iface : hop_node.interfaces()) {
          if (hop_iface->link() == iface->link()) {
            out = iface.get();
            via = hop_iface->ip();
          }
        }
      }
      if (out == nullptr) continue;
      node.routing_table().install(
          {site.prefix, via, out,
           static_cast<int>(sp.distance[static_cast<std::size_t>(
               site.node_index)]),
           routing::RouteKind::kStatic});
    }
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
  const routing::Graph graph = build_graph();
  const auto sp = routing::shortest_paths(graph, index_of(a));
  const int target = index_of(b);
  if (!sp.reachable(target)) return -1;
  return static_cast<int>(sp.distance[static_cast<std::size_t>(target)]);
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
