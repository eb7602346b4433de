#include "routing/routing_table.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <sstream>

namespace mhrp::routing {

namespace {

/// Above every tier, so {prefix, kTierEnd} bounds a prefix's shadowed
/// routes in the side map.
constexpr int kTierEnd = 4;

/// Home slot of `prefix` in an index of `slots` (a power of two, at least
/// 8) entries: Fibonacci hashing of (address, length).
std::size_t home_of(const net::Prefix& prefix, std::size_t slots) {
  const std::uint64_t key = (std::uint64_t{prefix.address().raw()} << 6) |
                            static_cast<std::uint64_t>(prefix.length());
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(slots)));
}

/// `routes` ordered by ascending `key(route)`.
template <typename Key>
std::vector<Route> sorted_by(std::vector<Route> routes, Key key) {
  std::sort(routes.begin(), routes.end(),
            [&key](const Route& a, const Route& b) { return key(a) < key(b); });
  return routes;
}

}  // namespace

std::size_t RoutingTable::slot_of(const net::Prefix& prefix) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = home_of(prefix, index_.size());;
       slot = (slot + 1) & mask) {
    const std::uint32_t position = index_[slot];
    if (position == kFree || active_[position].prefix == prefix) return slot;
  }
}

void RoutingTable::rehash(std::size_t slots) {
  index_.assign(slots, kFree);
  for (std::size_t position = 0; position < active_.size(); ++position) {
    index_[slot_of(active_[position].prefix)] =
        static_cast<std::uint32_t>(position);
  }
}

void RoutingTable::install(const Route& route) {
  std::size_t slot = index_.empty() ? 0 : slot_of(route.prefix);
  if (index_.empty() || index_[slot] == kFree) {
    // A new prefix: it becomes the active route at the end of active_.
    if ((active_.size() + 1) * 4 > index_.size() * 3) {
      rehash(std::max<std::size_t>(8, index_.size() * 2));
      slot = slot_of(route.prefix);
    }
    index_[slot] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(route);
    const auto length = static_cast<std::size_t>(route.prefix.length());
    if (per_length_[length]++ == 0) lengths_ |= std::uint64_t{1} << length;
    return;
  }
  Route& active = active_[index_[slot]];
  const int tier = priority_of(route.kind);
  const int active_tier = priority_of(active.kind);
  if (tier < active_tier) {
    shadowed_.insert_or_assign({route.prefix, tier}, route);
    return;
  }
  if (tier > active_tier) {
    shadowed_.emplace(std::pair(active.prefix, active_tier), active);
  }
  active = route;  // shadows a lower tier, or replaces an equal one
}

void RoutingTable::erase_active(std::size_t slot) {
  const std::uint32_t position = index_[slot];
  const auto length =
      static_cast<std::size_t>(active_[position].prefix.length());
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless the hole lies before its home slot.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t next = (hole + 1) & mask; index_[next] != kFree;
       next = (next + 1) & mask) {
    const std::size_t home =
        home_of(active_[index_[next]].prefix, index_.size());
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kFree;
  // Keep active_ dense: the last route takes over the freed position.
  const auto last = static_cast<std::uint32_t>(active_.size() - 1);
  if (position != last) {
    index_[slot_of(active_[last].prefix)] = position;
    active_[position] = active_[last];
  }
  active_.pop_back();
  if (--per_length_[length] == 0) lengths_ &= ~(std::uint64_t{1} << length);
}

void RoutingTable::withdraw_active(std::size_t slot) {
  const std::uint32_t position = index_[slot];
  const net::Prefix prefix = active_[position].prefix;
  auto best = shadowed_.lower_bound({prefix, kTierEnd});
  if (best != shadowed_.begin() && std::prev(best)->first.first == prefix) {
    --best;
    active_[position] = best->second;
    shadowed_.erase(best);
    return;
  }
  erase_active(slot);
}

void RoutingTable::remove(const net::Prefix& prefix) {
  if (index_.empty()) return;
  const std::size_t slot = slot_of(prefix);
  if (index_[slot] == kFree) return;
  shadowed_.erase(shadowed_.lower_bound({prefix, 0}),
                  shadowed_.lower_bound({prefix, kTierEnd}));
  erase_active(slot);
}

bool RoutingTable::remove_route(const net::Prefix& prefix, RouteKind kind) {
  if (index_.empty()) return false;
  const std::size_t slot = slot_of(prefix);
  const std::uint32_t position = index_[slot];
  if (position == kFree) return false;
  if (active_[position].kind == kind) {
    withdraw_active(slot);
    return true;
  }
  auto it = shadowed_.find({prefix, priority_of(kind)});
  if (it == shadowed_.end() || it->second.kind != kind) return false;
  shadowed_.erase(it);
  return true;
}

bool RoutingTable::update_metric(const net::Prefix& prefix, RouteKind kind,
                                 int metric) {
  // find_kind answers from this table's own storage, which is not const
  // here.
  auto* route = const_cast<Route*>(find_kind(prefix, kind));
  if (route == nullptr) return false;
  route->metric = metric;
  return true;
}

void RoutingTable::remove_kind(RouteKind kind) {
  std::erase_if(shadowed_, [kind](const auto& entry) {
    return entry.second.kind == kind;
  });
  // Withdrawing an active route may move the last one into its position,
  // so re-examine a position before moving past it.
  for (std::size_t position = 0; position < active_.size();) {
    if (active_[position].kind != kind) {
      ++position;
      continue;
    }
    withdraw_active(slot_of(active_[position].prefix));
  }
}

const Route* RoutingTable::lookup(net::IpAddress dst) const {
  for (std::uint64_t lengths = lengths_; lengths != 0;) {
    const int length = 63 - std::countl_zero(lengths);
    lengths &= ~(std::uint64_t{1} << length);
    const std::uint32_t position = index_[slot_of(net::Prefix(dst, length))];
    if (position != kFree) return &active_[position];
  }
  return nullptr;
}

const Route* RoutingTable::find(const net::Prefix& prefix) const {
  if (index_.empty()) return nullptr;
  const std::uint32_t position = index_[slot_of(prefix)];
  return position == kFree ? nullptr : &active_[position];
}

const Route* RoutingTable::find_kind(const net::Prefix& prefix,
                                     RouteKind kind) const {
  const Route* active = find(prefix);
  if (active == nullptr || active->kind == kind) return active;
  auto it = shadowed_.find({prefix, priority_of(kind)});
  return it != shadowed_.end() && it->second.kind == kind ? &it->second
                                                          : nullptr;
}

std::vector<Route> RoutingTable::routes() const {
  return sorted_by(active_, [](const Route& r) {
    return std::pair(r.prefix.length(), r.prefix.address().raw());
  });
}

std::string RoutingTable::to_string() const {
  // Longest prefixes first, ascending address within one length.
  std::ostringstream os;
  for (const Route& route : sorted_by(active_, [](const Route& r) {
         return std::pair(-r.prefix.length(), r.prefix.address().raw());
       })) {
    os << route.prefix.to_string() << " via "
       << (route.next_hop.is_unspecified() ? std::string("direct")
                                           : route.next_hop.to_string())
       << " metric " << route.metric << '\n';
  }
  return os.str();
}

}  // namespace mhrp::routing
