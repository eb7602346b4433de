// Longest-prefix-match IP routing table.
//
// Besides ordinary network routes, the table holds host-specific (/32)
// routes — the mechanism §3 of the paper suggests for covering a whole
// routing domain with one agent — and redirect-learned entries, which
// share this table exactly as §4.3 describes cache agents sharing the
// ICMP-redirect table ("with a different type field on the table entry").
//
// Each prefix holds a small stack of routes ordered by tier: connected
// routes outrank dynamically learned ones (DV, host-specific,
// redirect), which outrank the statically installed fallback. Lookup
// always answers with the best tier, so a DV-learned route overrides
// the static route for the same prefix while it is alive, and
// withdrawing it (remove_route) re-exposes the static fallback instead
// of blackholing — the substrate the routing::dv plane converges on.
//
// Storage is flat (DESIGN.md §14.2): the active route of every prefix
// sits in one contiguous vector, found through an open-addressed index
// of positions keyed by (address, length); a bitmask of the populated
// lengths lets lookup probe only those. Shadowed lower-tier routes live
// in a small ordered side map.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/ip_address.hpp"

namespace mhrp::net {
class Interface;
}

namespace mhrp::routing {

/// Provenance of a route; determines its tier (see priority_of).
enum class RouteKind : std::uint8_t {
  kConnected,  // directly attached subnet
  kStatic,     // installed by topology setup ("converged standard routing")
  kDynamic,    // learned from the distance-vector protocol
  kHostSpecific,  // /32 advertised for a mobile host (paper §3)
  kRedirect,   // learned from ICMP redirect
};

/// Replacement/preference tier. Higher wins lookup; equal tiers replace
/// each other in place (a redirect and a DV-learned route for the same
/// prefix share one slot, as §4.3's shared table does).
constexpr int priority_of(RouteKind kind) {
  switch (kind) {
    case RouteKind::kConnected:
      return 3;
    case RouteKind::kDynamic:
    case RouteKind::kHostSpecific:
    case RouteKind::kRedirect:
      return 2;
    case RouteKind::kStatic:
      return 1;
  }
  return 0;
}

struct Route {
  net::Prefix prefix;
  /// Next-hop router; unspecified means "directly connected, deliver on
  /// `iface` by ARP-resolving the final destination".
  net::IpAddress next_hop;
  net::Interface* iface = nullptr;
  int metric = 1;
  RouteKind kind = RouteKind::kStatic;
};

class RoutingTable {
 public:
  /// Insert `route` into its tier for `route.prefix`: replaces any
  /// existing route of equal tier, shadows lower tiers, and is shadowed
  /// by higher ones (a connected route is never displaced by a dynamic
  /// or static install).
  void install(const Route& route);

  /// Drop every route for `prefix`, all tiers.
  void remove(const net::Prefix& prefix);

  /// Withdraw the route of exactly `kind`'s tier for `prefix`, if its
  /// occupant is of that kind; any lower-tier route (e.g. the static
  /// fallback under a DV-learned route) becomes active again. Returns
  /// true when a route was removed.
  bool remove_route(const net::Prefix& prefix, RouteKind kind);

  /// Update the metric of the `kind`-tier route for `prefix` in place
  /// (no reordering, next hop untouched). Returns false when no route
  /// of that kind exists.
  bool update_metric(const net::Prefix& prefix, RouteKind kind, int metric);

  /// Drop every route of the given kind (used by DV refresh and by
  /// host-specific route withdrawal).
  void remove_kind(RouteKind kind);

  /// Longest-prefix match on active (best-tier) routes. Returns nullptr
  /// when no route covers `dst`. The pointer (like those of find and
  /// find_kind) is valid only until the next change to this table: an
  /// install or a removal can move routes.
  [[nodiscard]] const Route* lookup(net::IpAddress dst) const;

  /// Exact-prefix fetch of the active route (tests, DV comparisons).
  [[nodiscard]] const Route* find(const net::Prefix& prefix) const;

  /// Exact fetch of the `kind`-tier route even when shadowed (tests).
  [[nodiscard]] const Route* find_kind(const net::Prefix& prefix,
                                       RouteKind kind) const;

  /// Number of distinct prefixes with at least one route.
  [[nodiscard]] std::size_t size() const { return active_.size(); }

  /// The active route of every prefix, for diagnostics and DV
  /// advertisement. Shadowed fallback routes are not emitted.
  [[nodiscard]] std::vector<Route> routes() const;

  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::uint32_t kFree = 0xFFFFFFFF;

  /// The index slot holding `prefix`'s position, or the free slot where
  /// it would go. The index must not be empty.
  [[nodiscard]] std::size_t slot_of(const net::Prefix& prefix) const;
  void rehash(std::size_t slots);
  /// Drop the active route held at index slot `slot`; the last route
  /// moves into its position.
  void erase_active(std::size_t slot);
  /// Replace the active route held at index slot `slot` with the best
  /// shadowed route of its prefix, or drop it when none is shadowed.
  void withdraw_active(std::size_t slot);

  /// The active (best-tier) route of each prefix, in no order.
  std::vector<Route> active_;
  /// Open-addressed, linear-probing index of positions in active_
  /// (kFree when unused); its size is zero or a power of two, and at most
  /// three quarters of it is used.
  std::vector<std::uint32_t> index_;
  /// Lower-tier routes shadowed by an active route, by (prefix, tier).
  std::map<std::pair<net::Prefix, int>, Route> shadowed_;
  /// Bit L is set while some prefix of length L holds a route.
  std::uint64_t lengths_ = 0;
  /// Prefixes per length.
  std::array<std::uint32_t, 33> per_length_{};
};

}  // namespace mhrp::routing
