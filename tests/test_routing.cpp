// Unit tests: longest-prefix-match table, plus the distance-vector
// service with §3 host-specific routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/interface.hpp"
#include "routing/dv/dv_process.hpp"
#include "routing/routing_table.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using routing::Route;
using routing::RouteKind;
using routing::RoutingTable;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.0.0.0/8"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::parse("10.2.0.0/16"), ip("2.2.2.2"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::host(ip("10.2.0.77")), ip("3.3.3.3"), nullptr, 1,
             RouteKind::kHostSpecific});

  EXPECT_EQ(t.lookup(ip("10.9.0.1"))->next_hop, ip("1.1.1.1"));
  EXPECT_EQ(t.lookup(ip("10.2.1.1"))->next_hop, ip("2.2.2.2"));
  EXPECT_EQ(t.lookup(ip("10.2.0.77"))->next_hop, ip("3.3.3.3"));
  EXPECT_EQ(t.lookup(ip("11.0.0.1")), nullptr);
}

TEST(RoutingTable, DefaultRouteCatchesEverything) {
  RoutingTable t;
  t.install({net::Prefix(net::kUnspecified, 0), ip("9.9.9.9"), nullptr, 1,
             RouteKind::kStatic});
  EXPECT_EQ(t.lookup(ip("200.1.2.3"))->next_hop, ip("9.9.9.9"));
}

TEST(RoutingTable, ConnectedRoutesResistReplacement) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.1.0.0/24"), net::kUnspecified, nullptr, 0,
             RouteKind::kConnected});
  t.install({net::Prefix::parse("10.1.0.0/24"), ip("5.5.5.5"), nullptr, 3,
             RouteKind::kDynamic});
  EXPECT_TRUE(t.lookup(ip("10.1.0.7"))->next_hop.is_unspecified());
  EXPECT_EQ(t.size(), 1u);
}

TEST(RoutingTable, RemoveKindSweepsOnlyThatKind) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.1.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::parse("10.2.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kDynamic});
  t.install({net::Prefix::parse("10.3.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kDynamic});
  t.remove_kind(RouteKind::kDynamic);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.lookup(ip("10.1.0.1")), nullptr);
  EXPECT_EQ(t.lookup(ip("10.2.0.1")), nullptr);
}

TEST(RoutingTable, RemoveRouteWithdrawsOneTierAndExposesFallback) {
  // The DV plane's withdrawal contract: removing the dynamic route for a
  // prefix re-exposes the static route underneath it (the fallback tier),
  // and removing the last tier empties the prefix out of the table.
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.7.0.0/24");
  t.install({prefix, ip("1.1.1.1"), nullptr, 1, RouteKind::kStatic});
  t.install({prefix, ip("2.2.2.2"), nullptr, 3, RouteKind::kDynamic});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(ip("10.7.0.9"))->next_hop, ip("2.2.2.2"));

  EXPECT_TRUE(t.remove_route(prefix, RouteKind::kDynamic));
  EXPECT_EQ(t.lookup(ip("10.7.0.9"))->next_hop, ip("1.1.1.1"));
  EXPECT_FALSE(t.remove_route(prefix, RouteKind::kDynamic));  // already gone

  EXPECT_TRUE(t.remove_route(prefix, RouteKind::kStatic));
  EXPECT_EQ(t.lookup(ip("10.7.0.9")), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTable, UpdateMetricRewritesInPlace) {
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.8.0.0/24");
  t.install({prefix, ip("2.2.2.2"), nullptr, 3, RouteKind::kDynamic});
  EXPECT_TRUE(t.update_metric(prefix, RouteKind::kDynamic, 7));
  EXPECT_EQ(t.find(prefix)->metric, 7);
  EXPECT_EQ(t.find(prefix)->next_hop, ip("2.2.2.2"));
  // Absent prefix or absent tier: no-op, reported as such.
  EXPECT_FALSE(t.update_metric(prefix, RouteKind::kStatic, 1));
  EXPECT_FALSE(t.update_metric(net::Prefix::parse("10.9.0.0/24"),
                               RouteKind::kDynamic, 1));
}

TEST(RoutingTable, FindKindSeesShadowedTiers) {
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.1.0.0/24");
  t.install({prefix, net::kUnspecified, nullptr, 0, RouteKind::kConnected});
  t.install({prefix, ip("5.5.5.5"), nullptr, 3, RouteKind::kDynamic});
  // The forwarding view shows the connected route; the shadowed dynamic
  // tier is still inspectable (the DV process reads its own entries back
  // this way without disturbing forwarding).
  EXPECT_TRUE(t.lookup(ip("10.1.0.7"))->next_hop.is_unspecified());
  const Route* shadowed = t.find_kind(prefix, RouteKind::kDynamic);
  ASSERT_NE(shadowed, nullptr);
  EXPECT_EQ(shadowed->next_hop, ip("5.5.5.5"));
  EXPECT_EQ(t.find_kind(prefix, RouteKind::kStatic), nullptr);
}

// ---- Reference model ----

/// DESIGN §14.2's tier rules over a plain vector holding every route,
/// shadowed or not. A prefix's active route is its highest-priority one;
/// lookup answers with the longest active prefix covering the address.
class NaiveTable {
 public:
  void install(const Route& route) {
    for (Route& have : routes_) {
      if (have.prefix == route.prefix &&
          routing::priority_of(have.kind) == routing::priority_of(route.kind)) {
        have = route;
        return;
      }
    }
    routes_.push_back(route);
  }
  void remove(const net::Prefix& prefix) {
    std::erase_if(routes_, [&](const Route& r) { return r.prefix == prefix; });
  }
  bool remove_route(const net::Prefix& prefix, RouteKind kind) {
    return std::erase_if(routes_, [&](const Route& r) {
             return r.prefix == prefix && r.kind == kind;
           }) > 0;
  }
  bool update_metric(const net::Prefix& prefix, RouteKind kind, int metric) {
    for (Route& r : routes_) {
      if (r.prefix == prefix && r.kind == kind) {
        r.metric = metric;
        return true;
      }
    }
    return false;
  }
  void remove_kind(RouteKind kind) {
    std::erase_if(routes_, [&](const Route& r) { return r.kind == kind; });
  }

  [[nodiscard]] const Route* find(const net::Prefix& prefix) const {
    const Route* best = nullptr;
    for (const Route& r : routes_) {
      if (r.prefix == prefix && (best == nullptr || outranks(r, *best))) {
        best = &r;
      }
    }
    return best;
  }
  [[nodiscard]] const Route* find_kind(const net::Prefix& prefix,
                                       RouteKind kind) const {
    for (const Route& r : routes_) {
      if (r.prefix == prefix && r.kind == kind) return &r;
    }
    return nullptr;
  }
  [[nodiscard]] const Route* lookup(net::IpAddress dst) const {
    const Route* best = nullptr;
    for (const Route& r : routes_) {
      if (!r.prefix.contains(dst)) continue;
      if (best == nullptr || r.prefix.length() > best->prefix.length() ||
          (r.prefix == best->prefix && outranks(r, *best))) {
        best = &r;
      }
    }
    return best;
  }

  /// Active routes by ascending (length, address): routes()'s order.
  [[nodiscard]] std::vector<Route> active() const {
    std::vector<Route> out = routes_;
    std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
      return std::tuple(a.prefix.length(), a.prefix.address().raw(),
                        -routing::priority_of(a.kind)) <
             std::tuple(b.prefix.length(), b.prefix.address().raw(),
                        -routing::priority_of(b.kind));
    });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Route& a, const Route& b) {
                            return a.prefix == b.prefix;
                          }),
              out.end());
    return out;
  }

  /// to_string() of `active`: longest prefixes first, ascending address
  /// within one length.
  static std::string render(const std::vector<Route>& active) {
    std::string out;
    for (int length = 32; length >= 0; --length) {
      for (const Route& r : active) {
        if (r.prefix.length() != length) continue;
        out += r.prefix.to_string() + " via " +
               (r.next_hop.is_unspecified() ? std::string("direct")
                                            : r.next_hop.to_string()) +
               " metric " + std::to_string(r.metric) + "\n";
      }
    }
    return out;
  }

 private:
  static bool outranks(const Route& a, const Route& b) {
    return routing::priority_of(a.kind) > routing::priority_of(b.kind);
  }

  std::vector<Route> routes_;
};

bool same_route(const Route* a, const Route* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->prefix == b->prefix && a->next_hop == b->next_hop &&
         a->iface == b->iface && a->metric == b->metric && a->kind == b->kind;
}

struct NullSink : net::FrameSink {
  void on_frame(net::Interface&, net::Frame&&) override {}
};

TEST(RoutingTable, RandomOperationsMatchANaiveTierModel) {
  // Nested prefixes at /0, /8, /16, /24, /30 and /32 over a small address
  // pool, so installs collide on one prefix, shadow each other across
  // tiers and overlap across lengths; the table grows and shrinks many
  // times over the run.
  std::mt19937_64 rng(20261017);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto address = [&] {
    return net::IpAddress::of(static_cast<std::uint8_t>(10 + pick(2)),
                              static_cast<std::uint8_t>(pick(3)),
                              static_cast<std::uint8_t>(pick(4)),
                              static_cast<std::uint8_t>(pick(8)));
  };
  constexpr int kLengths[] = {0, 8, 16, 24, 30, 32};
  constexpr RouteKind kKinds[] = {RouteKind::kConnected, RouteKind::kStatic,
                                  RouteKind::kDynamic, RouteKind::kHostSpecific,
                                  RouteKind::kRedirect};
  auto prefix = [&] {
    return net::Prefix(address(), kLengths[pick(std::size(kLengths))]);
  };
  auto kind = [&] { return kKinds[pick(std::size(kKinds))]; };

  NullSink sink;
  net::Interface eth0(sink, "eth0");
  net::Interface eth1(sink, "eth1");
  net::Interface* const ifaces[] = {nullptr, &eth0, &eth1};

  RoutingTable table;
  NaiveTable model;
  std::size_t peak = 0;
  for (int op = 0; op < 10000; ++op) {
    const net::Prefix p = prefix();
    const RouteKind k = kind();
    const std::size_t choice = pick(100);
    if (choice < 50) {
      const Route route{p,
                        pick(4) == 0 ? net::kUnspecified : address(),
                        ifaces[pick(std::size(ifaces))],
                        static_cast<int>(pick(16)), k};
      table.install(route);
      model.install(route);
    } else if (choice < 55) {
      table.remove(p);
      model.remove(p);
    } else if (choice < 80) {
      ASSERT_EQ(table.remove_route(p, k), model.remove_route(p, k))
          << "op " << op;
    } else if (choice < 99) {
      const int metric = static_cast<int>(pick(16));
      ASSERT_EQ(table.update_metric(p, k, metric),
                model.update_metric(p, k, metric))
          << "op " << op;
    } else {
      table.remove_kind(k);
      model.remove_kind(k);
    }

    const std::vector<Route> expected = model.active();
    ASSERT_EQ(table.size(), expected.size()) << "op " << op;
    peak = std::max(peak, table.size());
    ASSERT_TRUE(same_route(table.find(p), model.find(p))) << "op " << op;
    for (RouteKind each : kKinds) {
      ASSERT_TRUE(
          same_route(table.find_kind(p, each), model.find_kind(p, each)))
          << "op " << op;
    }
    for (int i = 0; i < 4; ++i) {
      const net::IpAddress dst = i == 0 ? p.address() : address();
      ASSERT_TRUE(same_route(table.lookup(dst), model.lookup(dst)))
          << "op " << op << " dst " << dst.to_string();
    }
    const std::vector<Route> routes = table.routes();
    ASSERT_EQ(routes.size(), expected.size()) << "op " << op;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      ASSERT_TRUE(same_route(&routes[i], &expected[i])) << "op " << op;
    }
    ASSERT_EQ(table.to_string(), NaiveTable::render(expected)) << "op " << op;
  }
  // The run must have exercised a non-trivial table.
  EXPECT_GT(peak, 64u) << "peak " << peak;
}

// ---- Distance vector ----

struct DvWorld {
  scenario::Topology topo;
  node::Router* r1;
  node::Router* r2;
  node::Router* r3;
  std::unique_ptr<routing::dv::DvProcess> dv1, dv2, dv3;

  DvWorld() {
    // r1 -(lanA)- r2 -(lanB)- r3, with stub LANs on r1 and r3.
    auto& lan_a = topo.add_link("lanA", sim::millis(1));
    auto& lan_b = topo.add_link("lanB", sim::millis(1));
    auto& stub1 = topo.add_link("stub1", sim::millis(1));
    auto& stub3 = topo.add_link("stub3", sim::millis(1));
    r1 = &topo.add_router("r1");
    r2 = &topo.add_router("r2");
    r3 = &topo.add_router("r3");
    topo.connect(*r1, lan_a, ip("10.0.1.1"), 24);
    topo.connect(*r2, lan_a, ip("10.0.1.2"), 24);
    topo.connect(*r2, lan_b, ip("10.0.2.1"), 24);
    topo.connect(*r3, lan_b, ip("10.0.2.2"), 24);
    topo.connect(*r1, stub1, ip("10.1.0.1"), 24);
    topo.connect(*r3, stub3, ip("10.3.0.1"), 24);
    routing::dv::DvOptions config;
    config.update_period = sim::seconds(1);
    dv1 = std::make_unique<routing::dv::DvProcess>(*r1, config, 1);
    dv2 = std::make_unique<routing::dv::DvProcess>(*r2, config, 2);
    dv3 = std::make_unique<routing::dv::DvProcess>(*r3, config, 3);
  }
};

TEST(DistanceVector, ConvergesAcrossTwoHops) {
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));
  // r1 should know r3's stub via r2.
  const auto* route = w.r1->routing_table().lookup(ip("10.3.0.5"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, ip("10.0.1.2"));
  EXPECT_EQ(route->kind, routing::RouteKind::kDynamic);
  EXPECT_EQ(route->metric, 2);
}

TEST(DistanceVector, HostSpecificRoutePropagatesAndWithdraws) {
  // Paper §3: a home agent advertises a /32 for a disconnected mobile
  // host, withdrawn when the host returns.
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));

  const auto mh = ip("10.1.0.77");
  w.dv1->advertise_host_route(mh, true);
  w.topo.sim().run_for(sim::seconds(10));
  const auto* at_r3 = w.r3->routing_table().find(net::Prefix::host(mh));
  ASSERT_NE(at_r3, nullptr);
  EXPECT_EQ(at_r3->kind, routing::RouteKind::kHostSpecific);

  w.dv1->advertise_host_route(mh, false);
  w.topo.sim().run_for(sim::seconds(40));
  EXPECT_EQ(w.r3->routing_table().find(net::Prefix::host(mh)), nullptr);
}

TEST(DistanceVector, RoutesExpireWhenNeighborGoesSilent) {
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_NE(w.r1->routing_table().lookup(ip("10.3.0.5")), nullptr);

  w.dv3->stop();
  w.dv2->stop();  // r2 stops refreshing what it learned from r3
  // r1 keeps hearing nothing; after route_timeout its sweep timer
  // poisons the entry and withdraws it from the forwarding table, and
  // after gc_delay more the entry is deleted outright.
  w.topo.sim().run_for(sim::seconds(120));
  const auto* route = w.r1->routing_table().lookup(ip("10.3.0.5"));
  EXPECT_EQ(route, nullptr);
  EXPECT_GE(w.dv1->stats().routes_expired, 1u);
}

}  // namespace
}  // namespace mhrp
