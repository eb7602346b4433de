// DvProcess: the per-router distance-vector routing process (RFC 2453
// subset) behind ProtocolOptions.routing = Mode::kDv.
//
// One process runs on each forwarding node. It advertises the node's
// connected subnets plus everything it has learned, applies split
// horizon with poisoned reverse on every per-interface advertisement,
// reacts to topology changes with jitter-delayed triggered updates, and
// expires silence with the classic timeout / garbage-collection pair.
// Learned routes are installed into the node's RoutingTable as
// RouteKind::kDynamic (host /32s as kHostSpecific), a tier that
// overrides the statically installed fallback routes and re-exposes
// them when withdrawn — so a link fault triggers real reconvergence
// instead of a silent blackhole.
//
// It also subsumes the paper-§3 host-specific-route mechanism the old
// node::DistanceVector provided: a home agent covering a whole routing
// domain originates a /32 for each disconnected mobile host via
// advertise_host_route() and poisons it on withdrawal.
//
// Determinism contract: no wall clock; every random draw (periodic
// jitter, triggered-update delay) comes from one per-process seeded
// RNG; all iteration that reaches the wire or the table walks ordered
// containers (std::map/std::set) or construction-ordered vectors, so
// advertisement bodies are insert-order invariant. Timers live on the
// node's executive (its shard view under sharding); updates to
// neighbors on other shards ride the ordinary Link frame path, i.e.
// the executive's cross-shard post().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "node/node.hpp"
#include "routing/dv/dv_options.hpp"
#include "sim/timer.hpp"
#include "util/hooks.hpp"
#include "util/rng.hpp"

namespace mhrp::routing::dv {

/// Protocol-observable counters (telemetry probes read these; they feed
/// the replay digest, so nothing wall-clock-derived belongs here).
struct DvStats {
  std::uint64_t updates_sent = 0;       // datagrams out (one per interface)
  std::uint64_t updates_received = 0;   // datagrams in
  std::uint64_t periodic_rounds = 0;
  std::uint64_t triggered_updates = 0;  // triggered rounds actually sent
  std::uint64_t route_changes = 0;      // adds + next-hop/metric changes
  std::uint64_t routes_withdrawn = 0;   // poisoned (timeout, link-down, poison)
  std::uint64_t routes_expired = 0;     // timed out in silence
  std::uint64_t poisons_received = 0;   // metric-16 entries accepted
  // Suspected counting-to-infinity episodes: a route's metric rose from
  // the same next hop three times in a row. Split horizon with poisoned
  // reverse stops only two-router loops (RFC 2453 §3.4.3); a loop of
  // three or more routers still counts up to infinity, so this is
  // measured, not audited.
  std::uint64_t counting_to_infinity = 0;
  std::uint64_t malformed_updates = 0;
};

class DvProcess {
 public:
  static constexpr std::uint16_t kPort = 520;  // RIP's UDP port
  static constexpr int kInfinity = 16;

  using Options = DvOptions;

  /// Binds UDP port 520 on `node`. `jitter_seed` seeds the process's
  /// private RNG (periodic jitter + triggered-update delays); derive it
  /// deterministically from the world seed and the router's index.
  DvProcess(node::Node& node, Options options = Options(),
            std::uint64_t jitter_seed = 0x5209);
  ~DvProcess();

  DvProcess(const DvProcess&) = delete;
  DvProcess& operator=(const DvProcess&) = delete;

  /// Begin operating: an initial triggered advertisement goes out after
  /// a short jittered delay (routers started together do not
  /// synchronize), then jittered periodic full-table updates.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Advertise (or withdraw, with poison) a host-specific /32 route for
  /// `addr`, originated here with metric 0 (paper §3's domain-coverage
  /// mechanism). Schedules a triggered update.
  void advertise_host_route(net::IpAddress addr, bool enabled);

  /// Send one full-table update on every up interface now. Tests use
  /// this to step convergence deterministically; the periodic and
  /// triggered timers call it internally.
  void send_updates();

  /// React to the attached link of `iface` going down (poison every
  /// route learned through it, withdraw them from the forwarding table,
  /// schedule a triggered update) or up (re-advertise). Subscribed
  /// automatically to node::Node::on_interface_state.
  void handle_link_state(net::Interface& iface, bool up);

  [[nodiscard]] const DvStats& stats() const { return stats_; }

  /// Fired after this process changes what it would forward on: a route
  /// learned, re-pointed, re-metric'd, or withdrawn. The scenario layer
  /// records these instants to measure convergence.
  std::function<void(const net::Prefix&, int metric)> on_route_change;

 private:
  struct Entry {
    int metric = kInfinity;
    net::IpAddress from;               // advertising neighbor; unspecified
                                       // for locally originated routes
    net::Interface* iface = nullptr;   // learned via
    sim::Time heard_at = 0;
    sim::Time poisoned_at = -1;        // >= 0: unreachable, GC pending
    int consecutive_rises = 0;         // counting-to-infinity detector
    [[nodiscard]] bool poisoned() const { return poisoned_at >= 0; }
  };

  void on_update(const net::UdpDatagram& datagram, const net::IpHeader& header,
                 net::Interface& iface);
  [[nodiscard]] std::vector<std::uint8_t> encode_update(
      const net::Interface& out_iface) const;
  /// Mark `entry` unreachable now: withdraw from the forwarding table,
  /// start its GC clock, count the change. Returns true when the entry
  /// was live before.
  bool poison(const net::Prefix& prefix, Entry& entry);
  void install(const net::Prefix& prefix, const Entry& entry);
  void note_route_change(const net::Prefix& prefix, int metric);
  void schedule_triggered();
  /// Walk deadlines: time out silent routes, delete GC-expired ones,
  /// then re-arm the sweep timer at the next deadline.
  void sweep();
  void arm_sweep();
  void arm_periodic();
  [[nodiscard]] bool iface_up(const net::Interface& iface) const;
  void handle_node_state(bool up);

  node::Node& node_;
  Options options_;
  util::Rng rng_;
  sim::OneShotTimer periodic_;   // re-armed per firing with fresh jitter
  sim::OneShotTimer triggered_;
  sim::OneShotTimer sweep_;
  std::map<net::Prefix, Entry> routes_;
  std::set<net::IpAddress> host_routes_;  // locally originated /32s
  /// Withdrawn host routes still being poisoned; value = rounds left.
  std::map<net::IpAddress, int> withdrawing_;
  DvStats stats_;
  bool running_ = false;
  util::Subscription node_state_;  // node_.on_state_changed
  util::Subscription link_state_;  // node_.on_interface_state
};

}  // namespace mhrp::routing::dv
