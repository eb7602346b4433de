// MhrpAgent: the home agent, foreign agent, and cache agent roles of the
// paper, attachable to any Node in any combination ("the functionality
// ... may be combined in different ways on one or more hosts or routers",
// paper §2).
//
// Wiring into the node stack:
//  * an egress hook tunnels locally originated packets when this node is
//    the original sender and has a cache entry (or is the HA) — §4.1;
//  * a forward-path interceptor implements home-agent interception of
//    packets for away mobile hosts, opportunistic tunneling by cache
//    agents in routers (§6.2), and the §4.3 behavior of caching
//    location updates seen in transit;
//  * an IP-protocol handler for kMhrp processes tunneled packets
//    addressed to this node: visitor delivery, re-tunneling with the
//    previous-source-list machinery, loop detection/dissolution (§5.3);
//  * an ICMP handler consumes location updates (§4.3), answers agent
//    solicitations (§3), implements foreign-agent state recovery (§5.2),
//    and reverse-tunnels ICMP errors (§4.5);
//  * a UDP handler on the registration port processes the §3
//    notifications;
//  * a periodic timer multicasts agent advertisements (§3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/binding_table.hpp"
#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "core/rate_limiter.hpp"
#include "core/registration.hpp"
#include "node/node.hpp"
#include "sim/timer.hpp"
#include "store/home_store.hpp"
#include "telemetry/trace.hpp"
#include "util/annotations.hpp"
#include "util/hooks.hpp"

namespace mhrp::core {

struct AgentConfig {
  bool home_agent = false;
  bool foreign_agent = false;
  /// Nearly every node should also be a cache agent (paper §2).
  bool cache_agent = true;

  std::size_t cache_capacity = 1024;
  /// Maximum previous-source-list entries before the §4.4 overflow
  /// procedure runs; 0 = unbounded.
  std::size_t max_list_length = 8;

  sim::Time advertisement_period = sim::seconds(5);
  std::uint16_t advertisement_lifetime_s = 15;

  /// §4.3 rate limit on location updates per destination.
  sim::Time update_min_interval = sim::millis(500);
  std::size_t rate_limiter_capacity = 256;

  /// Old FA caches the new FA on disconnect — the "forwarding pointer"
  /// of §2 (ablation toggle for bench_handoff).
  bool forwarding_pointers = true;
  /// §4.5: delete the cache entry for a mobile host when an ICMP
  /// destination-unreachable comes back through a tunnel this node heads.
  bool invalidate_cache_on_error = true;
  /// §5.2: verify a recovery location update with an ARP query before
  /// re-adding the visitor, instead of "believing the home agent".
  bool verify_recovery_with_arp = false;
  /// §5.2 optional speedup: after a reboot, broadcast a query telling
  /// visiting mobile hosts to re-register.
  bool reregister_broadcast_on_reboot = false;
  /// §4.3: routers should have a switch for the cost of examining every
  /// forwarded packet.
  bool examine_forwarded_packets = true;
};

struct AgentStats {
  std::uint64_t intercepted_home = 0;      // HA interceptions on the home net
  std::uint64_t tunnels_built = 0;         // §4.1 encapsulations
  std::uint64_t retunnels = 0;             // §4.4 re-tunnels
  std::uint64_t tunneled_to_home = 0;      // re-tunnels that fell back to home
  std::uint64_t delivered_to_visitor = 0;  // FA last-hop deliveries
  std::uint64_t discarded_for_recovery = 0;  // §5.2 HA discards
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t loops_detected = 0;
  std::uint64_t list_overflows = 0;
  std::uint64_t retunnel_ttl_drops = 0;  // packets that died of TTL here
  std::uint64_t packets_examined = 0;      // §4.3 CA forwarding cost
  std::uint64_t errors_reversed = 0;       // §4.5 ICMP errors re-sent backwards
  std::uint64_t errors_terminated = 0;     // §4.5 errors surfaced at the origin
  std::uint64_t cache_error_invalidations = 0;
  std::uint64_t recovery_readds = 0;       // §5.2 visitor re-adds
  std::uint64_t registrations = 0;
  std::uint64_t dropped_disconnected = 0;  // HA drops for detached hosts
  std::uint64_t bindings_logged = 0;       // mutations sent to the store
  std::uint64_t acks_deferred = 0;         // held for a group commit
  std::uint64_t acks_released = 0;         // sent once durable
  std::uint64_t acks_dropped_on_crash = 0; // pending acks a reboot cleared
};

class MhrpAgent {
 public:
  /// Sentinel registered as the "foreign agent" of a host that has
  /// disconnected entirely (graceful disconnect, §3). Packets for it are
  /// answered with ICMP host unreachable.
  static constexpr net::IpAddress kDetachedSentinel = net::kBroadcast;

  MhrpAgent(node::Node& node, AgentConfig config);

  MhrpAgent(const MhrpAgent&) = delete;
  MhrpAgent& operator=(const MhrpAgent&) = delete;

  [[nodiscard]] node::Node& node() { return node_; }
  [[nodiscard]] const AgentConfig& config() const { return config_; }
  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  [[nodiscard]] LocationCache& cache() { return cache_; }
  [[nodiscard]] const LocationCache& cache() const { return cache_; }
  [[nodiscard]] UpdateRateLimiter& rate_limiter() { return limiter_; }

  /// Optional trace sink (nullptr = tracing off). When set, the agent
  /// emits sampled encap/decap/retunnel instants on the packet track.
  /// Observability only: it never changes protocol behavior.
  void set_trace(telemetry::TraceCollector* trace) { trace_ = trace; }

  /// Advertise and serve mobile hosts on this interface's network. A
  /// foreign agent delivers visitors here; a home agent intercepts here.
  void serve_on(net::Interface& iface);

  /// The agent's canonical address — what it advertises, what mobile
  /// hosts register, what the previous-source list records, and what the
  /// home-agent database compares against (§5.2 depends on these all
  /// matching). The first served interface's address, falling back to
  /// the node's primary address for pure cache agents.
  [[nodiscard]] net::IpAddress agent_address() const {
    return served_.empty() ? node_.primary_address() : served_.front()->ip();
  }

  [[nodiscard]] const std::vector<net::Interface*>& served_interfaces()
      const {
    return served_;
  }

  /// Begin periodic agent advertisements on served interfaces.
  void start_advertising();
  void stop_advertising();

  // ---- Home agent ----

  /// Declare `mobile_host` as one of this home agent's own (its address
  /// must lie in a served network). Creates the (persistent) database
  /// row, initially "at home".
  void provision_mobile_host(net::IpAddress mobile_host);

  /// The current binding in the HA database, if provisioned: the serving
  /// FA, 0 when at home, kDetachedSentinel when disconnected.
  [[nodiscard]] std::optional<net::IpAddress> home_binding(
      net::IpAddress mobile_host) const;

  /// Replication support (paper §2; see core/replication.hpp). A passive
  /// replica maintains the database but neither intercepts packets nor
  /// answers ARP for away hosts; activating it installs proxy ARP for
  /// every away host and announces with gratuitous ARP.
  void set_passive(bool passive);
  [[nodiscard]] bool passive() const { return passive_; }

  /// Apply a binding learned from a replica peer (provisions the host if
  /// needed). Does not ack anything or bump registration sequences.
  void apply_replicated_binding(net::IpAddress mobile_host,
                                net::IpAddress foreign_agent);

  /// Attach a durable store (paper §2: the database is "recorded on disk
  /// to survive any crashes and subsequent reboots"). Every binding-row
  /// mutation is logged *before* its registration ack goes out; under
  /// the interval sync policy the ack is held until the record's group
  /// commit completes. The store must outlive the agent.
  void attach_store(store::HomeStore& store);
  [[nodiscard]] store::HomeStore* home_store() { return store_; }

  /// Registration acks currently parked awaiting a group commit.
  [[nodiscard]] std::size_t pending_ack_count() const {
    return pending_acks_.size();
  }

  /// Every (mobile host, binding) row, for replica bootstrap and tests.
  [[nodiscard]] std::vector<std::pair<net::IpAddress, net::IpAddress>>
  home_bindings() const;

  [[nodiscard]] std::size_t home_database_size() const {
    return home_db_.size();
  }

  // ---- Foreign agent ----

  [[nodiscard]] bool is_visiting(net::IpAddress mobile_host) const {
    return visiting_.contains(mobile_host);
  }
  [[nodiscard]] std::size_t visiting_count() const { return visiting_.size(); }

  // ---- Fault injection (paper §5.2) ----

  /// Reboot the agent: lose all volatile state — the visiting list, the
  /// location cache, the rate limiter — as a crash+reboot would. With
  /// `preserve_home_database` (the default), the home-agent database
  /// survives ("should also be recorded on disk", §2); without it the
  /// disk is lost too, modeling a replica rebuilt from scratch.
  /// Optionally broadcasts the §5.2 re-register query afterwards. The
  /// fault plane calls this when it reboots a crashed node.
  ///
  /// With a store attached, `preserve_home_database` means "the disk
  /// survived": the database is rebuilt by store recovery (so anything
  /// that never became durable is genuinely gone), while `false` wipes
  /// the disk too. Registration acks still awaiting a group commit are
  /// dropped either way — the crash ate them, and the mobile host's
  /// retransmission is what recovers.
  void reboot(bool preserve_home_database = true);

  /// Send a location update about `mobile_host` to `dst`, rate limited.
  /// Exposed for the mobile host (which reports "I am home", §6.3) and
  /// for tests.
  void send_location_update(net::IpAddress dst, net::IpAddress mobile_host,
                            net::IpAddress foreign_agent,
                            bool invalidate = false);

  /// Fired with (mobile host, foreign agent) whenever the home database
  /// binding for a mobile host changes (new FA, returned home with FA
  /// zero, or detached). The §3 domain-coverage extension uses this to
  /// advertise/withdraw host-specific routes (core/domain_coverage.hpp);
  /// §2 replication pushes the change to the peer replicas.
  util::Hooks<net::IpAddress, net::IpAddress> on_binding_changed;

 private:
  struct Visitor {
    std::uint32_t last_sequence = 0;
    net::Interface* iface = nullptr;
  };
  /// A registration reply held back until its WAL record is durable.
  struct PendingAck {
    net::IpAddress dst;
    RegMessage reply;
  };

  // Node-stack hooks.
  void on_egress(net::Packet& packet);
  [[nodiscard]] MHRP_HOT_PATH node::Intercept on_forward(net::Packet& packet,
                                                         net::Interface& in);
  void on_mhrp_packet(net::Packet& packet, net::Interface& in);
  bool on_icmp(const net::IcmpMessage& msg, const net::IpHeader& header,
               net::Interface& iface);
  void on_registration(const net::UdpDatagram& datagram,
                       const net::IpHeader& header, net::Interface& iface);

  // Home-agent pieces.
  [[nodiscard]] MHRP_HOT_PATH node::Intercept home_intercept(
      net::Packet& packet);
  void home_handle_tunneled(net::Packet& packet);
  void set_home_binding(net::IpAddress mobile_host, net::IpAddress fa,
                        BindingTable::Ref row);
  /// Log one mutation to the attached store (no-op without one). Returns
  /// the ticket deciding when the caller may ack.
  [[nodiscard]] store::HomeStore::Ticket log_mutation(
      store::WalRecord::Kind kind, net::IpAddress mobile_host,
      net::IpAddress foreign_agent, std::uint32_t sequence);
  void release_pending_acks(store::Lsn durable);
  /// Fail every registration ack still parked for a group commit. Used
  /// when the WAL it was waiting on is wiped (store reset) or a reboot
  /// loses the process: a fresh log restarts LSNs at 1, so a parked LSN
  /// would otherwise fire against an unrelated future record.
  void drop_pending_acks();
  void restore_from_store();

  // Foreign/cache-agent pieces.
  void deliver_to_visitor(net::Packet packet);
  void retunnel_or_home(net::Packet packet);
  bool handle_returned_error(const net::IcmpMessage& msg);
  void handle_location_update(const net::IcmpLocationUpdate& update);
  void advertise();
  void advertise_on(net::Interface& iface);
  void reply_registration(net::Interface& iface, net::IpAddress dst,
                          const RegMessage& reply);

  /// Sampled packet-track instant (encap/decap/retunnel). A single
  /// branch when tracing is off.
  void trace_packet(const char* name, net::IpAddress mobile_host) {
    if (trace_ == nullptr) return;
    trace_->instant(telemetry::TraceCategory::kPacket, name,
                    node_.sim().now(), "mh",
                    static_cast<double>(mobile_host.raw()));
  }

  node::Node& node_;
  AgentConfig config_;
  AgentStats stats_;
  LocationCache cache_;
  UpdateRateLimiter limiter_;
  sim::PeriodicTimer advertise_timer_;
  std::vector<net::Interface*> served_;
  // The home-agent location database — persistent (survives crash).
  // Open-addressed and sized for 10⁶+ rows; every deterministic walk
  // over it (digest, replication bootstrap, proxy-ARP sweeps) goes
  // through its ascending-address scan. Row = (foreign agent, last
  // registration sequence, home interface).
  BindingTable home_db_;
  std::map<net::IpAddress, Visitor> visiting_;  // volatile
  store::HomeStore* store_ = nullptr;
  std::map<store::Lsn, PendingAck> pending_acks_;  // volatile
  bool restoring_ = false;  // suppress logging while replaying recovery
  std::uint16_t advertisement_sequence_ = 0;
  bool passive_ = false;
  telemetry::TraceCollector* trace_ = nullptr;
};

}  // namespace mhrp::core
