// Home agent replication (paper §2): "if that organization requires
// increased reliability of service for its own mobile hosts, it can
// replicate the home agent function on several support hosts on its own
// network, although these hosts must cooperate to provide a consistent
// view of the database recording the current location of each of that
// home network's mobile hosts."
//
// HaReplicator implements that cooperation: every binding change on one
// replica is pushed to its peers (primary-propagates, last-writer-wins by
// registration order — adequate because the mobile host serializes its
// own registrations), and replicas heartbeat each other so a backup
// notices a dead primary and takes over interception on the home LAN
// (proxy ARP for every away host, plus gratuitous ARP to capture
// in-flight frames).
#pragma once

#include <cstdint>
#include <vector>

#include "core/agent.hpp"
#include "sim/timer.hpp"
#include "util/hooks.hpp"

namespace mhrp::core {

/// UDP port for replica sync and heartbeats.
inline constexpr std::uint16_t kReplicationPort = 436;

/// Tunables for replica cooperation.
struct HaReplicatorConfig {
  sim::Time heartbeat_period = sim::millis(500);
  /// Missing this many consecutive heartbeats declares the peer dead.
  int missed_heartbeats = 4;
};

class HaReplicator {
 public:
  using Config = HaReplicatorConfig;

  /// `agent` must be a home agent. `peers` are the other replicas'
  /// addresses. `is_primary` selects which replica intercepts while all
  /// are healthy (exactly one should be primary).
  HaReplicator(MhrpAgent& agent, std::vector<net::IpAddress> peers,
               bool is_primary, Config config = Config());

  HaReplicator(const HaReplicator&) = delete;
  HaReplicator& operator=(const HaReplicator&) = delete;
  ~HaReplicator();

  void start();

  [[nodiscard]] bool is_active() const { return active_; }
  [[nodiscard]] std::uint64_t bindings_replicated() const {
    return bindings_replicated_;
  }
  [[nodiscard]] std::uint64_t takeovers() const { return takeovers_; }
  /// Times this replica yielded the active role back after discovering a
  /// concurrently active peer (a healed partition or a recovered
  /// primary). Exactly one replica must stay active afterwards: the
  /// original primary wins the tiebreak, and any other replica steps
  /// down when it hears an active heartbeat.
  [[nodiscard]] std::uint64_t stepdowns() const { return stepdowns_; }

 private:
  void on_udp(const net::UdpDatagram& datagram, const net::IpHeader& header);
  void broadcast_binding(net::IpAddress mobile_host,
                         net::IpAddress foreign_agent);
  void heartbeat();
  /// Unicast `bytes` to every peer except those whose address this node
  /// currently holds as an alias (i.e. dead peers it stands in for).
  void send_to_peers(const std::vector<std::uint8_t>& bytes);
  void peer_timeout();
  void take_over();
  void step_down();
  void reassert();

  MhrpAgent& agent_;
  std::vector<net::IpAddress> peers_;
  bool active_;            // currently the intercepting replica
  bool original_primary_;  // tiebreak winner when two replicas are active
  Config config_;
  bool applying_remote_ = false;  // suppress re-broadcast loops
  sim::PeriodicTimer heartbeat_timer_;
  sim::OneShotTimer peer_lifetime_;
  std::uint64_t bindings_replicated_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t stepdowns_ = 0;
  util::Subscription binding_subscription_;
};

}  // namespace mhrp::core
