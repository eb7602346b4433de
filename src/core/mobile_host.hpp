// MobileHost: "any host may become a mobile host simply by moving away
// from its home network" (paper §1). This class is a Host plus the
// mobile-side MHRP machinery:
//
//  * agent discovery (§3): listens for periodic agent advertisements,
//    solicits on attach, detects movement when the current agent's
//    advertisements stop arriving before their lifetime expires, and
//    recognizes homecoming by hearing its own home agent;
//  * the §3 notification ordering with acknowledgment/retransmission:
//    on reconnect — new FA first, then the home agent, then the old FA;
//    on planned disconnect — home agent first, then the old FA; when
//    returning home — home agent only, registering "foreign agent
//    address zero";
//  * gratuitous ARP on returning home to reclaim its address from the
//    home agent's proxy (§2);
//  * decapsulation of MHRP packets that reach the host itself (at home,
//    §6.3, or as its own foreign agent, §2), answering with location
//    updates so senders repair or delete their cache entries;
//  * a cache-agent role for its own traffic, since "any node functioning
//    as a ... mobile host should generally also function as a cache
//    agent" (§2).
#pragma once

#include <map>
#include <optional>

#include "core/location_cache.hpp"
#include "core/rate_limiter.hpp"
#include "core/registration.hpp"
#include "node/host.hpp"
#include "sim/timer.hpp"
#include "telemetry/trace.hpp"
#include "util/hooks.hpp"
#include "util/rng.hpp"

namespace mhrp::core {

struct MobileHostConfig {
  /// The home agent's address; assigned by the owning organization along
  /// with the host's permanent address (paper §2).
  net::IpAddress home_agent;

  /// First retransmission interval for unacknowledged registrations.
  sim::Time registration_retry = sim::millis(500);
  int registration_attempts = 5;
  /// Exponential backoff on registration retransmissions: retry k waits
  /// registration_retry * backoff_factor^k, capped at
  /// registration_retry_max — so the protocol rides through injected
  /// outages instead of hammering a dead agent at a fixed rate.
  double backoff_factor = 2.0;
  sim::Time registration_retry_max = sim::seconds(8);
  /// Each retry interval is scaled by a uniform draw from
  /// [1 - retry_jitter, 1 + retry_jitter), desynchronizing hosts that
  /// lost the same agent at the same instant.
  double retry_jitter = 0.1;
  /// Seed for the per-host retry-jitter stream (worlds derive it from
  /// their own seed so replay stays deterministic).
  std::uint64_t retry_seed = 0x6d687270;
  /// Send an agent solicitation immediately on attaching (§3 allows
  /// either soliciting or waiting for the next periodic advertisement —
  /// bench_handoff sweeps both).
  bool solicit_on_attach = true;
  /// Re-solicitation period while searching for an agent.
  sim::Time solicit_period = sim::seconds(1);

  bool cache_agent = true;
  std::size_t cache_capacity = 64;
  sim::Time update_min_interval = sim::millis(500);
};

/// The interval before retransmission number `attempt` (0 = the first
/// retransmission): registration_retry * backoff_factor^attempt, capped
/// at registration_retry_max, then jittered by a uniform factor in
/// [1 - retry_jitter, 1 + retry_jitter). Free function so the backoff
/// policy is unit-testable without a host.
[[nodiscard]] sim::Time registration_backoff_delay(
    const MobileHostConfig& config, int attempt, util::Rng& rng);

struct MobileHostStats {
  std::uint64_t moves = 0;
  std::uint64_t registrations_completed = 0;
  std::uint64_t registration_retransmits = 0;
  std::uint64_t registrations_abandoned = 0;  // gave up after max attempts
  std::uint64_t advertisements_heard = 0;
  std::uint64_t solicitations_sent = 0;
  std::uint64_t tunneled_received = 0;  // MHRP packets decapsulated by the host
  std::uint64_t updates_sent = 0;
};

class MobileHost : public node::Host {
 public:
  enum class State {
    kDetached,     // no link
    kDiscovering,  // attached, searching for an agent
    kRegistering,  // notifications in flight
    kHome,         // registered at home (FA address zero)
    kForeign,      // registered with a foreign agent
  };

  /// Creates the host with one (wireless) interface carrying its
  /// permanent home address.
  MobileHost(sim::Executive& sim, std::string name, net::IpAddress home_ip,
             int home_prefix_length, MobileHostConfig config);

  [[nodiscard]] net::Interface& radio() { return *radio_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] net::IpAddress home_address() const { return radio_->ip(); }
  /// The agent currently registered with (FA, or the home agent at home).
  [[nodiscard]] net::IpAddress current_agent() const { return current_agent_; }
  [[nodiscard]] const MobileHostStats& stats() const { return stats_; }
  [[nodiscard]] LocationCache& cache() { return cache_; }

  /// Move to (the cell of) `link`. Implicit disconnect from wherever the
  /// host was — exactly what happens when a radio leaves one transceiver's
  /// range and enters another's (§3).
  void attach_to(net::Link& link);

  /// Radio silence: detach without telling anyone.
  void detach();

  /// §3 planned disconnection: notify the home agent (registering the
  /// detached marker), then the old foreign agent, then detach.
  void disconnect_gracefully();

  /// §2 (optional): serve as own foreign agent using a temporary address
  /// obtained in the visited network (obtaining it is outside MHRP's
  /// scope, per the paper). Registers `temp_addr` as the "foreign agent"
  /// with the home agent; tunneled packets addressed to it are
  /// decapsulated locally. The host keeps using only its home address
  /// above IP. `local_router` is the visited network's router, used as
  /// the default route since no foreign agent exists there.
  void enable_self_agent(net::IpAddress temp_addr,
                         net::IpAddress local_router);
  void disable_self_agent();

  /// Optional trace sink (nullptr = tracing off). When set, the host
  /// emits registration round-trip spans and retransmission instants.
  /// Observability only: it never changes protocol behavior.
  void set_trace(telemetry::TraceCollector* trace) { trace_ = trace; }

  /// Fired whenever a registration round completes (state becomes kHome
  /// or kForeign).
  util::Hooks<> on_registered;

  /// Fired at the instant attach_to() switches cells, before discovery
  /// starts — the "radio heard the new transceiver" moment a handoff
  /// latency measurement starts from (scenario::ScaleWorld uses this).
  util::Hooks<> on_attached;

 private:
  struct Outstanding {
    RegMessage message;
    net::IpAddress dst;
    bool direct = false;  // send on the radio link, bypassing routing
    int attempts = 0;
    sim::Time started = 0;  // when the first copy was sent (for trace spans)
    std::unique_ptr<sim::OneShotTimer> timer;
  };

  void start_discovery();
  void solicit();
  void on_advertisement(const net::IcmpAgentAdvertisement& adv);
  void register_with_foreign_agent(net::IpAddress fa);
  void register_at_home();
  void complete_home_registration();
  void notify_old_foreign_agent(net::IpAddress new_fa);
  void send_registration(RegKind kind, net::IpAddress dst,
                         net::IpAddress foreign_agent, bool direct);
  void on_registration_udp(const net::UdpDatagram& datagram,
                           const net::IpHeader& header, net::Interface& iface);
  void on_mhrp_packet(net::Packet& packet, net::Interface& iface);
  bool on_icmp_msg(const net::IcmpMessage& msg, const net::IpHeader& header,
                   net::Interface& iface);
  void on_agent_lost();
  void install_default_route(net::IpAddress via);
  void report_own_location(net::IpAddress dst);

  MobileHostConfig config_;
  MobileHostStats stats_;
  net::Interface* radio_ = nullptr;
  State state_ = State::kDetached;
  net::IpAddress current_agent_;      // registered agent
  net::IpAddress pending_agent_;      // agent being registered with
  net::IpAddress old_foreign_agent_;  // FA to notify after a move
  net::IpAddress self_agent_addr_;    // temp address when own-FA mode
  std::uint32_t sequence_ = 0;
  std::map<RegKind, Outstanding> outstanding_;
  sim::OneShotTimer agent_lifetime_;
  sim::PeriodicTimer solicit_timer_;
  LocationCache cache_;
  UpdateRateLimiter limiter_;
  util::Rng retry_rng_;
  telemetry::TraceCollector* trace_ = nullptr;
};

}  // namespace mhrp::core
