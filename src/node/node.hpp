// Node: a host or router with a small but faithful IP stack.
//
// The pieces MHRP leans on are all here:
//  * ARP with proxy entries (the home agent answers for absent mobile
//    hosts, paper §2) and gratuitous replies (cache poisoning at
//    disconnect, cache repair at return);
//  * a forwarding path with interceptor hooks — how home agents intercept
//    packets for their mobile hosts and how cache agents "examine each
//    packet that [they forward]" (paper §4.3);
//  * ICMP generation with a configurable error-quote length, because
//    §4.5's error reverse-tunneling behaves differently when only
//    IP-header+8 bytes of the offending packet are quoted;
//  * per-protocol and per-UDP-port demux so the MHRP module and the five
//    baseline protocols plug in without modifying the stack.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/arp.hpp"
#include "net/frame.hpp"
#include "net/icmp.hpp"
#include "net/interface.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/protocols.hpp"
#include "net/udp.hpp"
#include "routing/routing_table.hpp"
#include "sim/executive.hpp"
#include "util/hooks.hpp"

namespace mhrp::node {

/// What a forward-path interceptor did with a packet.
enum class Intercept {
  kContinue,  // not mine; forward normally
  kConsumed,  // interceptor took the packet (tunneled, delivered, dropped)
};

class Node : public net::FrameSink {
 public:
  using ProtocolHandler =
      std::function<void(net::Packet&, net::Interface&)>;
  /// Returns true when the message was consumed.
  using IcmpHandler = std::function<bool(const net::IcmpMessage&,
                                         const net::IpHeader&,
                                         net::Interface&)>;
  using UdpHandler = std::function<void(const net::UdpDatagram&,
                                        const net::IpHeader&,
                                        net::Interface&)>;
  using Interceptor = std::function<Intercept(net::Packet&, net::Interface&)>;
  /// May rewrite a locally originated packet (header and payload) before
  /// the routing lookup — how a sending host that is also a cache agent
  /// builds the MHRP header itself (paper §4.1).
  using EgressHook = std::function<void(net::Packet&)>;

  Node(sim::Executive& sim, std::string name);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] sim::Executive& sim() { return sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- Interfaces & addressing ----

  net::Interface& add_interface(const std::string& if_name, net::IpAddress ip,
                                int prefix_length);
  [[nodiscard]] net::Interface* interface_named(const std::string& if_name);
  [[nodiscard]] const std::vector<std::unique_ptr<net::Interface>>&
  interfaces() const {
    return interfaces_;
  }
  [[nodiscard]] bool owns_address(net::IpAddress addr) const;
  /// The address of the first interface (the node's canonical identity).
  [[nodiscard]] net::IpAddress primary_address() const;

  /// Extra addresses this node answers for, beyond interface addresses —
  /// e.g. the temporary address of a mobile host serving as its own
  /// foreign agent (paper §2).
  void add_address_alias(net::IpAddress addr) { aliases_.insert(addr); }
  void remove_address_alias(net::IpAddress addr) { aliases_.erase(addr); }

  void join_multicast(net::IpAddress group) { multicast_groups_.insert(group); }

  // ---- Routing ----

  [[nodiscard]] routing::RoutingTable& routing_table() { return table_; }
  void set_forwarding(bool enabled) { forwarding_ = enabled; }
  [[nodiscard]] bool forwarding() const { return forwarding_; }
  /// Whether this router emits ICMP redirects when it forwards a packet
  /// back out its arrival interface (hosts then learn host routes).
  void set_send_redirects(bool enabled) { send_redirects_ = enabled; }

  // ---- Sending ----

  /// Route, ARP-resolve, and transmit an IP datagram. Fills in the source
  /// address (primary) and creation timestamp when unset. Packets for an
  /// address this node owns are delivered locally.
  void send_ip(net::Packet packet);

  /// Transmit on a specific interface to a link-local destination —
  /// broadcast, multicast, or a neighbor — bypassing the routing table.
  void send_ip_on(net::Interface& iface, net::Packet packet,
                  net::IpAddress link_dst);

  void send_udp(net::IpAddress dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::span<const std::uint8_t> data);

  /// Subnet-broadcast a UDP datagram on one interface.
  void send_udp_broadcast(net::Interface& iface, std::uint16_t src_port,
                          std::uint16_t dst_port,
                          std::span<const std::uint8_t> data);

  void send_icmp(net::IpAddress dst, const net::IcmpMessage& msg);
  void send_icmp_on(net::Interface& iface, net::IpAddress link_dst,
                    const net::IcmpMessage& msg);

  // ---- Demux registration ----

  void set_protocol_handler(net::IpProto proto, ProtocolHandler handler) {
    protocol_handlers_[net::to_u8(proto)] = std::move(handler);
  }
  void add_icmp_handler(IcmpHandler handler) {
    icmp_handlers_.push_back(std::move(handler));
  }
  void bind_udp(std::uint16_t port, UdpHandler handler) {
    udp_ports_[port] = std::move(handler);
  }
  void unbind_udp(std::uint16_t port) { udp_ports_.erase(port); }

  /// Interceptors run, in registration order, on every packet that
  /// reaches this node's IP layer but is not addressed to it (the
  /// forwarding path), before the routing lookup.
  void add_interceptor(Interceptor interceptor) {
    interceptors_.push_back(std::move(interceptor));
  }

  /// Egress hooks run, in order, inside send_ip() after the source
  /// address is filled in and before routing.
  void add_egress_hook(EgressHook hook) {
    egress_hooks_.push_back(std::move(hook));
  }

  /// Local interceptors run on packets addressed to this node, before
  /// protocol demux — e.g. loose-source-route processing, where a packet
  /// addressed to this hop must be rewritten and re-emitted rather than
  /// delivered.
  void add_local_interceptor(Interceptor interceptor) {
    local_interceptors_.push_back(std::move(interceptor));
  }

  // ---- ARP ----

  [[nodiscard]] net::ArpTable& arp_table(net::Interface& iface);
  /// Answer ARP requests for `addr` on `iface` with this node's MAC
  /// (proxy ARP — the home agent's interception hook, paper §2).
  void add_proxy_arp(net::Interface& iface, net::IpAddress addr);
  void remove_proxy_arp(net::Interface& iface, net::IpAddress addr);
  [[nodiscard]] bool has_proxy_arp(net::Interface& iface,
                                   net::IpAddress addr) const;
  /// Broadcast an unsolicited ARP reply binding ip→mac, updating every
  /// cache on the segment (paper §2). Retransmitted `repeats` times for
  /// reliability, as the paper suggests.
  void send_gratuitous_arp(net::Interface& iface, net::IpAddress ip,
                           net::MacAddress mac, int repeats = 2);

  // ---- ICMP policy ----

  /// Maximum bytes of the offending datagram quoted in ICMP errors.
  /// Default 28 (IP header + 8); 0 means quote the entire datagram
  /// (RFC 1122 allows it; §4.5 discusses both regimes).
  void set_icmp_quote_limit(std::size_t bytes) { icmp_quote_limit_ = bytes; }
  [[nodiscard]] std::size_t icmp_quote_limit() const {
    return icmp_quote_limit_;
  }

  /// Generate an ICMP error about `offending` and send it to its source.
  /// Never generates errors about ICMP errors (RFC 1122).
  void send_icmp_error(const net::Packet& offending,
                       const net::IcmpMessage& prototype);

  // ---- Lifecycle (the fault plane's injection points) ----

  /// Crash the node: both the receive and the send path go silent, so
  /// timers that fire while down emit nothing, and all volatile
  /// link-layer state (ARP caches, packets queued on resolution) is
  /// lost, as in a power failure. Routing tables, interfaces, and demux
  /// registrations survive — they model configuration, not RAM.
  /// Idempotent.
  void fail();
  /// Power the node back up. Idempotent. Protocol modules layered on the
  /// node (e.g. core::MhrpAgent) re-initialize their own volatile state
  /// separately.
  void recover();
  [[nodiscard]] bool is_up() const { return up_; }

  /// Fired from fail()/recover() with the new state (true = up).
  util::Hooks<bool> on_state_changed;

  /// Fired with (interface, up) when the link attached to one of this
  /// node's interfaces changes carrier state (fault plane fail/recover).
  /// The routing::dv process subscribes here to withdraw routes learned
  /// through a dead link and re-advertise on recovery.
  util::Hooks<net::Interface&, bool> on_interface_state;

  // ---- Counters & hooks ----

  struct Counters {
    std::uint64_t ip_sent = 0;
    std::uint64_t ip_received = 0;      // frames handed up that carried IP
    std::uint64_t delivered_local = 0;  // datagrams demuxed on this node
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_arp_timeout = 0;
    std::uint64_t icmp_errors_sent = 0;
    // Forwarded datagrams carrying IP options.
    std::uint64_t options_slow_path = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Observer hooks (scenario layer: FlowRecorder, Tracer): every
  /// datagram delivered locally, and every forwarded datagram with its
  /// outgoing interface.
  util::Hooks<const net::Packet&> on_deliver_hook;
  util::Hooks<const net::Packet&, net::Interface&> on_forward_hook;

  // ---- FrameSink ----
  void on_frame(net::Interface& iface, net::Frame&& frame) override;
  void on_link_state(net::Interface& iface, bool up) override {
    on_interface_state(iface, up);
  }

 private:
  struct PendingArp {
    std::vector<std::pair<net::Packet, net::IpAddress>> queue;
    int attempts = 0;
    sim::EventHandle retry;
  };
  struct InterfaceState {
    net::ArpTable arp;
    std::set<net::IpAddress> proxied;
    std::map<net::IpAddress, PendingArp> pending;
  };

  void handle_arp(net::Interface& iface, const net::ArpMessage& msg);
  // The receive path hands a datagram on by rvalue reference: a hop
  // moves it once, into the outgoing frame, and copies it nowhere.
  void handle_ip(net::Interface& iface, net::Packet&& packet);
  void deliver_local(net::Packet& packet, net::Interface& iface);
  void handle_icmp(net::Packet& packet, net::Interface& iface);
  void handle_udp(net::Packet& packet, net::Interface& iface);
  void forward(net::Packet&& packet, net::Interface& in_iface);
  /// ARP-resolve `next_hop` on `iface` and emit the frame (queues and
  /// issues an ARP request on a miss).
  void transmit(net::Interface& iface, net::Packet&& packet,
                net::IpAddress next_hop);
  void arp_retry(net::Interface& iface, net::IpAddress next_hop);
  /// Position of `iface` in interfaces_, or interfaces_.size() when it
  /// belongs to another node.
  [[nodiscard]] std::size_t position_of(const net::Interface& iface) const;
  /// State of one of this node's own interfaces.
  InterfaceState& state_of(const net::Interface& iface);

  sim::Executive& sim_;
  std::string name_;
  std::vector<std::unique_ptr<net::Interface>> interfaces_;
  /// Per-interface state, parallel to interfaces_.
  std::vector<InterfaceState> iface_state_;
  routing::RoutingTable table_;
  bool up_ = true;
  bool forwarding_ = false;
  bool send_redirects_ = false;
  std::set<net::IpAddress> multicast_groups_;
  std::set<net::IpAddress> aliases_;
  std::vector<EgressHook> egress_hooks_;
  std::unordered_map<std::uint8_t, ProtocolHandler> protocol_handlers_;
  std::vector<IcmpHandler> icmp_handlers_;
  std::map<std::uint16_t, UdpHandler> udp_ports_;
  std::vector<Interceptor> interceptors_;
  std::vector<Interceptor> local_interceptors_;
  std::size_t icmp_quote_limit_ = 28;
  Counters counters_;

  static constexpr int kArpMaxAttempts = 3;
  static constexpr sim::Time kArpRetryDelay = sim::millis(500);
  static constexpr std::size_t kArpQueueLimit = 16;
};

}  // namespace mhrp::node
