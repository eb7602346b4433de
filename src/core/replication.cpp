#include "core/replication.hpp"

#include "net/udp.hpp"
#include "util/byte_buffer.hpp"

namespace mhrp::core {

using net::IpAddress;

namespace {

// kYield: sent by a replica stepping down from interception, telling the
// recovered original primary to reclaim ARP mappings it rewrote. The
// primary cannot detect the overlap itself: while the interim replica
// holds the primary's address as an alias, the interim replica's
// heartbeats to that address are delivered locally and never reach the
// wire.
enum class ReplOp : std::uint8_t { kBinding = 1, kHeartbeat = 2, kYield = 3 };

struct ReplMessage {
  ReplOp op = ReplOp::kHeartbeat;
  bool sender_active = false;  // is the sender the intercepting replica?
  IpAddress mobile_host;
  IpAddress foreign_agent;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    util::ByteWriter w(10);
    w.u8(static_cast<std::uint8_t>(op));
    w.u8(sender_active ? 1 : 0);
    w.u32(mobile_host.raw());
    w.u32(foreign_agent.raw());
    return w.take();
  }
  static ReplMessage decode(std::span<const std::uint8_t> wire) {
    util::ByteReader r(wire);
    ReplMessage m;
    m.op = static_cast<ReplOp>(r.u8());
    m.sender_active = r.u8() != 0;
    m.mobile_host = IpAddress(r.u32());
    m.foreign_agent = IpAddress(r.u32());
    return m;
  }
};

}  // namespace

HaReplicator::HaReplicator(MhrpAgent& agent, std::vector<IpAddress> peers,
                           bool is_primary, Config config)
    : agent_(agent),
      peers_(std::move(peers)),
      active_(is_primary),
      original_primary_(is_primary),
      config_(config),
      heartbeat_timer_(agent.node().sim(), config.heartbeat_period,
                       [this] { heartbeat(); }),
      peer_lifetime_(agent.node().sim(), [this] { peer_timeout(); }) {
  agent_.set_passive(!active_);
  binding_subscription_ = agent_.on_binding_changed.add(
      [this](IpAddress mobile_host, IpAddress foreign_agent) {
        if (!applying_remote_) broadcast_binding(mobile_host, foreign_agent);
      });
  agent_.node().bind_udp(kReplicationPort,
                         [this](const net::UdpDatagram& d,
                                const net::IpHeader& h, net::Interface&) {
                           on_udp(d, h);
                         });
}

HaReplicator::~HaReplicator() { agent_.node().unbind_udp(kReplicationPort); }

void HaReplicator::start() {
  heartbeat();
  heartbeat_timer_.start();
  peer_lifetime_.arm(config_.heartbeat_period * config_.missed_heartbeats);
}

void HaReplicator::broadcast_binding(IpAddress mobile_host,
                                     IpAddress foreign_agent) {
  ReplMessage m;
  m.op = ReplOp::kBinding;
  m.sender_active = active_;
  m.mobile_host = mobile_host;
  m.foreign_agent = foreign_agent;
  auto bytes = m.encode();
  send_to_peers(bytes);
  ++bindings_replicated_;
}

void HaReplicator::heartbeat() {
  ReplMessage m;
  m.op = ReplOp::kHeartbeat;
  m.sender_active = active_;
  auto bytes = m.encode();
  send_to_peers(bytes);
}

void HaReplicator::send_to_peers(const std::vector<std::uint8_t>& bytes) {
  for (IpAddress peer : peers_) {
    // A peer address held as an alias belongs to a dead peer we stand in
    // for; a datagram to it would only loop back to this node.
    if (agent_.node().owns_address(peer)) continue;
    agent_.node().send_udp(peer, kReplicationPort, kReplicationPort, bytes);
  }
}

void HaReplicator::on_udp(const net::UdpDatagram& datagram,
                          const net::IpHeader&) {
  ReplMessage m;
  try {
    m = ReplMessage::decode(datagram.data);
  } catch (const util::CodecError&) {
    return;
  }
  switch (m.op) {
    case ReplOp::kBinding: {
      applying_remote_ = true;
      agent_.apply_replicated_binding(m.mobile_host, m.foreign_agent);
      applying_remote_ = false;
      [[fallthrough]];  // a binding push also proves the peer is alive
    }
    case ReplOp::kHeartbeat:
      peer_lifetime_.arm(config_.heartbeat_period * config_.missed_heartbeats);
      if (m.sender_active && active_) {
        // Two active replicas: a healed partition, or the old primary came
        // back after a takeover. The original primary wins the tiebreak
        // and re-announces itself; everyone else yields.
        if (original_primary_) {
          reassert();
        } else {
          step_down();
        }
      }
      return;
    case ReplOp::kYield:
      peer_lifetime_.arm(config_.heartbeat_period * config_.missed_heartbeats);
      // A replica that intercepted in our absence is handing the role
      // back; the home LAN's ARP caches still point at it.
      if (active_ && original_primary_) reassert();
      return;
  }
}

void HaReplicator::peer_timeout() {
  if (active_) return;  // the active replica has nothing to take over
  take_over();
}

void HaReplicator::take_over() {
  ++takeovers_;
  active_ = true;
  // Resume interception: proxy ARP for every away host, gratuitous ARP
  // to rewrite neighbor caches (done inside set_passive(false)).
  agent_.set_passive(false);
  // Also adopt the dead peers' agent addresses so in-flight registrations
  // and tunnels addressed to the old primary reach us.
  const auto& served = agent_.served_interfaces();
  for (IpAddress peer : peers_) {
    agent_.node().add_address_alias(peer);
    for (net::Interface* iface : served) {
      if (iface->prefix().contains(peer)) {
        agent_.node().send_gratuitous_arp(*iface, peer, iface->mac());
      }
    }
  }
}

void HaReplicator::step_down() {
  ++stepdowns_;
  active_ = false;
  // Return the interception role: stop answering ARP for away hosts and
  // give the adopted peer addresses back, then tell the recovered primary
  // to gratuitous-ARP everything onto its own MAC again.
  agent_.set_passive(true);
  for (IpAddress peer : peers_) {
    agent_.node().remove_address_alias(peer);
  }
  ReplMessage m;
  m.op = ReplOp::kYield;
  m.sender_active = false;
  send_to_peers(m.encode());
}

void HaReplicator::reassert() {
  // A backup intercepted in our absence and rewrote the home LAN's ARP
  // caches. Claim our own agent address and every away host back.
  const auto& served = agent_.served_interfaces();
  for (net::Interface* iface : served) {
    agent_.node().send_gratuitous_arp(*iface, iface->ip(), iface->mac());
  }
  for (const auto& [mobile_host, foreign_agent] : agent_.home_bindings()) {
    if (foreign_agent.is_unspecified() ||
        foreign_agent == MhrpAgent::kDetachedSentinel) {
      continue;
    }
    for (net::Interface* iface : served) {
      if (iface->prefix().contains(mobile_host)) {
        agent_.node().send_gratuitous_arp(*iface, mobile_host, iface->mac());
      }
    }
  }
}

}  // namespace mhrp::core
