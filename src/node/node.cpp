#include "node/node.hpp"

#include <cassert>
#include <stdexcept>


namespace mhrp::node {

using net::Frame;
using net::IcmpMessage;
using net::Interface;
using net::IpAddress;
using net::IpProto;
using net::Packet;

Node::Node(sim::Executive& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

// ---- Interfaces & addressing ----

Interface& Node::add_interface(const std::string& if_name, IpAddress ip,
                               int prefix_length) {
  auto iface = std::make_unique<Interface>(*this, if_name);
  iface->configure(ip, prefix_length);
  iface->set_shard(sim_.shard_id());
  interfaces_.push_back(std::move(iface));
  iface_state_.emplace_back();
  Interface& ref = *interfaces_.back();
  // Directly connected subnet route.
  table_.install({ref.prefix(), net::kUnspecified, &ref, 0,
                  routing::RouteKind::kConnected});
  return ref;
}

Interface* Node::interface_named(const std::string& if_name) {
  for (auto& iface : interfaces_) {
    if (iface->name() == if_name) return iface.get();
  }
  return nullptr;
}

bool Node::owns_address(IpAddress addr) const {
  for (const auto& iface : interfaces_) {
    if (iface->ip() == addr) return true;
  }
  return aliases_.contains(addr);
}

IpAddress Node::primary_address() const {
  return interfaces_.empty() ? net::kUnspecified : interfaces_.front()->ip();
}

std::size_t Node::position_of(const Interface& iface) const {
  std::size_t position = 0;
  while (position < interfaces_.size() &&
         interfaces_[position].get() != &iface) {
    ++position;
  }
  return position;
}

Node::InterfaceState& Node::state_of(const Interface& iface) {
  const std::size_t position = position_of(iface);
  if (position == interfaces_.size()) {
    throw std::invalid_argument(name_ + ": interface " + iface.name() +
                                " belongs to another node");
  }
  return iface_state_[position];
}

net::ArpTable& Node::arp_table(Interface& iface) { return state_of(iface).arp; }

// ---- Lifecycle ----

void Node::fail() {
  if (!up_) return;
  up_ = false;
  // A crash loses all volatile link-layer state: ARP caches and the
  // packets (and retry timers) queued awaiting resolution, torn down in
  // interface attachment order.
  for (InterfaceState& st : iface_state_) {
    st.arp.clear();
    for (auto& [next_hop, pending] : st.pending) {
      (void)next_hop;
      sim_.cancel(pending.retry);
    }
    st.pending.clear();
  }
  on_state_changed(false);
}

void Node::recover() {
  if (up_) return;
  up_ = true;
  on_state_changed(true);
}

// ---- Sending ----

void Node::send_ip(Packet packet) {
  if (!up_) return;
  if (packet.header().src.is_unspecified()) {
    packet.header().src = primary_address();
  }
  if (packet.created_at() == 0) packet.set_created_at(sim_.now());
  ++counters_.ip_sent;

  for (auto& hook : egress_hooks_) hook(packet);

  const IpAddress dst = packet.header().dst;
  if (owns_address(dst)) {
    // Loopback delivery, decoupled from the caller's stack frame.
    if (interfaces_.empty()) return;
    (void)sim_.after(
        0,
        [this, packet = std::move(packet)]() mutable {
          deliver_local(packet, *interfaces_.front());
        },
        sim::EventCategory::kLocalDelivery);
    return;
  }
  if (dst.is_broadcast() || dst.is_multicast()) {
    for (auto& iface : interfaces_) {
      if (iface->attached()) {
        send_ip_on(*iface, std::move(packet), dst);
        return;
      }
    }
    return;
  }

  const routing::Route* route = table_.lookup(dst);
  if (route == nullptr || route->iface == nullptr) {
    ++counters_.dropped_no_route;
    return;
  }
  // Copied out: the route is valid only until the table next changes.
  Interface& out = *route->iface;
  const IpAddress next_hop =
      route->next_hop.is_unspecified() ? dst : route->next_hop;
  transmit(out, std::move(packet), next_hop);
}

void Node::send_ip_on(Interface& iface, Packet packet, IpAddress link_dst) {
  if (!up_) return;
  if (packet.header().src.is_unspecified()) packet.header().src = iface.ip();
  if (packet.created_at() == 0) packet.set_created_at(sim_.now());
  ++counters_.ip_sent;

  if (link_dst.is_broadcast() || link_dst.is_multicast() ||
      link_dst == iface.prefix().broadcast()) {
    Frame frame{iface.mac(), net::kMacBroadcast, std::move(packet)};
    iface.send(std::move(frame));
    return;
  }
  transmit(iface, std::move(packet), link_dst);
}

void Node::send_udp(IpAddress dst, std::uint16_t src_port,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> data) {
  net::IpHeader h;
  h.protocol = net::to_u8(IpProto::kUdp);
  h.dst = dst;
  Packet p(h, net::encode_udp({src_port, dst_port}, data));
  p.set_base_payload_size(p.payload().size());
  send_ip(std::move(p));
}

void Node::send_udp_broadcast(Interface& iface, std::uint16_t src_port,
                              std::uint16_t dst_port,
                              std::span<const std::uint8_t> data) {
  net::IpHeader h;
  h.protocol = net::to_u8(IpProto::kUdp);
  h.dst = iface.prefix().broadcast();
  h.src = iface.ip();
  h.ttl = 1;
  Packet p(h, net::encode_udp({src_port, dst_port}, data));
  p.set_base_payload_size(p.payload().size());
  send_ip_on(iface, std::move(p), h.dst);
}

void Node::send_icmp(IpAddress dst, const IcmpMessage& msg) {
  net::IpHeader h;
  h.protocol = net::to_u8(IpProto::kIcmp);
  h.dst = dst;
  Packet p(h, net::encode_icmp(msg));
  p.set_base_payload_size(p.payload().size());
  send_ip(std::move(p));
}

void Node::send_icmp_on(Interface& iface, IpAddress link_dst,
                        const IcmpMessage& msg) {
  net::IpHeader h;
  h.protocol = net::to_u8(IpProto::kIcmp);
  h.dst = link_dst;
  h.src = iface.ip();
  if (link_dst.is_multicast() || link_dst.is_broadcast()) h.ttl = 1;
  Packet p(h, net::encode_icmp(msg));
  p.set_base_payload_size(p.payload().size());
  send_ip_on(iface, std::move(p), link_dst);
}

// ---- ARP ----

void Node::add_proxy_arp(Interface& iface, IpAddress addr) {
  state_of(iface).proxied.insert(addr);
}

void Node::remove_proxy_arp(Interface& iface, IpAddress addr) {
  state_of(iface).proxied.erase(addr);
}

bool Node::has_proxy_arp(Interface& iface, IpAddress addr) const {
  const std::size_t position = position_of(iface);
  return position < iface_state_.size() &&
         iface_state_[position].proxied.contains(addr);
}

void Node::send_gratuitous_arp(Interface& iface, IpAddress ip,
                               net::MacAddress mac, int repeats) {
  net::ArpMessage reply;
  reply.op = net::ArpMessage::Op::kReply;
  reply.sender_mac = mac;
  reply.sender_ip = ip;
  reply.target_mac = net::kMacBroadcast;
  reply.target_ip = ip;
  for (int i = 0; i <= repeats; ++i) {
    (void)sim_.after(
        sim::millis(100) * i,
        [this, &iface, reply] {
          // The interface may have detached in the meantime; send() handles
          // it. A node that crashed before the repeat fires stays silent.
          if (!up_) return;
          iface.send(Frame{iface.mac(), net::kMacBroadcast, reply});
        },
        sim::EventCategory::kArp);
  }
}

void Node::handle_arp(Interface& iface, const net::ArpMessage& msg) {
  InterfaceState& st = state_of(iface);
  if (!msg.sender_ip.is_unspecified()) {
    st.arp.learn(msg.sender_ip, msg.sender_mac);
    // Flush any packets queued awaiting this resolution.
    auto pending = st.pending.find(msg.sender_ip);
    if (pending != st.pending.end()) {
      auto queue = std::move(pending->second.queue);
      sim_.cancel(pending->second.retry);
      st.pending.erase(pending);
      for (auto& [packet, next_hop] : queue) {
        transmit(iface, std::move(packet), next_hop);
      }
    }
  }
  if (msg.op == net::ArpMessage::Op::kRequest) {
    // Answer for the interface's own address, any alias this node holds
    // (e.g. a mobile host's temporary address), or proxied addresses.
    const bool mine = iface.ip() == msg.target_ip ||
                      aliases_.contains(msg.target_ip);
    const bool proxied = st.proxied.contains(msg.target_ip);
    if (mine || proxied) {
      net::ArpMessage reply;
      reply.op = net::ArpMessage::Op::kReply;
      reply.sender_mac = iface.mac();
      reply.sender_ip = msg.target_ip;
      reply.target_mac = msg.sender_mac;
      reply.target_ip = msg.sender_ip;
      iface.send(Frame{iface.mac(), msg.sender_mac, reply});
    }
  }
}

void Node::transmit(Interface& iface, Packet&& packet, IpAddress next_hop) {
  if (!iface.attached()) return;
  InterfaceState& st = state_of(iface);
  if (auto mac = st.arp.lookup(next_hop)) {
    iface.send(Frame{iface.mac(), *mac, std::move(packet)});
    return;
  }
  // Queue and resolve.
  PendingArp& pending = st.pending[next_hop];
  if (pending.queue.size() >= kArpQueueLimit) {
    return;  // tail drop, like a real ARP queue
  }
  pending.queue.emplace_back(std::move(packet), next_hop);
  if (pending.queue.size() == 1) {
    pending.attempts = 0;
    net::ArpMessage req;
    req.op = net::ArpMessage::Op::kRequest;
    req.sender_mac = iface.mac();
    req.sender_ip = iface.ip();
    req.target_ip = next_hop;
    iface.send(Frame{iface.mac(), net::kMacBroadcast, req});
    pending.retry = sim_.after(
        kArpRetryDelay,
        [this, &iface, next_hop] { arp_retry(iface, next_hop); },
        sim::EventCategory::kArp);
  }
}

void Node::arp_retry(Interface& iface, IpAddress next_hop) {
  InterfaceState& st = state_of(iface);
  auto it = st.pending.find(next_hop);
  if (it == st.pending.end()) return;
  PendingArp& pending = it->second;
  if (++pending.attempts >= kArpMaxAttempts) {
    // Resolution failed: drop the queue, report unreachability upstream.
    auto queue = std::move(pending.queue);
    st.pending.erase(it);
    for (auto& [packet, hop] : queue) {
      ++counters_.dropped_arp_timeout;
      send_icmp_error(packet, net::IcmpUnreachable{
                                  net::UnreachCode::kHostUnreachable, {}});
    }
    return;
  }
  net::ArpMessage req;
  req.op = net::ArpMessage::Op::kRequest;
  req.sender_mac = iface.mac();
  req.sender_ip = iface.ip();
  req.target_ip = next_hop;
  iface.send(Frame{iface.mac(), net::kMacBroadcast, req});
  pending.retry = sim_.after(
      kArpRetryDelay,
      [this, &iface, next_hop] { arp_retry(iface, next_hop); },
      sim::EventCategory::kArp);
}

// ---- Receive path ----

void Node::on_frame(Interface& iface, Frame&& frame) {
  if (!up_) return;  // a crashed node hears nothing
  if (frame.is_arp()) {
    handle_arp(iface, frame.arp());
    return;
  }
  ++counters_.ip_received;
  Packet& packet = frame.packet();
  packet.count_hop();
  handle_ip(iface, std::move(packet));
}

void Node::handle_ip(Interface& iface, Packet&& packet) {
  const IpAddress dst = packet.header().dst;
  const bool local = owns_address(dst) || dst.is_broadcast() ||
                     dst == iface.prefix().broadcast() ||
                     (dst.is_multicast() && multicast_groups_.contains(dst));
  if (local) {
    deliver_local(packet, iface);
    return;
  }
  if (dst.is_multicast()) return;  // not subscribed

  for (auto& interceptor : interceptors_) {
    if (interceptor(packet, iface) == Intercept::kConsumed) return;
  }
  if (forwarding_) {
    forward(std::move(packet), iface);
  }
  // Hosts silently drop traffic that is not for them.
}

void Node::forward(Packet&& packet, Interface& in_iface) {
  if (packet.header().ttl <= 1) {
    ++counters_.dropped_ttl;
    send_icmp_error(packet, net::IcmpTimeExceeded{});
    return;
  }
  --packet.header().ttl;

  if (packet.header().has_options()) {
    // Paper §7: option-bearing packets leave the router fast path.
    ++counters_.options_slow_path;
  }

  const IpAddress dst = packet.header().dst;
  const routing::Route* route = table_.lookup(dst);
  if (route == nullptr || route->iface == nullptr) {
    ++counters_.dropped_no_route;
    send_icmp_error(packet, net::IcmpUnreachable{
                                net::UnreachCode::kNetUnreachable, {}});
    return;
  }
  // Copied out: the route is valid only until the table next changes,
  // and the ICMP error and the forward hook below may change it.
  Interface& out = *route->iface;
  const IpAddress next_hop =
      route->next_hop.is_unspecified() ? dst : route->next_hop;

  if (send_redirects_ && &out == &in_iface &&
      in_iface.prefix().contains(packet.header().src)) {
    send_icmp_error(packet, net::IcmpRedirect{next_hop, {}});
  }

  ++counters_.forwarded;
  on_forward_hook(packet, out);
  transmit(out, std::move(packet), next_hop);
}

void Node::deliver_local(Packet& packet, Interface& iface) {
  for (auto& interceptor : local_interceptors_) {
    if (interceptor(packet, iface) == Intercept::kConsumed) return;
  }
  ++counters_.delivered_local;
  on_deliver_hook(packet);

  const auto proto = packet.header().protocol;
  if (proto == net::to_u8(IpProto::kIcmp)) {
    handle_icmp(packet, iface);
    return;
  }
  if (proto == net::to_u8(IpProto::kUdp)) {
    handle_udp(packet, iface);
    return;
  }
  auto handler = protocol_handlers_.find(proto);
  if (handler != protocol_handlers_.end()) {
    handler->second(packet, iface);
    return;
  }
  if (!packet.header().dst.is_broadcast() &&
      !packet.header().dst.is_multicast()) {
    send_icmp_error(packet, net::IcmpUnreachable{
                                net::UnreachCode::kProtocolUnreachable, {}});
  }
}

void Node::handle_icmp(Packet& packet, Interface& iface) {
  IcmpMessage msg;
  try {
    msg = net::decode_icmp(packet.payload());
  } catch (const util::CodecError&) {
    return;  // corrupt ICMP is dropped
  }

  for (auto& handler : icmp_handlers_) {
    if (handler(msg, packet.header(), iface)) return;
  }

  if (auto* echo = std::get_if<net::IcmpEcho>(&msg)) {
    if (echo->is_request && !packet.header().dst.is_broadcast() &&
        !packet.header().dst.is_multicast()) {
      net::IcmpEcho reply = *echo;
      reply.is_request = false;
      net::IpHeader h;
      h.protocol = net::to_u8(IpProto::kIcmp);
      h.dst = packet.header().src;
      // Reply from the address the request targeted — for a mobile host
      // that is its home address regardless of where it roams.
      h.src = owns_address(packet.header().dst) ? packet.header().dst
                                                : primary_address();
      Packet p(h, net::encode_icmp(reply));
      p.set_base_payload_size(p.payload().size());
      p.set_flow_id(packet.flow_id());
      send_ip(std::move(p));
    }
    return;
  }
  // All other unconsumed ICMP — including location updates on nodes that
  // do not implement MHRP — is silently discarded (RFC 1122; paper §4.3).
}

void Node::handle_udp(Packet& packet, Interface& iface) {
  net::UdpDatagram datagram;
  try {
    datagram = net::decode_udp(packet.payload());
  } catch (const util::CodecError&) {
    return;
  }
  auto it = udp_ports_.find(datagram.header.dst_port);
  if (it != udp_ports_.end()) {
    it->second(datagram, packet.header(), iface);
    return;
  }
  if (owns_address(packet.header().dst)) {
    send_icmp_error(packet, net::IcmpUnreachable{
                                net::UnreachCode::kPortUnreachable, {}});
  }
}

void Node::send_icmp_error(const Packet& offending,
                           const IcmpMessage& prototype) {
  const IpAddress src = offending.header().src;
  if (src.is_unspecified() || src.is_broadcast() || src.is_multicast()) return;
  if (offending.header().dst.is_broadcast() ||
      offending.header().dst.is_multicast()) {
    return;
  }
  // Never generate errors about ICMP errors (RFC 1122).
  if (offending.header().protocol == net::to_u8(IpProto::kIcmp) &&
      !offending.payload().empty()) {
    const std::uint8_t type = offending.payload().front();
    if (type == 3 || type == 5 || type == 11 || type == 12) return;
  }

  std::vector<std::uint8_t> quoted =
      icmp_quote_limit_ == 0 ? offending.serialize()
                             : offending.serialize_prefix(icmp_quote_limit_);

  IcmpMessage msg = prototype;
  std::visit(
      [&quoted](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::IcmpUnreachable> ||
                      std::is_same_v<T, net::IcmpTimeExceeded> ||
                      std::is_same_v<T, net::IcmpRedirect>) {
          m.quoted = std::move(quoted);
        }
      },
      msg);

  ++counters_.icmp_errors_sent;
  send_icmp(src, msg);
}

}  // namespace mhrp::node
