#include "core/agent.hpp"

#include <algorithm>


namespace mhrp::core {

using net::IpAddress;
using net::Packet;

MhrpAgent::MhrpAgent(node::Node& node, AgentConfig config)
    : node_(node),
      config_(config),
      cache_(config.cache_capacity),
      limiter_(config.update_min_interval, config.rate_limiter_capacity),
      advertise_timer_(node.sim(), config.advertisement_period,
                       [this] { advertise(); },
                       sim::EventCategory::kAdvertisement) {
  node_.join_multicast(net::kAllAgentsGroup);
  node_.add_egress_hook([this](Packet& p) { on_egress(p); });
  node_.add_interceptor([this](Packet& p, net::Interface& in) {
    return on_forward(p, in);
  });
  node_.set_protocol_handler(
      net::IpProto::kMhrp,
      [this](Packet& p, net::Interface& in) { on_mhrp_packet(p, in); });
  node_.add_icmp_handler([this](const net::IcmpMessage& msg,
                                const net::IpHeader& header,
                                net::Interface& iface) {
    return on_icmp(msg, header, iface);
  });
  node_.bind_udp(kRegistrationPort,
                 [this](const net::UdpDatagram& d, const net::IpHeader& h,
                        net::Interface& i) { on_registration(d, h, i); });
}

void MhrpAgent::serve_on(net::Interface& iface) {
  if (std::find(served_.begin(), served_.end(), &iface) == served_.end()) {
    served_.push_back(&iface);
  }
}

void MhrpAgent::start_advertising() {
  advertise();
  advertise_timer_.start();
}

void MhrpAgent::stop_advertising() { advertise_timer_.stop(); }

void MhrpAgent::advertise() {
  for (net::Interface* iface : served_) advertise_on(*iface);
}

void MhrpAgent::advertise_on(net::Interface& iface) {
  net::IcmpAgentAdvertisement adv;
  adv.agent = iface.ip();
  adv.offers_home_agent = config_.home_agent;
  adv.offers_foreign_agent = config_.foreign_agent;
  adv.lifetime_s = config_.advertisement_lifetime_s;
  adv.sequence = ++advertisement_sequence_;
  node_.send_icmp_on(iface, net::kAllAgentsGroup, adv);
}

// ---- Home agent ----

void MhrpAgent::provision_mobile_host(IpAddress mobile_host) {
  net::Interface* home_iface = nullptr;
  for (net::Interface* iface : served_) {
    if (iface->prefix().contains(mobile_host)) {
      home_iface = iface;
      break;
    }
  }
  const BindingTable::Emplaced e = home_db_.try_emplace(mobile_host);
  if (e.inserted) {
    // A fresh row is zeroed: at home (FA unspecified), sequence 0.
    home_db_.set_home_iface(e.ref, home_iface);
    (void)log_mutation(store::WalRecord::Kind::kProvision, mobile_host,
                       net::kUnspecified, 0);
  }
}

void MhrpAgent::attach_store(store::HomeStore& store) {
  store_ = &store;
  store_->on_durable = [this](store::Lsn durable) {
    release_pending_acks(durable);
  };
  store_->on_wiped = [this] { drop_pending_acks(); };
  // Scenarios may provision before attaching; bring the log up to date
  // with whatever the database already holds.
  home_db_.for_each_ascending(
      [this](IpAddress mobile_host, BindingTable::Ref row) {
        (void)log_mutation(store::WalRecord::Kind::kProvision, mobile_host,
                           net::kUnspecified, 0);
        const IpAddress fa = home_db_.foreign_agent(row);
        if (!fa.is_unspecified()) {
          (void)log_mutation(store::WalRecord::Kind::kBinding, mobile_host,
                             fa, home_db_.sequence(row));
        }
      });
}

store::HomeStore::Ticket MhrpAgent::log_mutation(store::WalRecord::Kind kind,
                                                 IpAddress mobile_host,
                                                 IpAddress foreign_agent,
                                                 std::uint32_t sequence) {
  if (store_ == nullptr || restoring_) return {0, true};
  ++stats_.bindings_logged;
  return store_->log({kind, mobile_host, foreign_agent, sequence});
}

void MhrpAgent::drop_pending_acks() {
  stats_.acks_dropped_on_crash += pending_acks_.size();
  pending_acks_.clear();
}

void MhrpAgent::release_pending_acks(store::Lsn durable) {
  while (!pending_acks_.empty() && pending_acks_.begin()->first <= durable) {
    auto entry = pending_acks_.extract(pending_acks_.begin());
    ++stats_.acks_released;
    auto bytes = entry.mapped().reply.encode();
    node_.send_udp(entry.mapped().dst, kRegistrationPort, kRegistrationPort,
                   bytes);
  }
}

void MhrpAgent::restore_from_store() {
  restoring_ = true;
  home_db_.clear();
  for (const auto& [mobile_host, recovered] : store_->state()) {
    provision_mobile_host(mobile_host);
    const BindingTable::Ref row = home_db_.find(mobile_host);
    home_db_.set_sequence(row, recovered.sequence);
    if (!recovered.foreign_agent.is_unspecified()) {
      set_home_binding(mobile_host, recovered.foreign_agent, row);
    }
  }
  restoring_ = false;
}

std::optional<IpAddress> MhrpAgent::home_binding(IpAddress mobile_host) const {
  const BindingTable::Ref row = home_db_.find(mobile_host);
  if (!row) return std::nullopt;
  return home_db_.foreign_agent(row);
}

void MhrpAgent::set_home_binding(IpAddress mobile_host, IpAddress fa,
                                 BindingTable::Ref row) {
  const bool was_away = !home_db_.foreign_agent(row).is_unspecified();
  const bool now_away = !fa.is_unspecified();
  home_db_.set_foreign_agent(row, fa);
  on_binding_changed(mobile_host, fa);
  // Without a presence on the host's own subnet (the §3 domain-coverage
  // deployment), interception happens via host-specific routes instead
  // of ARP games; nothing link-layer to do here. A passive replica keeps
  // the database in sync but leaves the link layer to the active one.
  net::Interface* home_iface = home_db_.home_iface(row);
  if (home_iface == nullptr || passive_) return;
  if (!was_away && now_away) {
    // Take over the mobile host's identity on the home network: answer
    // future ARP queries for it and rewrite the neighbors' caches now
    // (paper §2).
    node_.add_proxy_arp(*home_iface, mobile_host);
    node_.send_gratuitous_arp(*home_iface, mobile_host, home_iface->mac());
  } else if (was_away && !now_away) {
    // The returning mobile host broadcasts its own gratuitous ARP; we
    // just stop answering for it.
    node_.remove_proxy_arp(*home_iface, mobile_host);
  }
}

void MhrpAgent::set_passive(bool passive) {
  if (passive == passive_) return;
  passive_ = passive;
  home_db_.for_each_ascending(
      [this](IpAddress mobile_host, BindingTable::Ref row) {
        net::Interface* home_iface = home_db_.home_iface(row);
        if (home_iface == nullptr) return;
        if (home_db_.foreign_agent(row).is_unspecified()) return;
        if (passive_) {
          node_.remove_proxy_arp(*home_iface, mobile_host);
        } else {
          // Taking over interception: claim every away host at the link
          // layer and rewrite the neighbors' caches now.
          node_.add_proxy_arp(*home_iface, mobile_host);
          node_.send_gratuitous_arp(*home_iface, mobile_host,
                                    home_iface->mac());
        }
      });
}

void MhrpAgent::apply_replicated_binding(IpAddress mobile_host,
                                         IpAddress foreign_agent) {
  BindingTable::Ref row = home_db_.find(mobile_host);
  if (!row) {
    provision_mobile_host(mobile_host);
    row = home_db_.find(mobile_host);
  }
  set_home_binding(mobile_host, foreign_agent, row);
  // A replica's copy is durable too — it may be promoted after a crash.
  (void)log_mutation(store::WalRecord::Kind::kBinding, mobile_host,
                     foreign_agent, home_db_.sequence(row));
}

std::vector<std::pair<IpAddress, IpAddress>> MhrpAgent::home_bindings()
    const {
  std::vector<std::pair<IpAddress, IpAddress>> out;
  out.reserve(home_db_.size());
  home_db_.for_each_ascending(
      [this, &out](IpAddress mobile_host, BindingTable::Ref row) {
        out.emplace_back(mobile_host, home_db_.foreign_agent(row));
      });
  return out;
}

node::Intercept MhrpAgent::home_intercept(Packet& packet) {
  if (passive_) return node::Intercept::kContinue;
  const IpAddress mobile_host = packet.header().dst;
  const BindingTable::Ref row = home_db_.find(mobile_host);
  if (!row) return node::Intercept::kContinue;
  const IpAddress fa = home_db_.foreign_agent(row);
  if (fa.is_unspecified()) {
    // At home: standard routing delivers with zero MHRP overhead.
    return node::Intercept::kContinue;
  }
  ++stats_.intercepted_home;
  if (fa == kDetachedSentinel) {
    ++stats_.dropped_disconnected;
    node_.send_icmp_error(
        packet, net::IcmpUnreachable{net::UnreachCode::kHostUnreachable, {}});
    return node::Intercept::kConsumed;
  }
  if (is_mhrp(packet)) {
    home_handle_tunneled(packet);
    return node::Intercept::kConsumed;
  }
  // Plain packet from a sender with no (or stale) location knowledge:
  // tunnel it and tell the sender where the host is (paper §6.1).
  const IpAddress sender = packet.header().src;
  encapsulate(packet, fa, agent_address());
  ++stats_.tunnels_built;
  trace_packet("tunnel.encap", mobile_host);
  send_location_update(sender, mobile_host, fa);
  node_.send_ip(std::move(packet));
  return node::Intercept::kConsumed;
}

void MhrpAgent::home_handle_tunneled(Packet& packet) {
  // An old foreign agent with no forwarding pointer tunneled this packet
  // to the mobile host's home address (paper §4.4); repair everyone who
  // handled it (§5.1) and pass it along to the true foreign agent —
  // unless the "true" FA itself appears among the handlers, which means
  // that FA lost its state and must be restored instead (§5.2).
  MhrpHeader h;
  try {
    h = read_mhrp_header(packet);
  } catch (const util::CodecError&) {
    return;  // corrupt tunnel header; drop
  }
  const BindingTable::Ref row = home_db_.find(h.mobile_host);
  if (!row) return;
  const IpAddress true_fa = home_db_.foreign_agent(row);

  std::vector<IpAddress> handlers = h.previous_sources;
  if (std::find(handlers.begin(), handlers.end(), packet.header().src) ==
      handlers.end()) {
    handlers.push_back(packet.header().src);
  }
  bool fa_among_handlers = false;
  for (IpAddress handler : handlers) {
    send_location_update(handler, h.mobile_host, true_fa);
    if (handler == true_fa) fa_among_handlers = true;
  }

  if (true_fa.is_unspecified()) {
    // Host is at home: hand the packet onward; it will reach the host on
    // the home network, which reports "I am home" itself (§6.3). Since
    // the packet is already addressed to the host, just forward it.
    node_.send_ip(std::move(packet));
    return;
  }
  if (fa_among_handlers) {
    // §5.2: the serving FA forgot this host (reboot). The update we just
    // sent restores it; re-tunneling now would only loop.
    ++stats_.discarded_for_recovery;
    return;
  }
  RetunnelResult r = retunnel(packet, agent_address(), true_fa,
                              config_.max_list_length);
  if (r.loop_detected) {
    ++stats_.loops_detected;
    for (IpAddress member : r.stale_members) {
      send_location_update(member, h.mobile_host, net::kUnspecified,
                           /*invalidate=*/true);
    }
    return;
  }
  if (r.list_overflowed) {
    ++stats_.list_overflows;
    for (IpAddress member : r.flushed) {
      send_location_update(member, h.mobile_host, true_fa);
    }
  }
  ++stats_.retunnels;
  node_.send_ip(std::move(packet));
}

// ---- Egress: this node is the original sender (§4.1) ----

void MhrpAgent::on_egress(Packet& packet) {
  if (is_mhrp(packet)) return;
  const IpAddress dst = packet.header().dst;
  if (dst.is_unspecified() || dst.is_broadcast() || dst.is_multicast() ||
      node_.owns_address(dst)) {
    return;
  }
  // This node originated the packet, so whatever owned address it chose
  // as the source is "the original sender" — the header is sender-built
  // (8 octets, empty list, §4.1). Using the agent's canonical address as
  // the builder here would wrongly push our own other address into the
  // list and draw §5.1 updates back at ourselves.
  const IpAddress builder = packet.header().src;
  if (config_.home_agent) {
    const BindingTable::Ref row = home_db_.find(dst);
    if (row) {
      const IpAddress fa = home_db_.foreign_agent(row);
      if (!fa.is_unspecified() && fa != kDetachedSentinel) {
        encapsulate(packet, fa, builder);
        ++stats_.tunnels_built;
        trace_packet("tunnel.encap", dst);
        return;
      }
    }
  }
  if (config_.cache_agent) {
    if (auto fa = cache_.lookup(dst)) {
      encapsulate(packet, *fa, builder);
      ++stats_.tunnels_built;
      trace_packet("tunnel.encap", dst);
    }
  }
}

// ---- Forward path (router roles) ----

node::Intercept MhrpAgent::on_forward(Packet& packet, net::Interface& in) {
  (void)in;
  if (config_.home_agent) {
    if (home_intercept(packet) == node::Intercept::kConsumed) {
      return node::Intercept::kConsumed;
    }
  }
  if (!config_.cache_agent || !config_.examine_forwarded_packets) {
    return node::Intercept::kContinue;
  }
  ++stats_.packets_examined;

  // §4.3: an intermediate router that forwards a location update may also
  // cache the address it carries. Other ICMP (echo, errors) falls through
  // and may itself be tunneled when it targets a cached mobile host.
  if (packet.header().protocol == net::to_u8(net::IpProto::kIcmp)) {
    try {
      auto msg = net::decode_icmp(packet.payload());
      if (const auto* update = std::get_if<net::IcmpLocationUpdate>(&msg)) {
        if (update->invalidate || update->foreign_agent.is_unspecified()) {
          cache_.invalidate(update->mobile_host);
        } else {
          cache_.update(update->mobile_host, update->foreign_agent);
        }
        return node::Intercept::kContinue;
      }
    } catch (const util::CodecError&) {
      return node::Intercept::kContinue;  // not decodable: forward untouched
    }
  }

  // §6.2: a cache agent in a router tunnels forwarded packets destined to
  // mobile hosts it has locations for (supporting hosts that do not
  // implement MHRP themselves).
  if (!is_mhrp(packet)) {
    if (auto fa = cache_.lookup(packet.header().dst)) {
      trace_packet("tunnel.encap", packet.header().dst);
      encapsulate(packet, *fa, agent_address());
      ++stats_.tunnels_built;
      node_.send_ip(std::move(packet));
      return node::Intercept::kConsumed;
    }
  }
  return node::Intercept::kContinue;
}

// ---- Tunneled packets addressed to this node ----

void MhrpAgent::on_mhrp_packet(Packet& packet, net::Interface& in) {
  (void)in;
  MhrpHeader h;
  try {
    h = read_mhrp_header(packet);
  } catch (const util::CodecError&) {
    return;
  }

  if (config_.foreign_agent && visiting_.contains(h.mobile_host)) {
    deliver_to_visitor(std::move(packet));
    return;
  }

  // A combined home+foreign agent may receive tunnels addressed to
  // itself for hosts it is the *home* agent of (e.g. stale caches that
  // recorded this node while the host visited here).
  if (config_.home_agent && home_db_.contains(h.mobile_host)) {
    home_handle_tunneled(packet);
    return;
  }

  retunnel_or_home(std::move(packet));
}

void MhrpAgent::deliver_to_visitor(Packet packet) {
  MhrpHeader h = decapsulate(packet);
  ++stats_.delivered_to_visitor;
  trace_packet("tunnel.decap", h.mobile_host);
  // §5.1: every address in the previous-source list is an out-of-date
  // cache agent — point them all directly at this foreign agent.
  for (IpAddress member : h.previous_sources) {
    send_location_update(member, h.mobile_host, agent_address());
  }
  auto it = visiting_.find(h.mobile_host);
  if (it == visiting_.end() || it->second.iface == nullptr) return;
  node_.send_ip_on(*it->second.iface, std::move(packet), h.mobile_host);
}

void MhrpAgent::retunnel_or_home(Packet packet) {
  // Re-tunneling is a routing decision: the TTL spends a hop here, which
  // is what eventually kills a packet circling a cache loop larger than
  // the list can record (§5.3 — "the next packet will continue the loop
  // contraction and detection procedure").
  if (packet.header().ttl <= 1) {
    ++stats_.retunnel_ttl_drops;
    return;
  }
  --packet.header().ttl;

  MhrpHeader h = read_mhrp_header(packet);
  std::optional<IpAddress> next;
  if (config_.cache_agent) next = cache_.lookup(h.mobile_host);
  // §4.4: with a cached location, tunnel to the new foreign agent;
  // without one, tunnel to the mobile host's home address, where its
  // home agent will intercept.
  const IpAddress destination = next.value_or(h.mobile_host);

  RetunnelResult r = retunnel(packet, agent_address(), destination,
                              config_.max_list_length);
  if (r.loop_detected) {
    // §5.3: dissolve the loop — every member deletes its cache entry.
    ++stats_.loops_detected;
    cache_.invalidate(h.mobile_host);
    for (IpAddress member : r.stale_members) {
      if (member == agent_address()) continue;
      send_location_update(member, h.mobile_host, net::kUnspecified,
                           /*invalidate=*/true);
    }
    return;
  }
  if (r.list_overflowed) {
    // §4.4: every flushed address learns where this node tunnels now.
    ++stats_.list_overflows;
    for (IpAddress member : r.flushed) {
      send_location_update(member, h.mobile_host, destination);
    }
  }
  ++stats_.retunnels;
  trace_packet("tunnel.retunnel", h.mobile_host);
  if (!next.has_value()) ++stats_.tunneled_to_home;
  node_.send_ip(std::move(packet));
}

// ---- ICMP ----

bool MhrpAgent::on_icmp(const net::IcmpMessage& msg,
                        const net::IpHeader& header, net::Interface& iface) {
  (void)header;
  if (const auto* update = std::get_if<net::IcmpLocationUpdate>(&msg)) {
    ++stats_.updates_received;
    handle_location_update(*update);
    return true;
  }
  if (std::get_if<net::IcmpAgentSolicitation>(&msg) != nullptr) {
    if (std::find(served_.begin(), served_.end(), &iface) != served_.end()) {
      advertise_on(iface);
      return true;
    }
    return false;
  }
  if (std::get_if<net::IcmpUnreachable>(&msg) != nullptr ||
      std::get_if<net::IcmpTimeExceeded>(&msg) != nullptr) {
    return handle_returned_error(msg);
  }
  return false;
}

void MhrpAgent::handle_location_update(const net::IcmpLocationUpdate& update) {
  // §5.2: a foreign agent told that *it* serves a mobile host it has no
  // record of lost its state; restore the visitor.
  if (config_.foreign_agent && !update.invalidate &&
      node_.owns_address(update.foreign_agent)) {
    if (!visiting_.contains(update.mobile_host) && !served_.empty()) {
      net::Interface* iface = served_.front();
      if (config_.verify_recovery_with_arp) {
        // Elicit a reply from the mobile host before believing the home
        // agent (the paper's "query message onto its local network").
        // Forget the old entry first: ARP entries never expire and a
        // reboot keeps them, so only a fresh reply may count.
        node_.arp_table(*iface).forget(update.mobile_host);
        net::ArpMessage query;
        query.op = net::ArpMessage::Op::kRequest;
        query.sender_mac = iface->mac();
        query.sender_ip = iface->ip();
        query.target_ip = update.mobile_host;
        iface->send(net::Frame{iface->mac(), net::kMacBroadcast, query});
        (void)node_.sim().after(sim::millis(300), [this, iface,
                                             mh = update.mobile_host] {
          if (node_.arp_table(*iface).lookup(mh).has_value() &&
              !visiting_.contains(mh)) {
            visiting_[mh] = Visitor{0, iface};
            ++stats_.recovery_readds;
          }
        });
      } else {
        visiting_[update.mobile_host] = Visitor{0, iface};
        ++stats_.recovery_readds;
      }
    }
    return;
  }
  if (!config_.cache_agent) return;
  // A home agent is authoritative for its own mobile hosts; a cache
  // entry for one could only ever be redundant or stale.
  if (config_.home_agent && home_db_.contains(update.mobile_host)) return;
  if (update.invalidate || update.foreign_agent.is_unspecified()) {
    cache_.invalidate(update.mobile_host);
  } else if (!node_.owns_address(update.foreign_agent)) {
    cache_.update(update.mobile_host, update.foreign_agent);
  }
}

namespace {

struct QuotedPacket {
  net::IpHeader header;
  std::vector<std::uint8_t> body;  // possibly truncated
};

std::optional<QuotedPacket> parse_quoted(
    std::span<const std::uint8_t> quoted) {
  try {
    util::ByteReader r(quoted);
    std::size_t total = 0;
    QuotedPacket q;
    q.header = net::IpHeader::decode(r, &total);
    q.body = r.bytes(r.remaining());
    return q;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace

bool MhrpAgent::handle_returned_error(const net::IcmpMessage& msg) {
  // §4.5: an ICMP error about a tunneled packet arrives at the head of
  // the most recent tunnel (us). Reverse the changes we made to the
  // packet quoted inside the error and resend the error one tunnel back.
  const std::vector<std::uint8_t>* quoted = nullptr;
  const bool is_unreachable =
      std::holds_alternative<net::IcmpUnreachable>(msg);
  if (is_unreachable) {
    quoted = &std::get<net::IcmpUnreachable>(msg).quoted;
  } else {
    quoted = &std::get<net::IcmpTimeExceeded>(msg).quoted;
  }

  auto q = parse_quoted(*quoted);
  if (!q.has_value()) return false;
  if (q->header.protocol != net::to_u8(net::IpProto::kMhrp)) {
    // A plain (fully reversed) quote can still tell a sending cache agent
    // that its entry for the quoted destination is stale (§4.5).
    if (config_.cache_agent && config_.invalidate_cache_on_error &&
        is_unreachable && cache_.peek(q->header.dst).has_value()) {
      cache_.invalidate(q->header.dst);
      ++stats_.cache_error_invalidations;
    }
    return false;  // let the transport layer see the error too
  }
  if (!node_.owns_address(q->header.src)) return false;
  const IpAddress self = q->header.src;

  MhrpHeader h;
  std::vector<std::uint8_t> transport;
  bool full_header = true;
  try {
    util::ByteReader r(q->body);
    h = MhrpHeader::decode(r);
    transport = r.bytes(r.remaining());
  } catch (const util::CodecError&) {
    full_header = false;
  }

  if (!full_header) {
    // Only part of the MHRP header came back; if the fixed part is there
    // we can at least identify the mobile host and drop our stale entry
    // ("little can be done by a cache agent beyond deleting its cache
    // entry", §4.5).
    if (q->body.size() >= MhrpHeader::kBaseSize && config_.cache_agent &&
        config_.invalidate_cache_on_error && is_unreachable) {
      const IpAddress mh((std::uint32_t(q->body[4]) << 24) |
                         (std::uint32_t(q->body[5]) << 16) |
                         (std::uint32_t(q->body[6]) << 8) |
                         std::uint32_t(q->body[7]));
      cache_.invalidate(mh);
      ++stats_.cache_error_invalidations;
    }
    return true;
  }

  if (config_.cache_agent && config_.invalidate_cache_on_error &&
      is_unreachable) {
    // A "destination unreachable" may mean a router toward the *cached
    // location* is down, not the host itself; drop the entry so the next
    // packet can take a fresh path (§4.5).
    cache_.invalidate(h.mobile_host);
    ++stats_.cache_error_invalidations;
  }

  if (transport.size() < 8) {
    // Not enough of the transport header survived to be meaningful to
    // the original sender (§4.5).
    return true;
  }

  if (h.previous_sources.empty()) {
    // We built this tunnel as the original sender: the error has come
    // all the way home. Surface it by reconstructing the original packet
    // and treating the error as addressed to our own transport layer.
    ++stats_.errors_terminated;
    return true;
  }

  const IpAddress previous = h.previous_sources.back();
  h.previous_sources.pop_back();

  util::ByteWriter quote;
  if (h.previous_sources.empty()) {
    // `previous` originated the packet before any MHRP header existed
    // (either as a plain sender or as a sender-builder): return a fully
    // reconstructed original quote it will understand.
    q->header.protocol = h.orig_protocol;
    q->header.src = previous;
    q->header.dst = h.mobile_host;
    q->header.encode(quote, transport.size());
    quote.bytes(transport);
  } else {
    // `previous` re-tunneled to us: undo exactly our transform.
    q->header.src = previous;
    q->header.dst = self;
    util::ByteWriter body;
    h.encode(body);
    body.bytes(transport);
    auto body_bytes = body.take();
    q->header.encode(quote, body_bytes.size());
    quote.bytes(body_bytes);
  }

  net::IcmpMessage out = msg;
  std::visit(
      [&quote](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::IcmpUnreachable> ||
                      std::is_same_v<T, net::IcmpTimeExceeded>) {
          m.quoted = quote.take();
        }
      },
      out);
  ++stats_.errors_reversed;
  node_.send_icmp(previous, out);
  return true;
}

// ---- Registration ----

void MhrpAgent::on_registration(const net::UdpDatagram& datagram,
                                const net::IpHeader& header,
                                net::Interface& iface) {
  RegMessage m;
  try {
    m = RegMessage::decode(datagram.data);
  } catch (const util::CodecError&) {
    return;
  }

  switch (m.kind) {
    case RegKind::kConnect: {
      if (!config_.foreign_agent) return;
      Visitor& v = visiting_[m.mobile_host];
      if (m.sequence < v.last_sequence) return;  // stale retransmit
      v.last_sequence = m.sequence;
      v.iface = &iface;
      ++stats_.registrations;
      reply_registration(
          iface, header.src,
          RegMessage{RegKind::kConnectAck, m.mobile_host,
                     iface.ip(), m.sequence});
      return;
    }
    case RegKind::kDisconnect: {
      if (!config_.foreign_agent) return;
      // A disconnect naming *us* as the new agent is nonsense (stale or
      // bounced); processing it would erase a live registration.
      if (node_.owns_address(m.foreign_agent)) return;
      auto it = visiting_.find(m.mobile_host);
      if (it != visiting_.end() && m.sequence >= it->second.last_sequence) {
        visiting_.erase(it);
        // §2: optionally keep a forwarding pointer to the new FA — but
        // not when the host went home (§6.3).
        if (config_.forwarding_pointers && config_.cache_agent &&
            !m.foreign_agent.is_unspecified() &&
            m.foreign_agent != kDetachedSentinel) {
          cache_.update(m.mobile_host, m.foreign_agent);
        }
      }
      ++stats_.registrations;
      // Unlike the Connect ack (the host is on our link and routeless),
      // the Disconnect arrives from wherever the host moved to; the ack
      // is routed normally and reaches it through its new tunnel.
      RegMessage ack{RegKind::kDisconnectAck, m.mobile_host, m.foreign_agent,
                     m.sequence};
      auto bytes = ack.encode();
      node_.send_udp(m.mobile_host, kRegistrationPort, kRegistrationPort,
                     bytes);
      return;
    }
    case RegKind::kHomeRegister: {
      if (!config_.home_agent) return;
      BindingTable::Ref row = home_db_.find(m.mobile_host);
      if (!row) {
        // Auto-provision hosts addressed within a served (home) network.
        bool ours = false;
        for (net::Interface* served : served_) {
          if (served->prefix().contains(m.mobile_host)) ours = true;
        }
        if (!ours) return;
        provision_mobile_host(m.mobile_host);
        row = home_db_.find(m.mobile_host);
      }
      if (m.sequence < home_db_.sequence(row)) return;
      home_db_.set_sequence(row, m.sequence);
      set_home_binding(m.mobile_host, m.foreign_agent, row);
      ++stats_.registrations;
      RegMessage ack{RegKind::kHomeRegisterAck, m.mobile_host,
                     m.foreign_agent, m.sequence};
      // §2 durability: the binding is logged before the ack leaves.
      // Under kSync the ticket says ack-now only once the record is on
      // the media; under group commit (kInterval) the ack is parked
      // until the record's sync completes; kAsync acks immediately and
      // accepts the documented loss window.
      const store::HomeStore::Ticket ticket = log_mutation(
          store::WalRecord::Kind::kBinding, m.mobile_host, m.foreign_agent,
          m.sequence);
      if (store_ != nullptr && !ticket.ack_now) {
        if (ticket.lsn == 0) return;  // store crashed under the append
        ++stats_.acks_deferred;
        pending_acks_[ticket.lsn] = PendingAck{m.mobile_host, ack};
        return;
      }
      // The ack is routed normally; if the host is away our own egress
      // hook tunnels it through the freshly recorded foreign agent.
      auto bytes = ack.encode();
      node_.send_udp(m.mobile_host, kRegistrationPort, kRegistrationPort,
                     bytes);
      return;
    }
    default:
      return;  // acks and queries are for mobile hosts, not agents
  }
}

void MhrpAgent::reply_registration(net::Interface& iface, IpAddress dst,
                                   const RegMessage& reply) {
  auto bytes = reply.encode();
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = iface.ip();
  h.dst = dst;
  Packet p(h, net::encode_udp({kRegistrationPort, kRegistrationPort}, bytes));
  p.set_base_payload_size(p.payload().size());
  // Delivered on the local network directly — the visiting host's
  // address is from another network, so routing would misdirect it.
  node_.send_ip_on(iface, std::move(p), dst);
}

// ---- Shared helpers ----

void MhrpAgent::send_location_update(IpAddress dst, IpAddress mobile_host,
                                     IpAddress foreign_agent,
                                     bool invalidate) {
  if (dst.is_unspecified() || node_.owns_address(dst)) return;
  if (!limiter_.allow(dst, node_.sim().now())) return;
  net::IcmpLocationUpdate update;
  update.mobile_host = mobile_host;
  update.foreign_agent = foreign_agent;
  update.invalidate = invalidate;
  ++stats_.updates_sent;
  node_.send_icmp(dst, update);
}

void MhrpAgent::reboot(bool preserve_home_database) {
  visiting_.clear();
  cache_.clear();
  limiter_ = UpdateRateLimiter(config_.update_min_interval,
                               config_.rate_limiter_capacity);
  // Registration replies parked for a group commit died with the
  // process, whichever way the disk fared; the mobile host's §3
  // retransmission is what recovers the handshake. (The store's reset()
  // fires on_wiped → drop_pending_acks() too, so a wiped WAL can never
  // release a stale LSN even when wiped outside a reboot.)
  drop_pending_acks();
  // The home database is "recorded on disk to survive any crashes and
  // subsequent reboots" (paper §2) — it persists unless the caller
  // models losing the disk as well. With a store attached, "persists"
  // means whatever store recovery yields: the write cache is gone, so a
  // binding that never reached the media is honestly lost.
  if (store_ != nullptr) {
    if (preserve_home_database) {
      if (!store_->down()) store_->crash();
      (void)store_->recover();
      restore_from_store();
    } else {
      store_->reset();
      home_db_.clear();
    }
  } else if (!preserve_home_database) {
    home_db_.clear();
  }
  if (config_.reregister_broadcast_on_reboot) {
    RegMessage query{RegKind::kReconnectQuery, net::kUnspecified,
                     net::kUnspecified, 0};
    auto bytes = query.encode();
    for (net::Interface* iface : served_) {
      // Limited broadcast: visiting mobile hosts keep their home-network
      // addresses, so the local subnet-directed broadcast would not match
      // their notion of "this subnet".
      net::IpHeader h;
      h.protocol = net::to_u8(net::IpProto::kUdp);
      h.src = iface->ip();
      h.dst = net::kBroadcast;
      h.ttl = 1;
      net::Packet p(h, net::encode_udp({kRegistrationPort, kRegistrationPort},
                                       bytes));
      node_.send_ip_on(*iface, std::move(p), net::kBroadcast);
    }
  }
}

}  // namespace mhrp::core
