#include "core/mobile_host.hpp"

#include <algorithm>

#include "core/encapsulation.hpp"

namespace mhrp::core {

using net::IpAddress;
using net::Packet;

sim::Time registration_backoff_delay(const MobileHostConfig& config,
                                     int attempt, util::Rng& rng) {
  const double cap = static_cast<double>(
      std::max(config.registration_retry_max, config.registration_retry));
  double delay = static_cast<double>(config.registration_retry);
  for (int i = 0; i < attempt && delay < cap; ++i) {
    delay *= std::max(config.backoff_factor, 1.0);
  }
  delay = std::min(delay, cap);
  if (config.retry_jitter > 0.0) {
    delay *= 1.0 + config.retry_jitter * (2.0 * rng.real() - 1.0);
  }
  return std::max<sim::Time>(1, static_cast<sim::Time>(delay));
}

MobileHost::MobileHost(sim::Executive& sim, std::string name,
                       IpAddress home_ip, int home_prefix_length,
                       MobileHostConfig config)
    : Host(sim, std::move(name)),
      config_(config),
      agent_lifetime_(sim, [this] { on_agent_lost(); },
                      sim::EventCategory::kRegistration),
      solicit_timer_(sim, config.solicit_period, [this] { solicit(); },
                     sim::EventCategory::kRegistration),
      cache_(config.cache_capacity),
      limiter_(config.update_min_interval),
      retry_rng_(config.retry_seed) {
  radio_ = &add_interface("wlan0", home_ip, home_prefix_length);
  join_multicast(net::kAllAgentsGroup);

  bind_udp(kRegistrationPort,
           [this](const net::UdpDatagram& d, const net::IpHeader& h,
                  net::Interface& i) { on_registration_udp(d, h, i); });
  set_protocol_handler(net::IpProto::kMhrp,
                       [this](Packet& p, net::Interface& i) {
                         on_mhrp_packet(p, i);
                       });
  add_icmp_handler([this](const net::IcmpMessage& msg,
                          const net::IpHeader& h, net::Interface& i) {
    return on_icmp_msg(msg, h, i);
  });
  if (config_.cache_agent) {
    // §4.1: a sending host functioning as a cache agent builds the MHRP
    // header itself (list empty, 8 octets).
    add_egress_hook([this](Packet& p) {
      if (is_mhrp(p)) return;
      const IpAddress dst = p.header().dst;
      if (dst.is_broadcast() || dst.is_multicast() || owns_address(dst)) {
        return;
      }
      if (auto fa = cache_.lookup(dst)) {
        encapsulate(p, *fa, home_address());
      }
    });
  }
}

// ---- Movement ----

void MobileHost::attach_to(net::Link& link) {
  ++stats_.moves;
  // Implicit disconnect: whatever we were attached to is simply gone.
  if (radio_->attached()) radio_->link()->detach(*radio_);
  arp_table(*radio_).clear();  // new segment, old neighbors meaningless
  if (current_agent_ != net::kUnspecified &&
      current_agent_ != config_.home_agent) {
    old_foreign_agent_ = current_agent_;
  }
  current_agent_ = net::kUnspecified;
  link.attach(*radio_);
  on_attached();
  start_discovery();
}

void MobileHost::detach() {
  if (radio_->attached()) radio_->link()->detach(*radio_);
  if (current_agent_ != net::kUnspecified &&
      current_agent_ != config_.home_agent) {
    old_foreign_agent_ = current_agent_;
  }
  current_agent_ = net::kUnspecified;
  state_ = State::kDetached;
  agent_lifetime_.cancel();
  solicit_timer_.stop();
  outstanding_.clear();
}

void MobileHost::disconnect_gracefully() {
  // §3: "it first notifies its home agent, and then notifies its old
  // foreign agent from which it is disconnecting."
  ++sequence_;
  // kBroadcast is MhrpAgent::kDetachedSentinel — "I am going offline".
  send_registration(RegKind::kHomeRegister, config_.home_agent,
                    net::kBroadcast, /*direct=*/false);
  if (current_agent_ != net::kUnspecified &&
      current_agent_ != config_.home_agent) {
    send_registration(RegKind::kDisconnect, current_agent_, net::kUnspecified,
                      /*direct=*/true);
    old_foreign_agent_ = net::kUnspecified;  // notified now
  }
  // Give the notifications (and retransmissions) a moment, then go dark.
  (void)sim().after(config_.registration_retry * config_.registration_attempts,
              [this] { detach(); });
}

// ---- Discovery (§3) ----

void MobileHost::start_discovery() {
  state_ = State::kDiscovering;
  // §3: a mobile host "may wait to hear the next periodic advertisement
  // message, or may optionally multicast an agent solicitation". With
  // soliciting disabled, discovery is entirely passive.
  if (config_.solicit_on_attach) {
    solicit();
    solicit_timer_.start();
  }
}

void MobileHost::solicit() {
  if (!radio_->attached()) return;
  ++stats_.solicitations_sent;
  send_icmp_on(*radio_, net::kAllAgentsGroup, net::IcmpAgentSolicitation{});
}

void MobileHost::on_advertisement(const net::IcmpAgentAdvertisement& adv) {
  ++stats_.advertisements_heard;
  // Refresh liveness for the agent we are registered with.
  const sim::Time lifetime = sim::seconds(adv.lifetime_s);
  if (adv.agent == current_agent_ &&
      (state_ == State::kHome || state_ == State::kForeign)) {
    agent_lifetime_.arm(lifetime);
    return;
  }
  if (state_ != State::kDiscovering) return;
  solicit_timer_.stop();
  agent_lifetime_.arm(lifetime);

  if (adv.agent == config_.home_agent) {
    // "Mobile hosts realize that they have returned to their home network
    // when they hear an advertisement from their own home agent" (§3).
    register_at_home();
  } else if (adv.offers_foreign_agent) {
    register_with_foreign_agent(adv.agent);
  }
}

void MobileHost::on_agent_lost() {
  // The agent's advertisements stopped before their lifetime ran out:
  // we have moved out of range (implicit disconnect) or the agent died.
  if (current_agent_ != net::kUnspecified &&
      current_agent_ != config_.home_agent) {
    old_foreign_agent_ = current_agent_;
  }
  current_agent_ = net::kUnspecified;
  if (radio_->attached()) {
    start_discovery();
  } else {
    state_ = State::kDetached;
  }
}

// ---- Registration (§3 ordering) ----

void MobileHost::register_with_foreign_agent(IpAddress fa) {
  state_ = State::kRegistering;
  pending_agent_ = fa;
  ++sequence_;
  // New FA first; HA and old FA follow once the FA acknowledges.
  send_registration(RegKind::kConnect, fa, net::kUnspecified, /*direct=*/true);
}

void MobileHost::register_at_home() {
  state_ = State::kRegistering;
  pending_agent_ = config_.home_agent;
  ++sequence_;
  // §2/§3: reclaim our link-layer identity from the home agent's proxy.
  send_gratuitous_arp(*radio_, home_address(), radio_->mac());
  install_default_route(config_.home_agent);
  // "The mobile host registers a special foreign agent address of zero
  // with its home agent when reconnecting to its home network" (§3).
  // The old FA is notified after the home agent acknowledges: §3 orders
  // the home agent strictly before the old foreign agent, and that
  // ordering matters — a Disconnect processed while the home agent still
  // holds the old binding lets in-flight packets bounce HA→old-FA with a
  // stale location update that would resurrect the deleted visitor entry
  // through the §5.2 recovery path.
  send_registration(RegKind::kHomeRegister, config_.home_agent,
                    net::kUnspecified, /*direct=*/true);
}

void MobileHost::complete_home_registration() {
  // Runs when the new FA acked the Connect: now notify the home agent.
  // The old FA follows once the home agent acknowledges (see
  // register_at_home for why the §3 ordering is strict).
  install_default_route(pending_agent_);
  send_registration(RegKind::kHomeRegister, config_.home_agent,
                    pending_agent_, /*direct=*/false);
}

void MobileHost::notify_old_foreign_agent(IpAddress new_fa) {
  send_registration(RegKind::kDisconnect, old_foreign_agent_, new_fa,
                    /*direct=*/false);
  old_foreign_agent_ = net::kUnspecified;
}

void MobileHost::install_default_route(IpAddress via) {
  routing_table().install({net::Prefix(net::kUnspecified, 0), via, radio_, 1,
                           routing::RouteKind::kStatic});
  // The connected route for the home prefix must not shadow the default
  // while the host is away: the home subnet is NOT on-link at a foreign
  // network (the home agent itself is reached through the tunnel/agent).
  if (via == config_.home_agent ||
      radio_->prefix().contains(via)) {
    // At home (or the agent is genuinely on our home subnet): restore
    // normal on-link delivery.
    routing_table().install({radio_->prefix(), net::kUnspecified, radio_, 0,
                             routing::RouteKind::kConnected});
  } else {
    routing_table().remove(radio_->prefix());
  }
}

void MobileHost::send_registration(RegKind kind, IpAddress dst,
                                   IpAddress foreign_agent, bool direct) {
  RegMessage m{kind, home_address(), foreign_agent, sequence_};
  Outstanding out;
  out.message = m;
  out.dst = dst;
  out.direct = direct;
  out.started = sim().now();
  out.timer = std::make_unique<sim::OneShotTimer>(
      sim(),
      [this, kind] {
    auto it = outstanding_.find(kind);
    if (it == outstanding_.end()) return;
    Outstanding& o = it->second;
    if (++o.attempts >= config_.registration_attempts) {
      // Give up; discovery will retry on the next advertisement.
      ++stats_.registrations_abandoned;
      outstanding_.erase(it);
      return;
    }
    ++stats_.registration_retransmits;
    if (trace_ != nullptr) {
      trace_->instant(telemetry::TraceCategory::kProtocol, "reg.retry",
                      sim().now(), "attempt", o.attempts);
    }
    auto bytes = o.message.encode();
    if (o.direct) {
      net::IpHeader h;
      h.protocol = net::to_u8(net::IpProto::kUdp);
      h.src = home_address();
      h.dst = o.dst;
      Packet p(h, net::encode_udp({kRegistrationPort, kRegistrationPort},
                                  bytes));
      send_ip_on(*radio_, std::move(p), o.dst);
    } else {
      send_udp(o.dst, kRegistrationPort, kRegistrationPort, bytes);
    }
    o.timer->arm(registration_backoff_delay(config_, o.attempts, retry_rng_));
      },
      sim::EventCategory::kRegistration);
  out.timer->arm(registration_backoff_delay(config_, 0, retry_rng_));

  auto bytes = m.encode();
  if (direct) {
    net::IpHeader h;
    h.protocol = net::to_u8(net::IpProto::kUdp);
    h.src = home_address();
    h.dst = dst;
    Packet p(h, net::encode_udp({kRegistrationPort, kRegistrationPort},
                                bytes));
    send_ip_on(*radio_, std::move(p), dst);
  } else {
    send_udp(dst, kRegistrationPort, kRegistrationPort, bytes);
  }
  outstanding_[kind] = std::move(out);
}

void MobileHost::on_registration_udp(const net::UdpDatagram& datagram,
                                     const net::IpHeader& header,
                                     net::Interface& iface) {
  (void)iface;
  RegMessage m;
  try {
    m = RegMessage::decode(datagram.data);
  } catch (const util::CodecError&) {
    return;
  }

  if (m.kind == RegKind::kReconnectQuery) {
    // A rebooted foreign agent asks visitors to re-register (§5.2).
    if (header.src == current_agent_ && state_ == State::kForeign) {
      register_with_foreign_agent(current_agent_);
    }
    return;
  }

  // Acks: match the outstanding request of the corresponding kind.
  RegKind request_kind;
  switch (m.kind) {
    case RegKind::kConnectAck:
      request_kind = RegKind::kConnect;
      break;
    case RegKind::kHomeRegisterAck:
      request_kind = RegKind::kHomeRegister;
      break;
    case RegKind::kDisconnectAck:
      request_kind = RegKind::kDisconnect;
      break;
    default:
      return;
  }
  auto it = outstanding_.find(request_kind);
  if (it == outstanding_.end() || it->second.message.sequence != m.sequence) {
    return;
  }
  if (trace_ != nullptr) {
    const char* span_name = "reg.roundtrip";
    switch (request_kind) {
      case RegKind::kConnect:
        span_name = "reg.connect";
        break;
      case RegKind::kHomeRegister:
        span_name = "reg.home_register";
        break;
      case RegKind::kDisconnect:
        span_name = "reg.disconnect";
        break;
      default:
        break;
    }
    trace_->span(telemetry::TraceCategory::kProtocol, span_name,
                 it->second.started, sim().now(), "attempts",
                 it->second.attempts + 1);
  }
  outstanding_.erase(it);

  switch (m.kind) {
    case RegKind::kConnectAck:
      complete_home_registration();
      break;
    case RegKind::kHomeRegisterAck: {
      current_agent_ = pending_agent_;
      state_ = (current_agent_ == config_.home_agent) ? State::kHome
                                                      : State::kForeign;
      // §3: the old foreign agent is notified last, after the home agent
      // has the new binding. Reconnecting to the same agent (a bounce
      // back into the same cell) needs no disconnect — it would erase
      // the registration just made.
      if (old_foreign_agent_ == current_agent_) {
        old_foreign_agent_ = net::kUnspecified;
      } else if (!old_foreign_agent_.is_unspecified()) {
        notify_old_foreign_agent(state_ == State::kHome ? net::kUnspecified
                                                        : current_agent_);
      }
      ++stats_.registrations_completed;
      on_registered();
      break;
    }
    case RegKind::kDisconnectAck:
      break;
    default:
      break;
  }
}

// ---- Receiving tunneled packets ----

void MobileHost::on_mhrp_packet(Packet& packet, net::Interface& iface) {
  (void)iface;
  // A tunnel terminating at this host: either we are at home and an old
  // foreign agent tunneled to our home address (§6.3), or we serve as
  // our own foreign agent (§2).
  MhrpHeader h;
  try {
    h = read_mhrp_header(packet);
  } catch (const util::CodecError&) {
    return;
  }
  if (h.mobile_host != home_address()) return;  // not for us
  ++stats_.tunneled_received;

  const IpAddress tunnel_head = packet.header().src;
  decapsulate(packet);

  // Tell everyone who handled the packet where we really are (§6.3: at
  // home, "indicating that S's cache entry for M should be deleted").
  for (IpAddress member : h.previous_sources) report_own_location(member);
  report_own_location(tunnel_head);

  // Re-inject the reconstructed original packet into our own stack.
  send_ip(std::move(packet));
}

void MobileHost::report_own_location(IpAddress dst) {
  if (dst.is_unspecified() || owns_address(dst)) return;
  if (!limiter_.allow(dst, sim().now())) return;
  net::IcmpLocationUpdate update;
  update.mobile_host = home_address();
  // At home → zero (delete the entry); as own FA → the temp address.
  update.foreign_agent =
      (state_ == State::kForeign && !self_agent_addr_.is_unspecified())
          ? self_agent_addr_
          : net::kUnspecified;
  ++stats_.updates_sent;
  send_icmp(dst, update);
}

bool MobileHost::on_icmp_msg(const net::IcmpMessage& msg,
                             const net::IpHeader& header,
                             net::Interface& iface) {
  (void)header;
  (void)iface;
  if (const auto* adv = std::get_if<net::IcmpAgentAdvertisement>(&msg)) {
    on_advertisement(*adv);
    return true;
  }
  if (const auto* update = std::get_if<net::IcmpLocationUpdate>(&msg)) {
    if (config_.cache_agent) {
      if (update->invalidate || update->foreign_agent.is_unspecified()) {
        cache_.invalidate(update->mobile_host);
      } else {
        cache_.update(update->mobile_host, update->foreign_agent);
      }
    }
    return true;
  }
  return false;
}

// ---- Own foreign agent (§2, optional) ----

void MobileHost::enable_self_agent(IpAddress temp_addr,
                                   IpAddress local_router) {
  self_agent_addr_ = temp_addr;
  add_address_alias(temp_addr);
  state_ = State::kRegistering;
  pending_agent_ = temp_addr;
  ++sequence_;
  // No foreign agent exists here; route via the visited network's router.
  install_default_route(local_router);
  // Register the temporary address as our "foreign agent" (§2: packets
  // are tunneled to it exactly as to any other FA).
  send_registration(RegKind::kHomeRegister, config_.home_agent, temp_addr,
                    /*direct=*/false);
}

void MobileHost::disable_self_agent() {
  if (self_agent_addr_.is_unspecified()) return;
  remove_address_alias(self_agent_addr_);
  self_agent_addr_ = net::kUnspecified;
}

}  // namespace mhrp::core
