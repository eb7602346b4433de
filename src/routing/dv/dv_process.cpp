#include "routing/dv/dv_process.hpp"

#include <algorithm>

#include "util/byte_buffer.hpp"

namespace mhrp::routing::dv {

namespace {

// Update entry wire format (unchanged from the original node-level
// service, so captures stay comparable): prefix address (4), prefix
// length (1), metric (1).
constexpr std::size_t kEntrySize = 6;

/// How many advertisement rounds a withdrawn host route stays poisoned.
constexpr int kWithdrawRounds = 3;

/// Consecutive metric rises from the same next hop before a
/// counting-to-infinity episode is suspected.
constexpr int kRiseSuspicion = 3;

RouteKind kind_of(const net::Prefix& prefix) {
  return prefix.is_host_route() ? RouteKind::kHostSpecific
                                : RouteKind::kDynamic;
}

}  // namespace

DvProcess::DvProcess(node::Node& node, Options options,
                     std::uint64_t jitter_seed)
    : node_(node),
      options_(options),
      rng_(jitter_seed),
      periodic_(node.sim(),
                [this] {
                  ++stats_.periodic_rounds;
                  send_updates();
                  arm_periodic();
                },
                sim::EventCategory::kRouting),
      triggered_(node.sim(),
                 [this] {
                   ++stats_.triggered_updates;
                   send_updates();
                 },
                 sim::EventCategory::kRouting),
      sweep_(node.sim(), [this] { sweep(); }, sim::EventCategory::kRouting) {
  node_.bind_udp(kPort, [this](const net::UdpDatagram& d,
                               const net::IpHeader& h, net::Interface& i) {
    on_update(d, h, i);
  });
  node_state_ = node_.on_state_changed.add(
      [this](bool up) { handle_node_state(up); });
  link_state_ = node_.on_interface_state.add(
      [this](net::Interface& iface, bool up) {
        handle_link_state(iface, up);
      });
}

DvProcess::~DvProcess() {
  stop();
  node_.unbind_udp(kPort);
}

void DvProcess::start() {
  if (running_) return;
  running_ = true;
  // First advertisement after a triggered-sized jittered delay: a fleet
  // of routers started at t=0 floods initial tables quickly without
  // every message landing on the same instant.
  schedule_triggered();
  arm_periodic();
}

void DvProcess::stop() {
  running_ = false;
  periodic_.cancel();
  triggered_.cancel();
  sweep_.cancel();
}

void DvProcess::arm_periodic() {
  const auto period = options_.update_period;
  sim::Time band = static_cast<sim::Time>(
      static_cast<double>(period) * options_.periodic_jitter);
  band = std::min(band, period / 2);
  sim::Time delay = period;
  if (band > 0) {
    delay = period - band +
            static_cast<sim::Time>(
                rng_.uniform(0, static_cast<std::uint64_t>(2 * band)));
  }
  periodic_.arm(delay);
}

void DvProcess::schedule_triggered() {
  if (!running_ || triggered_.armed()) return;
  const auto lo = static_cast<std::uint64_t>(
      std::max<sim::Time>(options_.triggered_min, 0));
  const auto hi = static_cast<std::uint64_t>(
      std::max<sim::Time>(options_.triggered_max, options_.triggered_min));
  triggered_.arm(static_cast<sim::Time>(rng_.uniform(lo, hi)));
}

bool DvProcess::iface_up(const net::Interface& iface) const {
  return iface.attached() && iface.link()->is_up();
}

std::vector<std::uint8_t> DvProcess::encode_update(
    const net::Interface& out_iface) const {
  util::ByteWriter w;
  std::size_t count = 0;
  const std::size_t count_at = w.size();
  w.u16(0);  // patched below

  auto emit = [&](const net::Prefix& prefix, int metric) {
    w.u32(prefix.address().raw());
    w.u8(static_cast<std::uint8_t>(prefix.length()));
    w.u8(static_cast<std::uint8_t>(metric > kInfinity ? kInfinity : metric));
    ++count;
  };

  // Connected subnets, metric 0 at the origin; a subnet whose link is
  // down is poisoned so neighbors withdraw it now instead of waiting
  // out the timeout.
  for (const auto& iface : node_.interfaces()) {
    emit(iface->prefix(), iface_up(*iface) ? 0 : kInfinity);
  }
  // Locally originated host routes (paper §3 mechanism).
  for (net::IpAddress addr : host_routes_) {
    emit(net::Prefix::host(addr), 0);
  }
  // Poisoned host-route withdrawals.
  for (const auto& [addr, rounds] : withdrawing_) {
    emit(net::Prefix::host(addr), kInfinity);
  }
  // Learned routes: split horizon with poisoned reverse toward the
  // route's own interface; timed-out routes poison everywhere until
  // garbage collection deletes them.
  for (const auto& [prefix, entry] : routes_) {
    if (options_.split_horizon && entry.iface == &out_iface &&
        !entry.poisoned()) {
      if (options_.poisoned_reverse) emit(prefix, kInfinity);
      continue;
    }
    emit(prefix, entry.poisoned() ? kInfinity : entry.metric);
  }

  w.patch_u16(count_at, static_cast<std::uint16_t>(count));
  return w.take();
}

void DvProcess::send_updates() {
  for (auto it = withdrawing_.begin(); it != withdrawing_.end();) {
    if (--it->second <= 0) {
      it = withdrawing_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& iface : node_.interfaces()) {
    if (!iface_up(*iface)) continue;
    auto body = encode_update(*iface);
    node_.send_udp_broadcast(*iface, kPort, kPort, body);
    ++stats_.updates_sent;
  }
}

void DvProcess::install(const net::Prefix& prefix, const Entry& entry) {
  node_.routing_table().install(
      {prefix, entry.from, entry.iface, entry.metric, kind_of(prefix)});
}

void DvProcess::note_route_change(const net::Prefix& prefix, int metric) {
  ++stats_.route_changes;
  if (on_route_change) on_route_change(prefix, metric);
}

bool DvProcess::poison(const net::Prefix& prefix, Entry& entry) {
  if (entry.poisoned()) return false;
  entry.metric = kInfinity;
  entry.poisoned_at = node_.sim().now();
  entry.consecutive_rises = 0;
  (void)node_.routing_table().remove_route(prefix, kind_of(prefix));
  ++stats_.routes_withdrawn;
  note_route_change(prefix, kInfinity);
  arm_sweep();  // the GC deadline may now be the earliest
  return true;
}

void DvProcess::on_update(const net::UdpDatagram& datagram,
                          const net::IpHeader& header, net::Interface& iface) {
  if (node_.owns_address(header.src)) return;  // our own broadcast
  ++stats_.updates_received;
  util::ByteReader r(datagram.data);
  std::uint16_t count = 0;
  try {
    count = r.u16();
  } catch (const util::CodecError&) {
    ++stats_.malformed_updates;
    return;
  }
  const sim::Time now = node_.sim().now();
  bool changed = false;
  for (std::uint16_t i = 0; i < count; ++i) {
    net::Prefix prefix;
    int metric = 0;
    try {
      net::IpAddress addr(r.u32());
      int length = r.u8();
      metric = r.u8();
      if (length > 32) continue;
      prefix = net::Prefix(addr, length);
    } catch (const util::CodecError&) {
      ++stats_.malformed_updates;
      return;
    }
    const int candidate = std::min(metric + 1, kInfinity);

    // Never override our own connected subnets or originated routes.
    bool own = false;
    for (const auto& own_iface : node_.interfaces()) {
      if (own_iface->prefix() == prefix) own = true;
    }
    if (own || (prefix.is_host_route() &&
                host_routes_.contains(prefix.address()))) {
      continue;
    }

    auto it = routes_.find(prefix);
    if (it == routes_.end()) {
      if (candidate >= kInfinity) continue;  // poison for an unknown route
      Entry entry;
      entry.metric = candidate;
      entry.from = header.src;
      entry.iface = &iface;
      entry.heard_at = now;
      routes_.emplace(prefix, entry);
      install(prefix, entry);
      note_route_change(prefix, candidate);
      changed = true;
      continue;
    }

    Entry& entry = it->second;
    const bool from_current_next_hop = entry.from == header.src;
    if (!from_current_next_hop && candidate >= entry.metric) continue;

    if (candidate >= kInfinity) {
      // The next hop lost the route: withdraw and pass the poison on
      // (our own advertisements now carry metric 16 until GC).
      if (!entry.poisoned()) {
        ++stats_.poisons_received;
        changed |= poison(prefix, entry);
      }
      continue;
    }

    // Counting-to-infinity suspicion: the same next hop pushing the
    // metric up again and again is the classic mutual-deception loop.
    if (from_current_next_hop && !entry.poisoned() &&
        candidate > entry.metric) {
      if (++entry.consecutive_rises == kRiseSuspicion) {
        ++stats_.counting_to_infinity;
      }
    } else if (candidate < entry.metric) {
      entry.consecutive_rises = 0;
    }

    const bool route_changed = entry.metric != candidate ||
                               entry.from != header.src || entry.poisoned();
    entry.metric = candidate;
    entry.from = header.src;
    entry.iface = &iface;
    entry.heard_at = now;
    entry.poisoned_at = -1;
    if (route_changed) {
      install(prefix, entry);
      note_route_change(prefix, candidate);
      changed = true;
    }
  }
  if (!routes_.empty() && !sweep_.armed()) arm_sweep();
  if (changed) schedule_triggered();
}

void DvProcess::sweep() {
  const sim::Time now = node_.sim().now();
  bool changed = false;
  for (auto it = routes_.begin(); it != routes_.end();) {
    Entry& entry = it->second;
    if (!entry.poisoned() && now - entry.heard_at >= options_.route_timeout) {
      ++stats_.routes_expired;
      changed |= poison(it->first, entry);
      ++it;
    } else if (entry.poisoned() &&
               now - entry.poisoned_at >= options_.gc_delay) {
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  arm_sweep();
  if (changed) schedule_triggered();
}

void DvProcess::arm_sweep() {
  sim::Time next = -1;
  for (const auto& [prefix, entry] : routes_) {
    const sim::Time deadline = entry.poisoned()
                                   ? entry.poisoned_at + options_.gc_delay
                                   : entry.heard_at + options_.route_timeout;
    if (next < 0 || deadline < next) next = deadline;
  }
  if (next < 0) {
    sweep_.cancel();
    return;
  }
  const sim::Time now = node_.sim().now();
  sweep_.arm(next > now ? next - now : 0);
}

void DvProcess::advertise_host_route(net::IpAddress addr, bool enabled) {
  if (enabled) {
    host_routes_.insert(addr);
    withdrawing_.erase(addr);
    // If a peer's advertisement for this /32 was learned earlier, our
    // origination (metric 0) supersedes it.
    auto it = routes_.find(net::Prefix::host(addr));
    if (it != routes_.end()) {
      (void)node_.routing_table().remove_route(it->first,
                                               kind_of(it->first));
      routes_.erase(it);
    }
  } else if (host_routes_.erase(addr) > 0) {
    // Poison for a few rounds so neighbors flush immediately.
    withdrawing_[addr] = kWithdrawRounds;
  } else {
    return;
  }
  if (running_) {
    schedule_triggered();
  } else {
    send_updates();
  }
}

void DvProcess::handle_link_state(net::Interface& iface, bool up) {
  if (!up) {
    // Everything learned through the dead link is unreachable now; the
    // poison shows up in our next (triggered) update on the surviving
    // interfaces, and the static fallback tier takes over locally until
    // an alternate path is learned.
    for (auto& [prefix, entry] : routes_) {
      if (entry.iface == &iface) (void)poison(prefix, entry);
    }
  }
  // Either way the picture changed (a connected subnet came or went):
  // advertise soon. The neighbor on the other end of the link saw the
  // same transition and does the same.
  schedule_triggered();
}

void DvProcess::handle_node_state(bool up) {
  if (!up) return;
  // Reboot: a power cycle loses the process's RAM — learned routes,
  // originated host routes, poison bookkeeping. Withdraw what we had
  // installed (the static fallback tier resumes) and start over; the
  // agent layer re-originates host routes as bindings are rebuilt.
  for (auto& [prefix, entry] : routes_) {
    if (!entry.poisoned()) {
      (void)node_.routing_table().remove_route(prefix, kind_of(prefix));
    }
  }
  routes_.clear();
  host_routes_.clear();
  withdrawing_.clear();
  sweep_.cancel();
  if (running_) {
    triggered_.cancel();
    schedule_triggered();
    arm_periodic();
  }
}

}  // namespace mhrp::routing::dv
