// The MHRP protocol knobs every scenario world exposes, factored into
// one struct so Figure1Options, MhrpWorldOptions and ScaleWorldOptions
// cannot drift: each embeds a ProtocolOptions, and MhrpDeployment feeds
// it into every AgentConfig and MobileHostConfig. Topology shape,
// population, and workload stay in the per-world option structs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "routing/dv/dv_options.hpp"
#include "sim/time.hpp"
#include "store/store_options.hpp"

namespace mhrp::scenario {

struct ProtocolOptions {
  /// §3: period of the agents' multicast advertisement messages.
  sim::Time advertisement_period = sim::seconds(1);
  /// §4.3 rate limit on location-update messages per (target, binding).
  sim::Time update_min_interval = sim::millis(100);
  /// §4.4 previous-source list cap (entries) before the overflow flush.
  std::size_t max_list_length = 8;
  /// §5.2: foreign agents keep forwarding pointers after a host departs.
  bool forwarding_pointers = true;
  /// §5.2 options on the foreign agents: verify a recovery location
  /// update with an ARP query before re-adding the visitor, and broadcast
  /// a re-register query after a reboot.
  bool fa_verify_recovery_with_arp = false;
  bool fa_reregister_broadcast_on_reboot = false;
  /// Octets of the offending datagram quoted in ICMP errors (§4.5 cares
  /// that the quote reaches the original sender through the tunnel).
  std::size_t icmp_quote_limit = 28;
  /// Master seed: topology construction order, movement, workload.
  std::uint64_t seed = 1;
  /// §2 durable home-agent database (src/store). Disabled by default:
  /// the legacy model keeps the database in memory across reboots.
  /// Enabling it gives every home agent a SimDisk-backed WAL whose sync
  /// policy decides when registration acks may leave.
  store::StoreOptions store;
  /// Intra-domain routing plane. kStatic (default) installs converged
  /// shortest paths once at build time; kDv runs a routing::dv::DvProcess
  /// on every router (static routes stay installed as the fallback tier,
  /// so forwarding works while DV converges — and reconverges after a
  /// fault instead of blackholing).
  routing::dv::Mode routing = routing::dv::Mode::kStatic;
  /// Timer/behavior knobs for the DV plane (ignored under kStatic).
  routing::dv::DvOptions dv;
};

}  // namespace mhrp::scenario
