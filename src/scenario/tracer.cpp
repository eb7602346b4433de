#include "scenario/tracer.hpp"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/encapsulation.hpp"
#include "net/icmp.hpp"

namespace mhrp::scenario {

namespace {

const char* proto_name(std::uint8_t proto) {
  switch (static_cast<net::IpProto>(proto)) {
    case net::IpProto::kIcmp:
      return "ICMP";
    case net::IpProto::kIpInIp:
      return "IPIP";
    case net::IpProto::kTcp:
      return "TCP";
    case net::IpProto::kUdp:
      return "UDP";
    case net::IpProto::kMhrp:
      return "MHRP";
    case net::IpProto::kVip:
      return "VIP";
    case net::IpProto::kIptp:
      return "IPTP";
  }
  return "?";
}

std::string describe(const net::Packet& packet) {
  std::ostringstream os;
  os << proto_name(packet.header().protocol) << " "
     << packet.header().src.to_string() << " -> "
     << packet.header().dst.to_string() << " (" << packet.wire_size()
     << "B, ttl " << int(packet.header().ttl) << ")";
  if (core::is_mhrp(packet)) {
    try {
      core::MhrpHeader h = core::read_mhrp_header(packet);
      os << " [tunnel for " << h.mobile_host.to_string() << ", orig proto "
         << proto_name(h.orig_protocol) << ", list";
      if (h.previous_sources.empty()) {
        os << " empty";
      } else {
        for (net::IpAddress a : h.previous_sources) {
          os << ' ' << a.to_string();
        }
      }
      os << ']';
    } catch (const util::CodecError&) {
      os << " [corrupt MHRP header]";
    }
  } else if (packet.header().protocol == net::to_u8(net::IpProto::kIcmp)) {
    try {
      auto msg = net::decode_icmp(packet.payload());
      if (const auto* u = std::get_if<net::IcmpLocationUpdate>(&msg)) {
        os << " [location update: " << u->mobile_host.to_string() << " @ "
           << (u->invalidate ? std::string("invalidate")
                             : u->foreign_agent.to_string())
           << ']';
      } else if (std::holds_alternative<net::IcmpAgentAdvertisement>(msg)) {
        os << " [agent advertisement]";
      } else if (std::holds_alternative<net::IcmpUnreachable>(msg)) {
        os << " [unreachable]";
      }
    } catch (const util::CodecError&) {
    }
  }
  return os.str();
}

}  // namespace

Tracer::Tracer(Topology& topo, std::ostream* out)
    : topo_(topo), out_(out != nullptr ? out : &std::clog) {
  // Fail fast instead of interleaving: the tracer writes one stream from
  // every node's hooks, which with more than one shard would be written
  // concurrently by several workers (garbled lines, nondeterministic
  // order). Same policy as ShardedExecutive::set_profiler.
  if (topo_.shard_count() > 1) {
    throw std::logic_error(
        "Tracer: tracing requires a one-shard world; "
        "rerun the scenario with shards == 1 to trace it (DESIGN.md §13)");
  }
  for (const auto& node : topo_.nodes()) attach(*node);
  // Nodes created after the tracer must be covered too.
  subscriptions_.push_back(
      topo_.on_node_added.add([this](node::Node& node) { attach(node); }));
}

bool Tracer::enabled_by_env() {
  const char* value = std::getenv("MHRP_TRACE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

void Tracer::attach(node::Node& node) {
  subscriptions_.push_back(node.on_deliver_hook.add(
      [this, &node](const net::Packet& p) { print("recv", node, p); }));
  subscriptions_.push_back(node.on_forward_hook.add(
      [this, &node](const net::Packet& p, net::Interface&) {
        print("fwd ", node, p);
      }));
}

void Tracer::print(const char* verb, const node::Node& node,
                   const net::Packet& packet) {
  // Skip the periodic advertisement chatter unless it is the story.
  ++events_;
  (*out_) << std::fixed << std::setprecision(4)
          << sim::to_seconds(topo_.sim().now()) << "s  " << verb << "  "
          << std::setw(12) << std::left << node.name() << ' '
          << describe(packet) << '\n';
}

}  // namespace mhrp::scenario
