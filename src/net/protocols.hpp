// IP protocol numbers used across the reproduction. Real IANA numbers are
// used where they exist; the experimental protocols take numbers from the
// historical experimentation range.
#pragma once

#include <cstdint>

namespace mhrp::net {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kIpInIp = 4,   // Columbia IPIP tunneling (baseline, paper §7)
  kTcp = 6,
  kUdp = 17,
  kMhrp = 99,    // the paper's encapsulation protocol (§4.1)
  kVip = 98,     // Sony Virtual IP (baseline, §7)
  kIptp = 97,    // Matsushita Internet Packet Transmission Protocol (§7)
};

constexpr std::uint8_t to_u8(IpProto p) { return static_cast<std::uint8_t>(p); }

}  // namespace mhrp::net
