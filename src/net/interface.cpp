#include "net/interface.hpp"

#include "net/link.hpp"

namespace mhrp::net {

namespace {
MacAddress next_mac() {
  static std::uint64_t counter = 0;
  // Locally administered unicast OUI 02:00:00.
  return MacAddress(0x020000000000ull | ++counter);
}
}  // namespace

Interface::Interface(FrameSink& sink, std::string name)
    : sink_(sink), name_(std::move(name)), mac_(next_mac()) {}

Interface::~Interface() {
  if (link_ != nullptr) link_->detach(*this);
}

void Interface::send(Frame&& frame) {
  if (link_ != nullptr) link_->transmit(*this, std::move(frame));
}

}  // namespace mhrp::net
