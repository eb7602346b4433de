// A network interface: the attachment point between a node and a link.
//
// Mobility is modeled faithfully at this layer: when a mobile host moves,
// its (wireless) interface detaches from one Link and attaches to another
// — nothing about its IP address changes, which is the whole point of the
// paper.
#pragma once

#include <cstdint>
#include <string>

#include "net/frame.hpp"
#include "net/ip_address.hpp"
#include "net/mac_address.hpp"

namespace mhrp::net {

class Link;

/// Receives frames delivered to an interface. Implemented by node::Node.
/// Frames travel a hop by rvalue reference: the sink may move the frame's
/// packet on, so a hop moves its datagram instead of copying it.
class FrameSink {
 public:
  virtual void on_frame(class Interface& iface, Frame&& frame) = 0;

  /// The attached link of `iface` transitioned up or down (fault plane).
  /// Default: ignore — carrier-sensing consumers (the DV routing
  /// process, via node::Node::on_interface_state) override the node's
  /// forwarding of this.
  virtual void on_link_state(class Interface& iface, bool up) {
    (void)iface;
    (void)up;
  }

 protected:
  ~FrameSink() = default;
};

class Interface {
 public:
  /// Creates an interface with a globally unique MAC address.
  Interface(FrameSink& sink, std::string name);

  Interface(const Interface&) = delete;
  Interface& operator=(const Interface&) = delete;
  ~Interface();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MacAddress mac() const { return mac_; }

  void configure(IpAddress ip, int prefix_length) {
    ip_ = ip;
    prefix_length_ = prefix_length;
  }

  [[nodiscard]] IpAddress ip() const { return ip_; }
  [[nodiscard]] Prefix prefix() const { return Prefix(ip_, prefix_length_); }
  [[nodiscard]] int prefix_length() const { return prefix_length_; }

  [[nodiscard]] Link* link() const { return link_; }
  [[nodiscard]] bool attached() const { return link_ != nullptr; }

  /// The executive shard of the owning node (0 with one shard). Links
  /// use this to decide whether a delivery is shard-local or must travel
  /// as a cross-shard message. Set by Node::add_interface.
  [[nodiscard]] std::uint32_t shard() const { return shard_; }
  void set_shard(std::uint32_t shard) { shard_ = shard; }

  /// Transmit a frame onto the attached link. Dropped silently when
  /// detached (a radio out of range of any cell).
  void send(Frame&& frame);

  /// Called by the link to hand a received frame to the owning node.
  void deliver(Frame&& frame) { sink_.on_frame(*this, std::move(frame)); }

  /// Called by the link (on this interface's shard) when its carrier
  /// changes; forwards to the owning node.
  void notify_link_state(bool up) { sink_.on_link_state(*this, up); }

 private:
  friend class Link;  // maintains link_ on attach/detach

  FrameSink& sink_;
  std::string name_;
  MacAddress mac_;
  IpAddress ip_;
  int prefix_length_ = 24;
  Link* link_ = nullptr;
  std::uint32_t shard_ = 0;
};

}  // namespace mhrp::net
