#include "scenario/workload.hpp"

#include "net/udp.hpp"

namespace mhrp::scenario {

namespace {
std::uint64_t next_flow_id() {
  static std::uint64_t counter = 0;
  return ++counter;
}
}  // namespace

CbrFlow::CbrFlow(node::Host& src, net::IpAddress dst, std::uint16_t dst_port,
                 std::size_t payload_size, sim::Time interval)
    : src_(src),
      dst_(dst),
      dst_port_(dst_port),
      payload_(payload_size, 0x42),
      timer_(src.sim(), interval, [this] { tick(); },
             sim::EventCategory::kWorkload),
      flow_id_(next_flow_id()) {}

void CbrFlow::start() {
  tick();
  timer_.start();
}

void CbrFlow::stop() { timer_.stop(); }

void CbrFlow::tick() {
  ++sent_;
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.dst = dst_;
  net::Packet p(h, net::encode_udp({40000, dst_port_}, payload_));
  p.set_base_payload_size(p.payload().size());
  p.set_flow_id(flow_id_);
  src_.send_ip(std::move(p));
}

MovementSchedule::MovementSchedule(core::MobileHost& host,
                                   std::vector<net::Link*> cells,
                                   sim::Time mean_dwell, util::Rng rng,
                                   bool random_order)
    : host_(host),
      cells_(std::move(cells)),
      mean_dwell_(mean_dwell),
      rng_(rng),
      random_order_(random_order),
      timer_(host.sim(), [this] { move_next(); },
             sim::EventCategory::kMovement) {}

void MovementSchedule::start() { move_next(); }

void MovementSchedule::stop() { timer_.cancel(); }

void MovementSchedule::move_next() {
  if (cells_.empty()) return;
  net::Link* next = nullptr;
  if (random_order_ && cells_.size() > 1) {
    // Pick a cell other than the current one.
    do {
      next = cells_[rng_.index(cells_.size())];
    } while (next == host_.radio().link());
  } else {
    next = cells_[cursor_++ % cells_.size()];
  }
  ++moves_;
  host_.attach_to(*next);
  timer_.arm(sim::from_seconds(rng_.exponential(sim::to_seconds(mean_dwell_))));
}

}  // namespace mhrp::scenario
