// Workload generators for the experiments: constant-bit-rate UDP flows
// (the streaming correspondent of bench_handoff / bench_cache_convergence)
// and movement schedules that walk a mobile host through a sequence of
// cells (random-waypoint-over-networks, paper §3's continuously moving
// host).
#pragma once

#include <vector>

#include "core/mobile_host.hpp"
#include "node/host.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace mhrp::scenario {

/// Sends fixed-size UDP datagrams at a fixed interval from `src` to
/// `dst`. Packets are tagged with a flow id so FlowRecorder can match
/// deliveries to sends.
class CbrFlow {
 public:
  CbrFlow(node::Host& src, net::IpAddress dst, std::uint16_t dst_port,
          std::size_t payload_size, sim::Time interval);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t flow_id() const { return flow_id_; }

 private:
  void tick();

  node::Host& src_;
  net::IpAddress dst_;
  std::uint16_t dst_port_;
  std::vector<std::uint8_t> payload_;
  sim::PeriodicTimer timer_;
  std::uint64_t sent_ = 0;
  std::uint64_t flow_id_;
};

/// Walks a mobile host through `cells` — each dwell drawn exponentially
/// around `mean_dwell` (deterministic given the topology seed). Visits
/// round-robin or uniformly at random.
class MovementSchedule {
 public:
  MovementSchedule(core::MobileHost& host, std::vector<net::Link*> cells,
                   sim::Time mean_dwell, util::Rng rng,
                   bool random_order = true);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t moves() const { return moves_; }

 private:
  void move_next();

  core::MobileHost& host_;
  std::vector<net::Link*> cells_;
  sim::Time mean_dwell_;
  util::Rng rng_;
  bool random_order_;
  std::size_t cursor_ = 0;
  std::uint64_t moves_ = 0;
  sim::OneShotTimer timer_;
};

}  // namespace mhrp::scenario
