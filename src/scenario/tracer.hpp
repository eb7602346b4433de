// Human-readable protocol tracing: attach to a Topology and every
// delivery and forwarding event prints one line — time, node, protocol,
// addresses, and (for MHRP packets) the tunnel header's mobile host and
// previous-source list. The examples enable it with MHRP_TRACE=1.
//
// The tracer subscribes to the nodes' observer hooks, so it coexists
// with any FlowRecorder, and destroying it detaches it from every node.
#pragma once

#include <iosfwd>
#include <vector>

#include "scenario/topology.hpp"
#include "util/hooks.hpp"

namespace mhrp::scenario {

class Tracer {
 public:
  /// Attach to every node currently in the topology, writing to `out`
  /// (defaults to std::clog). Nodes added to the topology later are
  /// attached too, via the topology's node-added hook, so construction
  /// order no longer silently leaves late nodes untraced.
  ///
  /// Throws std::logic_error when the topology has more than one shard:
  /// worker threads would interleave the output stream. Run the
  /// scenario with shards == 1 to trace it (DESIGN.md §13); the
  /// event-loop profiler has the same restriction
  /// (ShardedExecutive::set_profiler).
  explicit Tracer(Topology& topo, std::ostream* out = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when the MHRP_TRACE environment variable asks for tracing.
  static bool enabled_by_env();

  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  void attach(node::Node& node);
  void print(const char* verb, const node::Node& node,
             const net::Packet& packet);

  Topology& topo_;
  std::ostream* out_;
  std::uint64_t events_ = 0;
  std::vector<util::Subscription> subscriptions_;
};

}  // namespace mhrp::scenario
