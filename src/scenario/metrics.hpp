// Delivery metrics: attach a FlowRecorder to a receiving node and it
// tallies, per flow, how many packets arrived, their end-to-end latency,
// how many hops they took, and — the number every E1-style experiment
// reports — the per-packet mobility overhead in bytes, computed from the
// largest wire size the packet had on any link
// (max_wire_size - 20 - base_payload_size).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "node/node.hpp"
#include "util/hooks.hpp"

namespace mhrp::scenario {

/// Linear-interpolated percentile over an ALREADY-SORTED `values` (`p` in
/// [0, 100]). Empty input yields 0 — callers report the count alongside.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& values,
                                              double p) {
  if (values.empty()) return 0.0;
  const double rank =
      p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Linear-interpolated percentile over a copy of `values` (`p` in
/// [0, 100]). Empty input yields 0 — callers report the count alongside.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

/// The summary every recovery metric is reported as (E-chaos, §5.2).
struct PercentileSummary {
  std::uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

[[nodiscard]] inline PercentileSummary summarize(std::vector<double> values) {
  PercentileSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  // One sort, then the sorted-input fast path — the old code re-copied
  // and re-sorted inside each percentile() call (four sorts per summary).
  std::sort(values.begin(), values.end());
  s.max = values.back();
  s.p50 = percentile_sorted(values, 50);
  s.p90 = percentile_sorted(values, 90);
  s.p99 = percentile_sorted(values, 99);
  return s;
}

struct Distribution {
  std::uint64_t count = 0;
  double sum = 0;
  // Zero until the first sample: an empty distribution must never leak
  // +/-inf sentinels into digests or JSON exports.
  double min = 0;
  double max = 0;

  void add(double v) {
    ++count;
    if (count == 1) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct FlowStats {
  std::uint64_t received = 0;
  Distribution latency_s;
  Distribution hops;
  Distribution overhead_bytes;
};

class FlowRecorder {
 public:
  /// Start recording deliveries at `receiver`, alongside any other
  /// observer (a Tracer, another recorder). Destroying the recorder
  /// detaches it; it must not outlive `receiver`.
  explicit FlowRecorder(node::Node& receiver) {
    subscription_ = receiver.on_deliver_hook.add(
        [this, &receiver](const net::Packet& p) { record(receiver, p); });
  }
  FlowRecorder(const FlowRecorder&) = delete;
  FlowRecorder& operator=(const FlowRecorder&) = delete;

  [[nodiscard]] const FlowStats& flow(std::uint64_t flow_id) const {
    static const FlowStats kEmpty;
    auto it = flows_.find(flow_id);
    return it == flows_.end() ? kEmpty : it->second;
  }

  [[nodiscard]] const FlowStats& total() const { return total_; }

  /// Restrict recording to packets matching `predicate` (the default
  /// skips multicast/broadcast chatter such as agent advertisements).
  void set_filter(std::function<bool(const net::Packet&)> predicate) {
    filter_ = std::move(predicate);
  }

 private:
  void record(node::Node& receiver, const net::Packet& p) {
    if (filter_) {
      if (!filter_(p)) return;
    } else if (p.header().dst.is_multicast() ||
               p.header().dst.is_broadcast()) {
      return;
    }
    FlowStats* stats[] = {&total_, &flows_[p.flow_id()]};
    const double latency =
        sim::to_seconds(receiver.sim().now() - p.created_at());
    const double overhead =
        p.max_wire_size() > 20 + p.base_payload_size()
            ? static_cast<double>(p.max_wire_size() - 20 -
                                  p.base_payload_size())
            : 0.0;
    for (FlowStats* s : stats) {
      ++s->received;
      s->latency_s.add(latency);
      s->hops.add(p.hop_count());
      s->overhead_bytes.add(overhead);
    }
  }

  std::map<std::uint64_t, FlowStats> flows_;
  FlowStats total_;
  std::function<bool(const net::Packet&)> filter_;
  util::Subscription subscription_;
};

}  // namespace mhrp::scenario
