// MetricRegistry: a named, sorted catalogue of read-on-snapshot probes —
// scalar probes and histogram probes. Components register them once at
// wiring time; nothing is pushed on the hot path.
//
// Probes wrap the stats structs that already exist across the codebase
// (AgentStats, MobileHostStats, HomeStoreStats, FaultPlaneStats, Node
// counters): instead of double-counting on the hot path, a probe reads the
// authoritative field at snapshot time. This is what makes the registry
// safe for deterministic replay — every exported value is derived from
// protocol-observable state that exists whether or not telemetry is
// enabled.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mhrp::telemetry {

enum class MetricKind : std::uint8_t { kHistogram, kProbe };

/// Point-in-time copy of every registered instrument, sorted by name.
/// Both exporters (text digest, JSON) render from the same snapshot so
/// the two formats can never disagree.
struct MetricsSnapshot {
  struct HistogramStats {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };

  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kProbe;
    std::variant<double, HistogramStats> value;
  };

  std::vector<Entry> entries;  // sorted by name

  /// Deterministic line-per-metric rendering, suitable for replay digests.
  [[nodiscard]] std::string to_text() const;
  /// Strict JSON object keyed by metric name. Throws NonFiniteJsonError if
  /// any value is non-finite.
  [[nodiscard]] std::string to_json() const;

  /// Write just the metrics object ({"name": {...}, ...}) into an
  /// in-progress document — for exporters that wrap the snapshot in a
  /// larger schema (ScaleWorld::metrics_json).
  void write_json(class JsonWriter& json) const;
};

class MetricRegistry {
 public:
  using Probe = std::function<double()>;
  using SeriesProbe = std::function<std::vector<double>()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Register (or replace) a probe evaluated at snapshot time. A name
  /// already registered as a histogram probe throws.
  void probe(std::string_view name, Probe fn);
  /// Register a histogram rebuilt at every snapshot by recording fn()'s
  /// values in order — for a series whose canonical order exists only
  /// once it is merged (ScaleWorld's per-shard lanes). A name registered
  /// twice throws.
  void histogram_probe(std::string_view name, SeriesProbe fn);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  // A Probe (kind kProbe) or a SeriesProbe (kind kHistogram).
  using Instrument = std::variant<Probe, SeriesProbe>;

  std::map<std::string, Instrument, std::less<>> entries_;
};

}  // namespace mhrp::telemetry
