// MetricRegistry: a named, sorted catalogue of Counters, Gauges, Histograms
// and read-on-snapshot probes. Components register instruments once at
// wiring time and hold raw pointers — the registry owns the storage
// (std::map gives pointer stability) and never invalidates them.
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

#include "telemetry/metric.hpp"

namespace mhrp::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kProbe };

/// Point-in-time copy of every registered instrument, sorted by name.
/// All exporters (text digest, JSON, CSV) render from the same snapshot so
/// the three formats can never disagree.
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
    MetricKind kind = MetricKind::kCounter;
    std::variant<std::uint64_t, double, HistogramStats> value;
  };

  std::vector<Entry> entries;  // sorted by name

  /// Deterministic line-per-metric rendering, suitable for replay digests.
  [[nodiscard]] std::string to_text() const;
  /// Strict JSON object keyed by metric name. Throws NonFiniteJsonError if
  /// any value is non-finite.
  [[nodiscard]] std::string to_json() const;
  /// "name,kind,field,value" rows with a header, one row per scalar.
  [[nodiscard]] std::string to_csv() const;

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

  /// Each getter creates the instrument on first use and returns the same
  /// object for the same name thereafter. Registering a name as two
  /// different kinds is a programming error and throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Register (or replace) a probe evaluated at snapshot time.
  void probe(std::string_view name, Probe fn);
  /// Register a histogram rebuilt at every snapshot by recording fn()'s
  /// values in order — for a series whose canonical order exists only
  /// once it is merged (ScaleWorld's per-shard lanes).
  void histogram_probe(std::string_view name, SeriesProbe fn);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Instrument {
    MetricKind kind;
    // Stable-address storage for the instrument itself. A kHistogram
    // holds a Histogram or a SeriesProbe.
    std::variant<Counter, Gauge, Histogram, Probe, SeriesProbe> storage;
  };

  std::map<std::string, Instrument, std::less<>> entries_;
};

}  // namespace mhrp::telemetry
