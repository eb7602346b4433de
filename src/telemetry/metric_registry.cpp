#include "telemetry/metric_registry.hpp"

#include <sstream>
#include <stdexcept>

#include "telemetry/json_writer.hpp"
#include "telemetry/metric.hpp"

namespace mhrp::telemetry {

namespace {

const char* kind_name(MetricKind kind) {
  return kind == MetricKind::kHistogram ? "histogram" : "probe";
}

std::logic_error already_registered(std::string_view name) {
  return std::logic_error("metric '" + std::string(name) +
                          "' already registered");
}

}  // namespace

void MetricRegistry::histogram_probe(std::string_view name, SeriesProbe fn) {
  if (!entries_.emplace(std::string(name), std::move(fn)).second) {
    throw already_registered(name);
  }
}

void MetricRegistry::probe(std::string_view name, Probe fn) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    entries_.emplace(std::string(name), std::move(fn));
  } else if (std::holds_alternative<Probe>(it->second)) {
    it->second = std::move(fn);
  } else {
    throw already_registered(name);
  }
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(entries_.size());
  for (const auto& [name, instrument] : entries_) {
    MetricsSnapshot::Entry entry;
    entry.name = name;
    if (const Probe* probe = std::get_if<Probe>(&instrument)) {
      entry.kind = MetricKind::kProbe;
      entry.value = (*probe)();
    } else {
      Histogram h;
      for (double v : std::get<SeriesProbe>(instrument)()) h.record(v);
      MetricsSnapshot::HistogramStats stats;
      stats.count = h.count();
      stats.sum = h.sum();
      stats.min = h.min();
      stats.max = h.max();
      stats.mean = h.mean();
      stats.p50 = h.quantile(0.50);
      stats.p90 = h.quantile(0.90);
      stats.p99 = h.quantile(0.99);
      entry.kind = MetricKind::kHistogram;
      entry.value = stats;
    }
    snap.entries.push_back(std::move(entry));
  }
  return snap;  // std::map iteration order is already name-sorted
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream out;
  for (const Entry& e : entries) {
    out << e.name << ' ' << kind_name(e.kind) << ' ';
    switch (e.kind) {
      case MetricKind::kProbe:
        out << JsonWriter::format_number(std::get<double>(e.value));
        break;
      case MetricKind::kHistogram: {
        const auto& h = std::get<HistogramStats>(e.value);
        out << "count=" << h.count
            << " sum=" << JsonWriter::format_number(h.sum)
            << " min=" << JsonWriter::format_number(h.min)
            << " max=" << JsonWriter::format_number(h.max)
            << " mean=" << JsonWriter::format_number(h.mean)
            << " p50=" << JsonWriter::format_number(h.p50)
            << " p90=" << JsonWriter::format_number(h.p90)
            << " p99=" << JsonWriter::format_number(h.p99);
        break;
      }
    }
    out << '\n';
  }
  return out.str();
}

void MetricsSnapshot::write_json(JsonWriter& json) const {
  json.begin_object();
  for (const Entry& e : entries) {
    json.key(e.name);
    json.begin_object();
    json.key("kind");
    json.value(kind_name(e.kind));
    switch (e.kind) {
      case MetricKind::kProbe:
        json.key("value");
        json.value(std::get<double>(e.value));
        break;
      case MetricKind::kHistogram: {
        const auto& h = std::get<HistogramStats>(e.value);
        json.key("count");
        json.value(h.count);
        json.key("sum");
        json.value(h.sum);
        json.key("min");
        json.value(h.min);
        json.key("max");
        json.value(h.max);
        json.key("mean");
        json.value(h.mean);
        json.key("p50");
        json.value(h.p50);
        json.key("p90");
        json.value(h.p90);
        json.key("p99");
        json.value(h.p99);
        break;
      }
    }
    json.end_object();
  }
  json.end_object();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("mhrp.metrics.v1");
  json.key("metrics");
  write_json(json);
  json.end_object();
  return out.str();
}

}  // namespace mhrp::telemetry
