// The telemetry subsystem: strict JSON writing, log-scale histograms,
// the metric registry and its exporters, the trace collector's Chrome-
// tracing output, the event-loop profiler's per-category attribution,
// and — the property everything above hangs on — snapshot determinism
// across identically-seeded worlds.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scale_world.hpp"
#include "sim/profiler.hpp"
#include "sim/sharded_executive.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/metric_registry.hpp"
#include "telemetry/trace.hpp"

namespace mhrp {
namespace {

using telemetry::Histogram;
using telemetry::JsonWriter;
using telemetry::MetricRegistry;
using telemetry::NonFiniteJsonError;
using telemetry::TraceCategory;
using telemetry::TraceCollector;

// ---- JsonWriter ----

TEST(JsonWriterTest, WritesNestedDocument) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("a");
  json.value(std::uint64_t{1});
  json.key("b");
  json.begin_array();
  json.value(2.5);
  json.value("x");
  json.value(true);
  json.null();
  json.end_array();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"a":1,"b":[2.5,"x",true,null]})");
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  std::ostringstream out;
  JsonWriter json(out);
  json.value(std::string_view("a\"b\\c\n\t\x01"));
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonWriterTest, RejectsNonFiniteValues) {
  std::ostringstream out;
  JsonWriter json(out);
  EXPECT_THROW(json.value(std::numeric_limits<double>::infinity()),
               NonFiniteJsonError);
  EXPECT_THROW(json.value(-std::numeric_limits<double>::infinity()),
               NonFiniteJsonError);
  EXPECT_THROW(json.value(std::numeric_limits<double>::quiet_NaN()),
               NonFiniteJsonError);
  EXPECT_THROW(JsonWriter::format_number(
                   std::numeric_limits<double>::quiet_NaN()),
               NonFiniteJsonError);
}

TEST(JsonWriterTest, FormatsIntegralDoublesWithoutExponent) {
  EXPECT_EQ(JsonWriter::format_number(42.0), "42");
  EXPECT_EQ(JsonWriter::format_number(-3.0), "-3");
  EXPECT_EQ(JsonWriter::format_number(0.0), "0");
  EXPECT_EQ(JsonWriter::format_number(2.5), "2.5");
}

// ---- Histogram ----

TEST(HistogramTest, EmptyReportsZerosNotInfinities) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, TracksExactCountSumMinMax) {
  Histogram h;
  h.record(0.002);
  h.record(1.5);
  h.record(300.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 301.502);
  EXPECT_DOUBLE_EQ(h.min(), 0.002);
  EXPECT_DOUBLE_EQ(h.max(), 300.0);
}

TEST(HistogramTest, QuantilesApproximateWithinBucketResolution) {
  // 1000 samples spread over three decades: each quantile must land
  // within one sub-bucket (an eighth of an octave, ~9% relative error).
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.001 * std::pow(1000.0, (i - 1) / 999.0);
    values.push_back(v);
    h.record(v);
  }
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx / exact, 1.0, 0.10)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(HistogramTest, QuantileClampedToObservedRange) {
  Histogram h;
  h.record(5.0);
  h.record(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(HistogramTest, BucketIndexIsMonotonic) {
  std::size_t prev = Histogram::bucket_index(1e-7);
  for (double v = 1e-7; v < 1e7; v *= 1.04) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
  }
}

// ---- MetricRegistry ----

TEST(MetricRegistryTest, KindMismatchThrows) {
  MetricRegistry reg;
  reg.probe("x", [] { return 0.0; });
  reg.probe("x", [] { return 1.0; });  // a probe may be replaced
  EXPECT_THROW(
      reg.histogram_probe("x", [] { return std::vector<double>{}; }),
      std::logic_error);
  reg.histogram_probe("lat", [] { return std::vector<double>{}; });
  EXPECT_THROW(reg.probe("lat", [] { return 0.0; }), std::logic_error);
  EXPECT_THROW(
      reg.histogram_probe("lat", [] { return std::vector<double>{}; }),
      std::logic_error);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndEvaluatesProbes) {
  MetricRegistry reg;
  double zeta = 0.0;
  reg.probe("zeta", [&zeta] { return zeta; });
  reg.probe("alpha", [] { return 1.0; });
  reg.histogram_probe("mid", [] { return std::vector<double>{1.5}; });
  zeta = 7.0;  // probes read their source at snapshot time
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "mid");
  EXPECT_EQ(snap.entries[1].kind, telemetry::MetricKind::kHistogram);
  EXPECT_EQ(snap.entries[2].name, "zeta");
  EXPECT_EQ(snap.entries[2].kind, telemetry::MetricKind::kProbe);
  EXPECT_EQ(std::get<double>(snap.entries[2].value), 7.0);
}

TEST(MetricRegistryTest, ExportersAgreeOnValues) {
  MetricRegistry reg;
  reg.probe("hits", [] { return 12.0; });
  reg.histogram_probe("lat", [] { return std::vector<double>{0.5}; });
  const auto snap = reg.snapshot();

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("hits probe 12"), std::string::npos);
  EXPECT_NE(text.find("lat histogram count=1"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"mhrp.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\":{\"kind\":\"probe\",\"value\":12}"),
            std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"kind\":\"histogram\",\"count\":1"),
            std::string::npos);
}

TEST(MetricRegistryTest, HistogramProbeRendersLikeALiveHistogram) {
  // A histogram probe is rebuilt from its series at every snapshot and
  // must report what a histogram fed the same values reports.
  MetricRegistry probed;
  Histogram live;
  std::vector<double> series = {0.25, 3.0};
  for (double v : series) live.record(v);
  probed.histogram_probe("lat", [&series] { return series; });
  const auto expect_same = [&] {
    const auto snap = probed.snapshot();
    ASSERT_EQ(snap.entries.size(), 1u);
    const auto& h = std::get<telemetry::MetricsSnapshot::HistogramStats>(
        snap.entries[0].value);
    EXPECT_EQ(h.count, live.count());
    EXPECT_EQ(h.sum, live.sum());
    EXPECT_EQ(h.min, live.min());
    EXPECT_EQ(h.max, live.max());
    EXPECT_EQ(h.mean, live.mean());
    EXPECT_EQ(h.p50, live.quantile(0.50));
    EXPECT_EQ(h.p90, live.quantile(0.90));
    EXPECT_EQ(h.p99, live.quantile(0.99));
  };
  expect_same();

  series.push_back(9.5);  // read again at the next snapshot
  live.record(9.5);
  expect_same();
}

TEST(MetricRegistryTest, JsonExportRejectsNonFiniteProbe) {
  MetricRegistry reg;
  reg.probe("bad", [] { return std::numeric_limits<double>::infinity(); });
  EXPECT_THROW(reg.snapshot().to_json(), NonFiniteJsonError);
}

// ---- TraceCollector ----

TEST(TraceCollectorTest, RecordsInstantsAndSpans) {
  TraceCollector trace;
  trace.instant(TraceCategory::kPacket, "tunnel.encap", 100, "mh", 1.0);
  trace.span(TraceCategory::kProtocol, "reg.connect", 200, 450, "attempts",
             1.0);
  EXPECT_EQ(trace.recorded(), 2u);
  const std::string json = trace.chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete span: ph X with ts/dur in simulated microseconds.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":200"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  // Instant event scoped to its thread.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"mh\":1}"), std::string::npos);
  // Category tracks are named via metadata events.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"packet\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol\""), std::string::npos);
}

TEST(TraceCollectorTest, SamplesPacketEventsOnly) {
  TraceCollector::Options opts;
  opts.sample_every = 4;
  TraceCollector trace(opts);
  for (int i = 0; i < 16; ++i) {
    trace.instant(TraceCategory::kPacket, "pkt", i);
  }
  for (int i = 0; i < 5; ++i) {
    trace.span(TraceCategory::kProtocol, "reg", i, i + 1);
  }
  EXPECT_EQ(trace.recorded(), 4u + 5u);  // 16/4 packets, all 5 spans
  EXPECT_EQ(trace.sampled_out(), 12u);
}

TEST(TraceCollectorTest, CapsBufferedEventsAndCountsDrops) {
  TraceCollector::Options opts;
  opts.max_events = 8;
  TraceCollector trace(opts);
  for (int i = 0; i < 20; ++i) {
    trace.instant(TraceCategory::kProtocol, "e", i);
  }
  EXPECT_EQ(trace.recorded(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
}

TEST(TraceCollectorTest, DisabledRecordsNothing) {
  TraceCollector trace;
  trace.set_enabled(false);
  trace.instant(TraceCategory::kPacket, "pkt", 1);
  trace.span(TraceCategory::kStore, "wal", 0, 5);
  EXPECT_EQ(trace.recorded(), 0u);
}

// ---- EventLoopProfiler ----

TEST(EventLoopProfilerTest, AttributesEventsToCategories) {
  sim::ShardedExecutive simulator(1);
  sim::EventLoopProfiler profiler;
  simulator.set_profiler(&profiler);
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    (void)simulator.after(sim::millis(i), [&ran] { ++ran; },
                    sim::EventCategory::kRegistration);
  }
  (void)simulator.after(sim::millis(9), [&ran] { ++ran; },
                  sim::EventCategory::kMovement);
  (void)simulator.after(sim::millis(10), [&ran] { ++ran; });  // kGeneral
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(ran, 7);
  EXPECT_EQ(profiler.bucket(sim::EventCategory::kRegistration).events, 5u);
  EXPECT_EQ(profiler.bucket(sim::EventCategory::kMovement).events, 1u);
  EXPECT_EQ(profiler.bucket(sim::EventCategory::kGeneral).events, 1u);
  EXPECT_EQ(profiler.total_events(), 7u);
  EXPECT_GE(profiler.total_wall_seconds(), 0.0);
  EXPECT_NE(profiler.to_text().find("registration"), std::string::npos);
}

TEST(EventLoopProfilerTest, SimulatedBehaviorUnchangedByProfiler) {
  const auto run = [](bool with_profiler) {
    sim::ShardedExecutive simulator(1);
    sim::EventLoopProfiler profiler;
    if (with_profiler) simulator.set_profiler(&profiler);
    std::vector<int> order;
    (void)simulator.after(sim::millis(2), [&] { order.push_back(2); },
                    sim::EventCategory::kArp);
    (void)simulator.after(sim::millis(1), [&] { order.push_back(1); });
    (void)simulator.after(sim::millis(3), [&] { order.push_back(3); },
                    sim::EventCategory::kWorkload);
    simulator.run_until(sim::seconds(1));
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- World-level determinism and export ----

scenario::ScaleWorldOptions small_world(std::uint64_t seed) {
  scenario::ScaleWorldOptions opt;
  opt.routers = 9;
  opt.foreign_agents = 3;
  opt.mobile_hosts = 6;
  opt.correspondents = 2;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = seed;
  return opt;
}

TEST(WorldTelemetryTest, SnapshotDeterministicAcrossSeededRuns) {
  // Two identically-seeded worlds, driven identically, must export
  // byte-identical JSON — probes, histograms, and all.
  const auto run = [] {
    scenario::ScaleWorld world(small_world(21));
    world.start();
    world.run_for(sim::seconds(8));
    return world.metrics_json();
  };
  const std::string first = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(WorldTelemetryTest, ScaleWorldExportsAreStrictAndPopulated) {
  scenario::ScaleWorldOptions opt = small_world(5);
  opt.telemetry.trace = true;
  opt.telemetry.profiler = true;
  scenario::ScaleWorld world(opt);
  world.start();
  world.run_for(sim::seconds(8));

  // JSON export: schema header, populated metrics, no inf/nan tokens
  // (the writer would have thrown).
  const std::string json = world.metrics_json();
  EXPECT_NE(json.find("\"schema\":\"mhrp.scaleworld.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ha.registrations\""), std::string::npos);
  EXPECT_NE(json.find("\"mobiles.moves\""), std::string::npos);
  EXPECT_NE(json.find("\"handoff.latency_s\""), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  // The run moved and registered, so the handoff histogram is populated.
  const auto snap = world.instruments.registry.snapshot();
  bool found = false;
  for (const auto& e : snap.entries) {
    if (e.name != "handoff.latency_s") continue;
    found = true;
    const auto& h = std::get<telemetry::MetricsSnapshot::HistogramStats>(
        e.value);
    EXPECT_GT(h.count, 0u);
    EXPECT_GT(h.max, 0.0);
  }
  EXPECT_TRUE(found);

  // Trace collected protocol spans and packet instants; the export is a
  // loadable Chrome-tracing document.
  ASSERT_NE(world.instruments.trace(), nullptr);
  EXPECT_GT(world.instruments.trace()->recorded(), 0u);
  const std::string trace = world.instruments.trace()->chrome_json();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("handoff.rebind"), std::string::npos);

  // Profiler attributed every executed event to a category.
  ASSERT_NE(world.instruments.profiler(), nullptr);
  EXPECT_GT(world.instruments.profiler()->total_events(), 0u);
  EXPECT_GT(
      world.instruments.profiler()->bucket(sim::EventCategory::kLinkDelivery)
          .events,
      0u);
}

}  // namespace
}  // namespace mhrp
