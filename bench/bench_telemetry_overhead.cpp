// Per-record cost of the telemetry layer (src/telemetry), in the style of
// bench_audit_overhead: the numbers DESIGN.md §11 quotes and the budget
// the zero-cost-when-disabled claim rests on. Reports:
//  * histogram record cost (the O(1) accumulator the registry's histogram
//    probes rebuild into) and histogram quantile extraction (O(buckets),
//    never O(samples)),
//  * the disabled instrumentation site — a null-pointer check, the only
//    thing the hot path pays when tracing is off,
//  * trace instants/spans when enabled, and the sampled-out fast path,
//  * the simulator event loop with no profiler (shipped default), with
//    the profiler installed, and the raw queue drain floor.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/event_category.hpp"
#include "sim/profiler.hpp"
#include "sim/sharded_executive.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/trace.hpp"

namespace {

using mhrp::telemetry::TraceCategory;
using mhrp::telemetry::TraceCollector;

void BM_HistogramRecord(benchmark::State& state) {
  mhrp::telemetry::Histogram hist;
  // Rotate across five decades so every iteration exercises the frexp
  // bucketing, not one hot bucket.
  const double values[8] = {3e-4, 7e-3, 0.042, 0.9, 4.0, 17.0, 230.0, 8e3};
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(values[i++ & 7]);
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  mhrp::telemetry::Histogram hist;
  for (int i = 1; i <= 100000; ++i) hist.record(double(i) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.quantile(0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_TraceSiteDisabled(benchmark::State& state) {
  // What every instrumentation site costs with tracing off: load the
  // collector pointer, find it null, skip. DoNotOptimize keeps the
  // compiler from deleting the check outright.
  TraceCollector* trace = nullptr;
  std::uint64_t taken = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace);
    if (trace != nullptr) {
      trace->instant(TraceCategory::kPacket, "hop", 0);
      ++taken;
    }
  }
  benchmark::DoNotOptimize(taken);
}
BENCHMARK(BM_TraceSiteDisabled);

/// Drain-and-refill wrapper: clears the collector's buffer outside the
/// timed region whenever it nears the cap, so every timed record is a
/// real push_back, never the cheaper over-cap drop.
template <typename Record>
void run_trace_bench(benchmark::State& state, TraceCollector& trace,
                     Record record) {
  constexpr std::size_t kDrainAt = (1u << 20) - 64;
  for (auto _ : state) {
    record(trace);
    if (trace.recorded() >= kDrainAt) {
      state.PauseTiming();
      trace.clear();
      state.ResumeTiming();
    }
  }
}

void BM_TraceInstantEnabled(benchmark::State& state) {
  TraceCollector trace;
  std::int64_t ts = 0;
  run_trace_bench(state, trace, [&ts](TraceCollector& t) {
    t.instant(TraceCategory::kPacket, "hop", ts++, "node", 7.0);
  });
}
BENCHMARK(BM_TraceInstantEnabled);

void BM_TraceInstantSampledOut(benchmark::State& state) {
  TraceCollector trace(TraceCollector::Options{.sample_every = 1024});
  std::int64_t ts = 0;
  run_trace_bench(state, trace, [&ts](TraceCollector& t) {
    t.instant(TraceCategory::kPacket, "hop", ts++, "node", 7.0);
  });
}
BENCHMARK(BM_TraceInstantSampledOut);

void BM_TraceSpanEnabled(benchmark::State& state) {
  TraceCollector trace;
  std::int64_t ts = 0;
  run_trace_bench(state, trace, [&ts](TraceCollector& t) {
    t.span(TraceCategory::kProtocol, "registration", ts, ts + 40, "mh", 3.0);
    ts += 50;
  });
}
BENCHMARK(BM_TraceSpanEnabled);

/// Events per run() in the event-loop benches. Each run() pays a fixed
/// cost (it reads the thread CPU clock twice for shard_stats(), about
/// 1.4 us); a large batch amortises that so the benches time the loop.
constexpr int kEventLoopBatch = 4096;

/// One batch of no-op events through the full simulator executive.
/// `profiled` toggles an installed EventLoopProfiler.
void run_event_loop_bench(benchmark::State& state, bool profiled) {
  mhrp::sim::ShardedExecutive sim(1);
  mhrp::sim::EventLoopProfiler profiler;
  if (profiled) sim.set_profiler(&profiler);
  for (auto _ : state) {
    for (int i = 0; i < kEventLoopBatch; ++i) {
      (void)sim.after(i, [] {}, mhrp::sim::EventCategory::kLinkDelivery);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * kEventLoopBatch);
}

void BM_EventLoop_NoProfiler(benchmark::State& state) {
  run_event_loop_bench(state, /*profiled=*/false);
}
BENCHMARK(BM_EventLoop_NoProfiler);

void BM_EventLoop_Profiled(benchmark::State& state) {
  run_event_loop_bench(state, /*profiled=*/true);
}
BENCHMARK(BM_EventLoop_Profiled);

void BM_EventLoop_RawQueueDrain(benchmark::State& state) {
  // The floor: schedule + pop straight off the queue, no executive at
  // all. The gap between this and BM_EventLoop_NoProfiler is the whole
  // run loop (clock advance, deadline peek) — the disabled loop contains
  // no telemetry instructions; profiler dispatch is per-run, not
  // per-event.
  mhrp::sim::EventQueue q;
  mhrp::sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEventLoopBatch; ++i) {
      (void)q.schedule(t + i, [] {}, mhrp::sim::EventCategory::kLinkDelivery);
    }
    while (!q.empty()) {
      auto fired = q.pop();
      fired.action();
    }
    t += kEventLoopBatch;
  }
  state.SetItemsProcessed(state.iterations() * kEventLoopBatch);
}
BENCHMARK(BM_EventLoop_RawQueueDrain);

}  // namespace
