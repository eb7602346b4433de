// EventLoopProfiler: attributes executed-event counts and handler
// wall-time to EventCategory buckets. Installed on a one-shard executive
// with set_profiler(); when absent (the default) the run loop pays one
// dispatch per run_until() call — nothing per event — and when present
// it adds two steady_clock reads around each handler.
//
// IMPORTANT: the profiler measures *wall* time, which is
// machine-dependent and therefore must never feed a replay digest or a
// metric registry snapshot — counts and seconds here are for bench
// reporting only. Simulated-time behavior is unaffected either way.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/event_category.hpp"

namespace mhrp::sim {

class EventLoopProfiler {
 public:
  struct Bucket {
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };

  using Clock = std::chrono::steady_clock;

  /// Called by the executive's run loop around each handler.
  [[nodiscard]] Clock::time_point begin_event() const { return Clock::now(); }

  void end_event(EventCategory category, Clock::time_point started) {
    const auto elapsed = Clock::now() - started;
    Bucket& b = buckets_[static_cast<std::size_t>(category)];
    ++b.events;
    b.wall_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count();
  }

  [[nodiscard]] const Bucket& bucket(EventCategory category) const {
    return buckets_[static_cast<std::size_t>(category)];
  }

  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t total = 0;
    for (const Bucket& b : buckets_) total += b.events;
    return total;
  }

  [[nodiscard]] double total_wall_seconds() const {
    double total = 0.0;
    for (const Bucket& b : buckets_) total += b.wall_seconds;
    return total;
  }

  void reset() { buckets_.fill(Bucket{}); }

  /// Fixed-width table of per-category counts, wall-time, and shares —
  /// the form bench_scalability prints.
  [[nodiscard]] std::string to_text() const {
    const std::uint64_t events = total_events();
    const double seconds = total_wall_seconds();
    std::string out;
    out += "category         events     events%   wall_ms    wall%   ns/event\n";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(EventCategory::kCount); ++i) {
      const Bucket& b = buckets_[i];
      if (b.events == 0) continue;
      char line[160];
      const double ev_pct =
          events == 0 ? 0.0
                      : 100.0 * static_cast<double>(b.events) /
                            static_cast<double>(events);
      const double wall_pct =
          seconds <= 0.0 ? 0.0 : 100.0 * b.wall_seconds / seconds;
      const double ns_per =
          b.events == 0 ? 0.0
                        : 1e9 * b.wall_seconds /
                              static_cast<double>(b.events);
      std::snprintf(line, sizeof line,
                    "%-15s %10llu   %6.2f  %8.3f   %6.2f   %8.1f\n",
                    event_category_name(static_cast<EventCategory>(i)),
                    static_cast<unsigned long long>(b.events), ev_pct,
                    b.wall_seconds * 1e3, wall_pct, ns_per);
      out += line;
    }
    char total_line[160];
    std::snprintf(total_line, sizeof total_line,
                  "%-15s %10llu   %6.2f  %8.3f   %6.2f\n", "total",
                  static_cast<unsigned long long>(events), 100.0,
                  seconds * 1e3, 100.0);
    out += total_line;
    return out;
  }

 private:
  std::array<Bucket, static_cast<std::size_t>(EventCategory::kCount)>
      buckets_{};
};

}  // namespace mhrp::sim
