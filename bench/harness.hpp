// The shared harness of the scale benches (bench_scalability, bench_chaos,
// bench_routing, bench_shard, bench_store): one command line (--small,
// --out PATH and a bench's own `--name VALUE` flags); a run record (core
// count, build type, compiler, seed, wall seconds inside and outside the
// timed slices, peak RSS); one problems list, which perfbench/run.py's
// validity rules and each bench's own checks feed; and the report,
// written through telemetry::JsonWriter (which rejects NaN and infinity)
// with each top-level member and each sweep row on its own line, so
// regenerated files diff point by point. A bench prints every problem as
// an `INVALID:` line, writes the list into its report, and exits 1 when
// the list is not empty.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/metrics.hpp"
#include "scenario/scale_world.hpp"
#include "telemetry/json_writer.hpp"

namespace mhrp::bench {

/// perfbench/run.py's rules for one measured slice with no injected
/// fault, one line per rule the slice breaks:
///   * CBR datagrams delivered / sent >= 0.95;
///   * registrations / moves >= 0.95;
///   * ICMP errors sent <= TTL + ARP-timeout + no-route drops.
std::vector<std::string> slice_problems(const scenario::ScaleRunStats& s);

/// bench_scalability's sweep world, which bench_chaos reuses: `routers`,
/// about sqrt(routers) foreign agents, `mobiles`, 4 correspondents, a 3 s
/// mean dwell, seed 1.
scenario::ScaleWorldOptions sweep_options(int routers, int mobiles);

class Harness {
 public:
  /// Parses `--small`, `--out PATH` (default `default_out`) and `--name
  /// VALUE` for each name in `value_flags`; prints a usage line and exits
  /// 2 on anything else. `seed` is the seed the bench's worlds use.
  Harness(int argc, char** argv, std::string default_out, std::uint64_t seed,
          std::initializer_list<const char*> value_flags = {});

  [[nodiscard]] bool small() const { return small_; }
  /// The value given for `--name`, or "" when the flag is absent.
  [[nodiscard]] std::string flag(const std::string& name) const;

  /// Runs `work` and returns its wall seconds, which the run record
  /// counts as run time. Everything else the bench does is set-up.
  double timed(const std::function<void()>& work);

  /// Files `problem` unless `ok`.
  void check(bool ok, const std::string& problem);
  /// Files slice_problems(s), each prefixed with `label`.
  void check_slice(const std::string& label, const scenario::ScaleRunStats& s);

  // ---- The report body, written from finish()'s callback ----

  /// `key: v` for any value JsonWriter::value() takes.
  template <class T>
  void field(std::string_view key, const T& v) {
    open_key(key);
    json_.value(v);
  }
  /// `key: {...}`, its members written by `members`.
  void object(std::string_view key, const std::function<void()>& members);
  /// `key: [...]`, one object per row on its own line.
  template <class Row, class Fn>
  void rows(std::string_view key, const std::vector<Row>& items, Fn&& row) {
    array(key, items.size(), [&](std::size_t i) {
      json_.begin_object();
      row(items[i]);
      json_.end_object();
    });
  }
  /// `key: [v, ...]` on one line.
  void values(std::string_view key, const std::vector<double>& v);
  /// `key: {count, p50, p90, p99, max}`.
  void summary(std::string_view key, const scenario::PercentileSummary& s);
  /// `key: {cbr_sent, delivered, moves, registrations, ttl_drops,
  /// arp_timeouts, no_route_drops, icmp_errors}`: what the slice rules
  /// read, recorded for faulted slices too.
  void counts(std::string_view key, const scenario::ScaleRunStats& s);

  /// Writes the report — "bench", "mode", the members `body` writes, the
  /// run record and the problems — to the --out path, prints each
  /// problem as an `INVALID:` line, and returns the exit status: 0 with
  /// no problems, 1 otherwise.
  int finish(const std::function<void()>& body);

 private:
  /// Emits `"key":`, on a new line at the top level of the report.
  void open_key(std::string_view key);
  /// `key: [...]`, with `element(i)` writing element i on its own line.
  void array(std::string_view key, std::size_t n,
             const std::function<void(std::size_t)>& element);

  std::string bench_;
  std::string out_path_;
  std::uint64_t seed_ = 0;
  bool small_ = false;
  std::map<std::string, std::string> flags_;
  std::chrono::steady_clock::time_point began_ =
      std::chrono::steady_clock::now();
  double run_s_ = 0;
  std::vector<std::string> problems_;
  std::ostringstream out_;
  telemetry::JsonWriter json_{out_};
  int depth_ = 0;  // report nesting below the top level
};

}  // namespace mhrp::bench
