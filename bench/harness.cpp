#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace mhrp::bench {

namespace {

constexpr double kMinRatio = 0.95;  // delivery and registration gate

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string format(const char* fmt, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

int cores_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

std::vector<std::string> slice_problems(const scenario::ScaleRunStats& s) {
  std::vector<std::string> problems;
  const double delivery = ratio(s.packets_delivered, s.cbr_sent);
  if (delivery < kMinRatio) {
    problems.push_back(format("delivered %" PRIu64 " of %" PRIu64
                              " CBR datagrams (%.4f), below %.2f",
                              s.packets_delivered, s.cbr_sent, delivery,
                              kMinRatio));
  }
  const double registration = ratio(s.registrations, s.moves);
  if (registration < kMinRatio) {
    problems.push_back(format("completed %" PRIu64
                              " registrations for %" PRIu64
                              " moves (%.4f), below %.2f",
                              s.registrations, s.moves, registration,
                              kMinRatio));
  }
  const std::uint64_t drops = s.ttl_drops + s.arp_timeouts + s.no_route_drops;
  if (s.icmp_errors > drops) {
    problems.push_back(format("%" PRIu64 " ICMP errors exceed %" PRIu64
                              " drops: a datagram hit a closed port",
                              s.icmp_errors, drops));
  }
  return problems;
}

scenario::ScaleWorldOptions sweep_options(int routers, int mobiles) {
  scenario::ScaleWorldOptions opt;
  opt.routers = routers;
  opt.mobile_hosts = mobiles;
  opt.foreign_agents =
      std::max(2, static_cast<int>(std::lround(std::sqrt(double(routers)))));
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(3);
  opt.protocol.seed = 1;
  return opt;
}

Harness::Harness(int argc, char** argv, std::string default_out,
                 std::uint64_t seed,
                 std::initializer_list<const char*> value_flags)
    : out_path_(std::move(default_out)), seed_(seed) {
  bench_ = argv[0];
  bench_ = bench_.substr(bench_.find_last_of('/') + 1);
  std::string usage = "usage: " + bench_ + " [--small] [--out PATH]";
  for (const char* name : value_flags) {
    flags_[name];
    usage += std::string(" [") + name + " VALUE]";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small_ = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path_ = argv[++i];
    } else if (flags_.count(arg) != 0 && i + 1 < argc) {
      flags_[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "%s\n", usage.c_str());
      std::exit(2);
    }
  }
}

std::string Harness::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::string() : it->second;
}

double Harness::timed(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  const std::chrono::duration<double> seconds =
      std::chrono::steady_clock::now() - start;
  run_s_ += seconds.count();
  return seconds.count();
}

void Harness::check(bool ok, const std::string& problem) {
  if (!ok) problems_.push_back(problem);
}

void Harness::check_slice(const std::string& label,
                          const scenario::ScaleRunStats& s) {
  for (const std::string& p : slice_problems(s)) {
    problems_.push_back(label + ": " + p);
  }
}

void Harness::open_key(std::string_view key) {
  if (depth_ == 0) out_ << '\n';
  json_.key(key);
}

void Harness::object(std::string_view key,
                     const std::function<void()>& members) {
  open_key(key);
  json_.begin_object();
  ++depth_;
  members();
  --depth_;
  json_.end_object();
}

void Harness::array(std::string_view key, std::size_t n,
                    const std::function<void(std::size_t)>& element) {
  open_key(key);
  json_.begin_array();
  ++depth_;
  for (std::size_t i = 0; i < n; ++i) {
    out_ << '\n';
    element(i);
  }
  --depth_;
  out_ << '\n';
  json_.end_array();
}

void Harness::values(std::string_view key, const std::vector<double>& v) {
  open_key(key);
  json_.begin_array();
  for (const double x : v) json_.value(x);
  json_.end_array();
}

void Harness::summary(std::string_view key,
                      const scenario::PercentileSummary& s) {
  object(key, [&] {
    field("count", s.count);
    field("p50", s.p50);
    field("p90", s.p90);
    field("p99", s.p99);
    field("max", s.max);
  });
}

void Harness::counts(std::string_view key, const scenario::ScaleRunStats& s) {
  object(key, [&] {
    field("cbr_sent", s.cbr_sent);
    field("delivered", s.packets_delivered);
    field("moves", s.moves);
    field("registrations", s.registrations);
    field("ttl_drops", s.ttl_drops);
    field("arp_timeouts", s.arp_timeouts);
    field("no_route_drops", s.no_route_drops);
    field("icmp_errors", s.icmp_errors);
  });
}

int Harness::finish(const std::function<void()>& body) {
  json_.begin_object();
  json_.key("bench");
  json_.value(bench_);
  json_.key("mode");
  json_.value(small_ ? "small" : "full");
  body();
  object("run", [&] {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - began_;
    field("nproc", cores_available());
    field("build_type", MHRP_BUILD_TYPE);
    field("compiler", compiler());
    field("seed", seed_);
    field("setup_s", wall.count() - run_s_);
    field("run_s", run_s_);
    field("peak_rss_mb", peak_rss_mb());
  });
  array("problems", problems_.size(),
        [&](std::size_t i) { json_.value(problems_[i]); });
  json_.end_object();
  out_ << '\n';

  std::ofstream file(out_path_);
  file << out_.str();
  if (!file.flush()) {
    std::fprintf(stderr, "cannot write %s\n", out_path_.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path_.c_str());
  for (const std::string& p : problems_) {
    std::printf("INVALID: %s\n", p.c_str());
  }
  return problems_.empty() ? 0 : 1;
}

}  // namespace mhrp::bench
