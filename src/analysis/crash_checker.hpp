// CrashConsistencyChecker: a mini ALICE-style checker for the durable
// store. It runs a deterministic registration workload against a
// WalStore, crashes the simulated disk at chosen persist steps (clean
// cuts and torn sectors), recovers, and asserts two invariants:
//
//   kWalPrefixConsistent  the recovered database equals the state after
//                         some prefix of the logged history — never a
//                         reordered, merged, or fabricated state;
//   kDurableAckNotLost    under the durable sync policies, every
//                         registration the workload acked before the
//                         crash is present in that prefix. (kAsync runs
//                         count lost acks instead of flagging them — the
//                         loss is that policy's documented trade.)
//
// Crash points are named in the SimDisk's persist-step coordinate
// system, so `enumerate()` covers *every* point a crash could land in a
// given workload, and `fuzz()` samples (step, torn?, tear offset)
// triples from a seed for arbitrarily large budgets. Each recovery also
// re-runs recover() and requires a byte-identical state digest, pinning
// recovery determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/audit_report.hpp"
#include "store/store_options.hpp"
#include "store/wal_store.hpp"

namespace mhrp::analysis {

struct CrashCheckerOptions {
  store::StoreOptions store;     // geometry + snapshot cadence under test
  std::uint32_t workload_records = 200;  // mutations per run
  std::uint32_t mobiles = 8;     // distinct hosts the workload touches
  std::uint32_t sync_every = 4;  // group-commit size for kInterval/kAsync
  std::uint64_t seed = 0xD15C;   // workload + fuzz randomness
  /// Fraction of injected crashes that tear the sector instead of
  /// cutting cleanly before it (fuzz mode; enumerate does both).
  double tear_fraction = 0.5;
};

struct CrashCheckerResult {
  std::uint64_t runs = 0;              // crash scenarios executed
  std::uint64_t crash_points = 0;      // distinct persist steps covered
  std::uint64_t torn_runs = 0;
  std::uint64_t records_logged = 0;    // workload appends across runs
  std::uint64_t records_recovered = 0;
  std::uint64_t acked_before_crash = 0;
  std::uint64_t acked_lost = 0;        // > 0 only legal under kAsync
  std::uint64_t prefix_violations = 0;
  std::uint64_t ack_violations = 0;
  std::uint64_t determinism_violations = 0;

  [[nodiscard]] bool clean() const {
    return prefix_violations == 0 && ack_violations == 0 &&
           determinism_violations == 0;
  }
  [[nodiscard]] std::string summary() const;
};

class CrashConsistencyChecker {
 public:
  explicit CrashConsistencyChecker(const CrashCheckerOptions& options)
      : options_(options) {}

  /// Walk every persist step the workload generates (plus the no-crash
  /// run), injecting both a clean crash and a torn write at each.
  /// Violations are recorded into `report`.
  CrashCheckerResult enumerate(AuditReport& report);

  /// Sample `budget` random (persist step, torn?, tear offset) crash
  /// scenarios from the seeded stream.
  CrashCheckerResult fuzz(std::uint64_t budget, AuditReport& report);

  /// One linear-time pass for very large workloads (a million bindings),
  /// where run_once's O(history²) prefix search is unusable. Drives the
  /// whole workload, optionally crashing at one seeded persist step,
  /// then recovers and checks the same invariants with a single fold:
  /// the recovered database must equal the history prefix at exactly the
  /// LSN recovery reports, and that prefix must cover every acked
  /// registration. Recovery determinism is still checked by mounting
  /// twice.
  CrashCheckerResult round_trip(bool inject_crash, AuditReport& report);

 private:
  struct RunOutcome;
  RunOutcome run_once(std::uint64_t crash_step, bool torn,
                      std::size_t tear_at, AuditReport& report,
                      CrashCheckerResult& result);
  [[nodiscard]] std::uint64_t dry_run_steps();
  /// Append the whole history through the group-commit batch, syncing at
  /// the configured policy's boundaries (every record under kSync),
  /// tracking the highest acked LSN. Returns true when a crash hook fired
  /// mid-workload.
  bool drive_workload(store::WalStore& wal,
                      const std::vector<store::WalRecord>& history,
                      store::Lsn& max_acked, std::uint64_t& appended);

  CrashCheckerOptions options_;
};

}  // namespace mhrp::analysis
