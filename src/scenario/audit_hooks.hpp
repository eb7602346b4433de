// Wiring between the audit layer (src/analysis/) and whole scenarios.
//
// Every world (any MhrpDeployment) owns one PacketAuditor, `auditor`,
// declared as its last member so it dies before the links and caches it
// watches. Audit builds (cmake -DMHRP_AUDIT=ON) attach it to every link
// and agent cache of a one-shard world at install(), and a world whose
// report holds a violation prints it and aborts when destroyed — so
// every test, bench and example that builds a world is checked.
//
// Tests may attach auditors of their own as well; any number may watch
// one link. The lifetime rule is PacketAuditor's: destroy an auditor
// before the links it observes (declare it after the world).
#pragma once

#include "analysis/audit_report.hpp"
#include "analysis/packet_auditor.hpp"

namespace mhrp::scenario {

class Topology;
class MhrpDeployment;

namespace audit {

/// Attach `auditor` to every link currently in `topo`. Links added later
/// are not covered; call again after construction completes.
void attach(analysis::PacketAuditor& auditor, Topology& topo);

/// Attach to every link and watch every installed agent's cache, each
/// labelled "<node name> cache". One-shard worlds only: the auditor is a
/// single-threaded instrument.
void attach(analysis::PacketAuditor& auditor, MhrpDeployment& world);

/// True when this binary was compiled with -DMHRP_AUDIT=ON.
[[nodiscard]] bool audit_build();

/// The audit-build teardown check: print a report that holds any
/// violation to stderr and abort. Returns when the report is clean.
void require_clean(const analysis::AuditReport& report);

}  // namespace audit
}  // namespace mhrp::scenario
