// Wiring between the audit layer (src/analysis/) and whole scenarios.
//
// Two modes:
//  * Explicit — tests construct a PacketAuditor and attach() it to a
//    world (any MhrpDeployment) or a bare Topology; links and (for
//    worlds) every agent's LocationCache are covered. The auditor should
//    be declared after the world (or detached before the world dies) so
//    the watched caches outlive it; link lifetime is safe either way.
//  * Audit builds (cmake -DMHRP_AUDIT=ON) — every unsharded world's
//    MhrpDeployment::install() auto-attaches a process-global auditor, so
//    the entire test and bench suite runs under wire audit. The global
//    auditor watches links only (caches die with their scenarios).
#pragma once

#include <string>

#include "analysis/packet_auditor.hpp"

namespace mhrp::scenario {

class Topology;
class MhrpDeployment;

namespace audit {

/// Attach `auditor` to every link currently in `topo`. Links added later
/// are not covered; call again after construction completes.
void attach(analysis::PacketAuditor& auditor, Topology& topo);

/// Attach to every link and watch every installed agent's cache, each
/// labelled "<node name> cache". Unsharded worlds only: the auditor is a
/// single-threaded instrument.
void attach(analysis::PacketAuditor& auditor, MhrpDeployment& world);

/// True when this binary was compiled with -DMHRP_AUDIT=ON.
[[nodiscard]] bool audit_build();

/// The process-global auditor audit builds attach automatically. Usable
/// in any build (tests may assert on its report after a run).
[[nodiscard]] analysis::PacketAuditor& global_auditor();

/// Called by scenario constructors: in audit builds, attach the global
/// auditor to every link of `topo`; otherwise a no-op.
void auto_attach(Topology& topo);

}  // namespace audit
}  // namespace mhrp::scenario
