// Source annotations read by the compiler and by tools/lint/mhrp-lint.
//
// Three families:
//
//  * MHRP_HOT_PATH marks the per-event functions the whole simulator's
//    throughput rides on (EventQueue schedule/cancel/pop, Link::transmit,
//    packet serialization). mhrp-lint forbids operator new, make_shared/
//    make_unique, and allocating container growth inside them — the slab
//    queue's zero-per-event-allocation property (DESIGN.md §8) is a
//    measured 2.7-3.3x and must not erode one push_back at a time.
//    Expands to [[gnu::hot]] so the optimizer hears about it too.
//
//  * MHRP_DETERMINISM_EXEMPT(reason) exempts one function from
//    mhrp-lint's determinism rules (wall-clock, unseeded RNG, unordered
//    iteration). The reason string is mandatory and should say why the
//    nondeterminism cannot reach replay digests.
//
//  * Clang thread-safety annotations (MHRP_GUARDED_BY, MHRP_REQUIRES and
//    the capability they name), compiled under -Wthread-safety on Clang
//    builds and inert elsewhere. Each shard of the executive owns an
//    EventQueue and runs on one thread; ExecutiveSerial below is the
//    capability: a phantom "I am the executive thread of this shard"
//    token.
#pragma once

namespace mhrp::util {

// ---- Thread-safety analysis attributes (Clang only) ----

#if defined(__clang__) && (!defined(SWIG))
#define MHRP_TS_ATTR(x) __attribute__((x))
#else
#define MHRP_TS_ATTR(x)  // no-op outside Clang
#endif

#define MHRP_CAPABILITY(x) MHRP_TS_ATTR(capability(x))
#define MHRP_GUARDED_BY(x) MHRP_TS_ATTR(guarded_by(x))
#define MHRP_REQUIRES(...) MHRP_TS_ATTR(requires_capability(__VA_ARGS__))
#define MHRP_ASSERT_CAPABILITY(x) MHRP_TS_ATTR(assert_capability(x))

/// Phantom capability standing in for "the executive thread of this
/// shard". assert_held() compiles to nothing; each shard's loop asserts
/// its own serial and the functions that run a shard's events require
/// it, so -Wthread-safety rejects a call into them, or a touch of
/// guarded state, from a context that has not asserted it. The
/// executive's barrier, not a lock, hands a shard from one thread to
/// another, so nothing acquires or releases the capability.
class MHRP_CAPABILITY("executive-serial") ExecutiveSerial {
 public:
  /// Zero-cost: tells the analysis (not the runtime) that the calling
  /// context is serialized on this shard's executive.
  void assert_held() const MHRP_ASSERT_CAPABILITY(this) {}
};

// ---- Hot-path marker ----

#if defined(__GNUC__) || defined(__clang__)
#define MHRP_HOT_PATH [[gnu::hot]]
#else
#define MHRP_HOT_PATH
#endif

// ---- Determinism exemption (lint marker only) ----

/// Exempts the enclosing function from mhrp-lint's determinism rules.
/// Place it in the function body (first statement, by convention). The
/// reason must explain why the nondeterminism cannot reach replay
/// digests. Expands to nothing; the linter matches it lexically.
#define MHRP_DETERMINISM_EXEMPT(reason) \
  static_assert(sizeof(reason) > 1, "exemption reason required")

}  // namespace mhrp::util
