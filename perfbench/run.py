#!/usr/bin/env python3
"""Repository benchmark: the `forward` and `roam` ScaleWorld workloads.

Builds the simulator and the two workload runners from source (CMake,
Release, into .bench_build/perfbench), runs a workload in fresh processes,
checks that every run is a valid protocol scenario and that all runs of a
seed simulate the same thing, and prints every metric by name with its
unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py [--workload forward|roam|all] [--seed N]
                             [--seconds S] [--trace 0|1]

--trace 0 reports the end-to-end metrics: it repeats the untraced run of the
seed for --seconds (at least three runs). --trace 1 alternates untraced and
traced runs for --seconds (at least two pairs) and reports the per-layer
metrics. Wall-clock values are medians over the runs. Without --trace both
are run; without --workload both workloads are. perfbench/README.md
describes the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("forward", "roam")
RUN_TIMEOUT_S = 150

# Name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "delivery_ratio": "ratio",
    "registration_ratio": "ratio",
    "handoff_p50_ms": "ms",
    "handoff_p99_ms": "ms",
    "pkt_latency_p50_ms": "ms",
    "pkt_latency_p99_ms": "ms",
    "overhead_bytes_mean": "bytes",
}
WALL_CLOCK = ("setup_s", "run_s", "peak_rss_mb")
PER_LAYER = {
    "sim.events": "count",
    "sim.allocs_per_event": "allocs",
    "sim.dispatch_ns": "ns",
    "net.delivery_ns": "ns",
    "net.deliveries": "count",
    "net.frames": "count",
    "net.fanout": "ratio",
    "node.hops_per_pkt": "hops",
    "node.ttl_drops": "count",
    "node.arp_timeouts": "count",
    "node.icmp_errors": "count",
    "node.arp_ns": "ns",
    "routing.lookup_ns": "ns",
    "routing.routes_total": "count",
    "routing.routes_max": "count",
    "core.ca_hit_ratio": "ratio",
    "core.tunnels_per_pkt": "ratio",
    "core.examined_per_pkt": "ratio",
    "core.updates_sent": "count",
    "core.movement_ns": "ns",
    "core.advert_ns": "ns",
    "core.reg_retransmits": "count",
    "core.reg_abandoned": "count",
    "core.agent_state_total": "count",
    "core.agent_state_busiest": "count",
    "store.appends": "count",
    "store.batches": "count",
    "store.syncs": "count",
    "store.acks_deferred": "count",
    "store.sync_ns": "ns",
    "store.append_ns": "ns",
    "scenario.cbr_send_ns": "ns",
    "telemetry.trace_overhead_pct": "%",
}
# Per-layer values that are wall-clock times; the rest repeat exactly.
LAYER_TIMES = ("sim.dispatch_ns", "net.delivery_ns", "node.arp_ns",
               "routing.lookup_ns", "core.movement_ns", "core.advert_ns",
               "store.sync_ns", "store.append_ns", "scenario.cbr_send_ns")

MIN_RATIO = 0.95  # delivery and registration gate


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build both runners (a no-op when current)."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_world", "perfbench_world_traced"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(1)


def run_once(traced, workload, seed):
    binary = os.path.join(
        BUILD_DIR, "perfbench_world_traced" if traced else "perfbench_world")
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {os.path.basename(binary)} failed "
            f"(exit {proc.returncode})")
        sys.exit(1)
    return json.loads(lines[-1])


def simulated(run):
    """What every run of a seed, traced or not, must repeat exactly."""
    sim = {k: v for k, v in run["metrics"].items() if k not in WALL_CLOCK}
    return run["digest"], run["counts"], sim


def layer_counts(run):
    return {k: v for k, v in run["layers"].items() if k not in LAYER_TIMES}


def check(plain, traced):
    """Validity and determinism problems across one seed's runs."""
    problems = []
    first = plain[0]
    if any(simulated(r) != simulated(first) for r in plain + traced):
        problems.append("runs of one seed simulated different behaviour")
    if any(layer_counts(r) != layer_counts(traced[0]) for r in traced):
        problems.append("traced runs of one seed counted different work")
    m, c = first["metrics"], first["counts"]
    for key in ("delivery_ratio", "registration_ratio"):
        if m[key] < MIN_RATIO:
            problems.append(f"{key} {m[key]:.4f} is below {MIN_RATIO}")
    drops = c["ttl_drops"] + c["arp_timeouts"] + c["no_route_drops"]
    if c["icmp_errors"] > drops:
        problems.append(f"{c['icmp_errors']} ICMP errors exceed {drops} drops: "
                        "a datagram hit a closed port")
    return problems


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (metrics, units, counts, problems, record)."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        plain.append(run_once(False, workload, seed))
        if trace:
            traced.append(run_once(True, workload, seed))
        longest = max(longest, time.monotonic() - began)
        enough = len(traced) >= 2 if trace else len(plain) >= 3
        # Start another round only if it should end within --seconds.
        if enough and time.monotonic() - start + longest > seconds:
            break
    problems = check(plain, traced)
    first = plain[0]
    if trace:
        # Counts repeat exactly (checked above); times are medians.
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   if k in LAYER_TIMES else traced[0]["layers"][k]
                   for k in PER_LAYER if k in traced[0]["layers"]}
        plain_s = statistics.median(r["metrics"]["run_s"] for r in plain)
        traced_s = statistics.median(r["metrics"]["run_s"] for r in traced)
        metrics["telemetry.trace_overhead_pct"] = 100.0 * (traced_s / plain_s - 1)
        units = PER_LAYER
    else:
        metrics = dict(first["metrics"])
        for k in WALL_CLOCK:
            metrics[k] = statistics.median(r["metrics"][k] for r in plain)
        units = END_TO_END
    record = (f"{workload}: seed={seed} nproc={len(os.sched_getaffinity(0))} "
              f"build={first['build_type']} compiler={first['compiler']} "
              f"warmup={first['warmup_s']:g}s slice={first['slice_s']:g}s "
              f"runs={len(plain)} untraced + {len(traced)} traced")
    return metrics, units, first["counts"], problems, record


def report(workload, metrics, units, problems, record):
    print(record)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {workload + '/' + name:38s} {metrics[name]:16.6f} {unit}")
    for p in problems:
        print(f"  INVALID: {p}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    # Turn a termination request into an exception, so subprocess.run kills
    # and reaps the running workload process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    single = len(workloads) * len(modes) == 1
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in modes:
            metrics, units, counts, problems, record = measure(
                workload, args.seed, args.seconds, trace)
            report(workload, metrics, units, problems, record)
            result["correct"] = result["correct"] and not problems
            if trace == modes[0]:
                result["attempted"] += counts["sent"]
                result["failed"] += max(0, counts["sent"] - counts["received"])
            for name, value in metrics.items():
                key = name if single else f"{workload}/{name}"
                result["metrics"][key] = {"value": value, "unit": units[name]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
