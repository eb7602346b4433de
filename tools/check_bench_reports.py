#!/usr/bin/env python3
"""Validator for the committed scale-bench reports.

Usage: check_bench_reports.py DIR

Checks every DIR/BENCH_*.json that bench/harness.hpp writes. Fails
(exit 1) if there is none, or if a file is not strict JSON (any
NaN/Infinity literal is rejected outright), lacks the harness's `run`
record, or carries a non-empty `problems` list.
"""
import glob
import os
import sys

from check_telemetry_json import fail, load_strict


def check_report(path):
    doc = load_strict(path)
    run = doc.get("run")
    if not isinstance(run, dict) or not run:
        fail(f"{path}: missing the 'run' record")
    problems = doc.get("problems")
    if not isinstance(problems, list):
        fail(f"{path}: missing the 'problems' list")
    if problems:
        fail(f"{path}: {len(problems)} problem(s), first: {problems[0]!r}")
    print(f"ok: {path}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    paths = sorted(glob.glob(os.path.join(sys.argv[1], "BENCH_*.json")))
    if not paths:
        fail(f"{sys.argv[1]}: no BENCH_*.json reports")
    for path in paths:
        check_report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
