#!/usr/bin/env python3
"""End-to-end ACIC benchmark: build, run one workload, check, report.

    python3 e2ebench/run.py --workload cold_start|app_grid \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the ACIC library and the
benchmark binary from source into .bench_build/e2ebench (Release), runs
the workload in a fresh scratch directory under .bench_build, checks
that the binary's result names exactly the metrics BENCHMARK.json lists
for the mode (end_to_end with --trace 0, per_layer with --trace 1), and
prints that result as the last line of stdout.  Human-readable detail
(build log, per-workload figures, failed checks) goes to stderr.

Exit status: 0 when every output check passed; 1 when a check failed
(the result is still printed, with "correct": false); 2 when the
benchmark could not run at all (no sources, build failure, crash,
malformed result) -- then nothing is printed on stdout.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "e2ebench-work")
BINARY = os.path.join(BUILD_DIR, "acic_e2ebench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate_spec(spec):
    """Errors in BENCHMARK.json's names and units (empty list = valid)."""
    errors = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                errors.append(f"{section}: bad name {name!r}")
            if name in seen:
                errors.append(f"{section}: name {name!r} used twice")
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                errors.append(f"{section}: bad unit for {name!r}")
    if not any(m.get("name") == "setup_s" for m in spec.get("end_to_end", [])):
        errors.append("end_to_end: setup_s missing")
    return errors


def validate_result(result, spec, trace):
    """Errors in one result record against the spec (empty list = valid)."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{key} is not a non-negative integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append(f"{name}: entry must be {{value, unit}}")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and entry["unit"] != expected[name]:
            errors.append(f"{name}: unit {entry['unit']!r}, "
                          f"BENCHMARK.json says {expected[name]!r}")
    return errors


def child_env():
    """Environment for the build and the run: temporary files (the
    compiler's included) stay inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP_DIR)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("ACIC sources (src/) not found next to e2ebench/; "
            "run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "acic_e2ebench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env())
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run(args, spec):
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"{args.workload} exited with {done.returncode} and no result")
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1][:200]!r}")
        return 2
    errors = validate_result(result, spec, args.trace == 1)
    if errors:
        for e in errors:
            log(f"invalid result: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    errors = validate_spec(spec)
    if errors:
        for e in errors:
            log(f"invalid BENCHMARK.json: {e}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
