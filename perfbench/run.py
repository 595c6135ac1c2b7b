#!/usr/bin/env python3
"""End-to-end benchmark of the sstore library: one command, named workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload voter-wire --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds a Release build of the library and the
driver (perfbench/CMakeLists.txt, which includes the repository's own
top-level CMakeLists.txt unchanged) into $CARGO_TARGET_DIR, default
.bench_build. Every run then executes the driver, which prints a report and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is non-zero when a correctness
check fails, when the metrics do not match BENCHMARK.json, or when the
library sources are not there to build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found next to perfbench/; "
                "run from a full source checkout")
            return None
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "sstore_bench", "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "sstore_bench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(build_dir(), "out"), *extra]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, "", None
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return res.returncode, res.stdout, result


def metric_errors(result, trace):
    """Names missing, unexpected, or with the wrong unit."""
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    errors = [f"missing metric {n}" for n in want if n not in got]
    errors += [f"unexpected metric {n}" for n in got if n not in want]
    errors += [f"metric {n} has unit {got[n]}, expected {u}"
               for n, u in want.items() if n in got and got[n] != u]
    return errors


def main_run(args):
    binary = build()
    if binary is None:
        return 2
    code, out, result = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if result is None:
        log("perfbench: the driver printed no result")
        return code or 1
    errors = metric_errors(result, args.trace)
    if errors:
        print("perfbench: result does not match BENCHMARK.json: " + "; ".join(errors))
        return 1
    return code


# ---- Self-test ---------------------------------------------------------------

# Workload -> checks that fail on the current library (known defects, see
# perfbench/README.md). The self-test expects exactly these to fail, so a fix
# shows up as an unexpected pass to be removed from this table.
KNOWN_FAILING = {
    "linear-road": {"lr_archived_1p_eq_2p"},
}
WORKLOADS = ["voter-wire", "voter-wire-ladder", "linear-road-2p", "voter-mp-durable",
             "linear-road"]


def check_lines(out):
    """{check name: passed} from the driver's report."""
    checks = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "check":
            checks[parts[1]] = checks.get(parts[1], True) and parts[2] == "ok"
    return checks


def self_test():
    binary = build()
    if binary is None:
        return 2
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        known = KNOWN_FAILING.get(workload, set())
        seen = {}
        for trace in (False, True):
            tag = f"{workload} trace={int(trace)}"
            code, out, result = run_driver(binary, workload, 1, 1, trace, ["--tiny"])
            expect(result is not None, f"{tag}: prints a JSON result")
            if result is None:
                continue
            for err in metric_errors(result, trace):
                expect(False, f"{tag}: {err}")
            expect(not metric_errors(result, trace), f"{tag}: every metric with its unit")
            checks = check_lines(out)
            seen.update({c: trace for c in checks})  # a run mode that reaches c
            failing = {c for c, ok in checks.items() if not ok}
            expect(failing == known, f"{tag}: failing checks {sorted(failing)} == known "
                                     f"{sorted(known)}")
            expect((code == 0) == (not known) and result["correct"] == (not known),
                   f"{tag}: exit code {code} and correct={result['correct']} agree")
        # Each check trips when fed a deliberately wrong result.
        for check in sorted(c for c in seen if c not in known):
            code, out, result = run_driver(binary, workload, 1, 1, seen[check],
                                           ["--tiny", "--corrupt", check])
            tripped = check_lines(out).get(check) is False
            expect(tripped and code != 0 and result is not None and not result["correct"],
                   f"{workload}: check {check} trips on a wrong result (exit {code})")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny runs of every workload, metric and check coverage")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
