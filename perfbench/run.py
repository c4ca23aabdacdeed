#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <p2p|coll|sessions|ckpt> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seconds <s>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the sessmpi
libraries from src/ plus the driver) in Release mode under .bench_build/;
later calls rebuild incrementally. Build output goes to stderr. The
driver's report goes to stdout, and its last line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

--workload all runs the four workloads in turn and ends with every
workload's figures under their own names (lat_8B_us, allreduce_8B_us, ...)
and the failed operations of all of them.

--selftest runs every workload briefly and checks that each metric named
in BENCHMARK.json is printed, finite and carries its unit, that the bypass
predictions hold, and that a deliberately wrong expected value is reported
as a failed operation.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
DRIVER = BUILD / "perfbench_driver"
TRACE_DIR = BUILD / "traces"
WORKLOADS = ["p2p", "coll", "sessions", "ckpt"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the driver; exit non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ beside perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             cwd=ROOT, check=False)
        if res.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_driver(args, echo=True):
    """Run the driver; return (result dict, stdout lines)."""
    cmd = [str(DRIVER), *args, "--trace-dir", str(TRACE_DIR)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver timed out after {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines:
        sys.exit(f"perfbench: driver exited with code {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: driver printed no JSON result")
    if echo:
        print("\n".join(lines[:-1]))
    return result, lines


def selftest():
    """Tiny runs of every workload; return the number of failed checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def check_metrics(tag, result, wanted, nonzero):
        got = result["metrics"]
        expect(set(got) == set(wanted), f"{tag}: metric names match BENCHMARK.json")
        for name, unit in wanted.items():
            m = got.get(name, {})
            value = m.get("value")
            finite = isinstance(value, (int, float)) and math.isfinite(value)
            expect(finite and (value > 0 or not nonzero) and m.get("unit") == unit,
                   f"{tag}: {name} = {value} {m.get('unit')}")

    tiny = ["--seed", "7", "--seconds", "1", "--setup-reps", "2"]
    for w in WORKLOADS:
        res, _ = run_driver(["--workload", w, *tiny, "--trace", "0"], echo=False)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{w}: untraced run correct with no failed ops")
        check_metrics(w, res, e2e, nonzero=True)

        res, _ = run_driver(["--workload", w, *tiny, "--trace", "1"], echo=False)
        expect(res["correct"] and res["failed"] == 0,
               f"{w}: traced run correct with no failed ops")
        check_metrics(f"{w} traced", res, layer, nonzero=False)
        got = res["metrics"]
        if w == "p2p":
            coll = [n for n in got if n.startswith("coll.") and got[n]["value"] != 0]
            expect(not coll, f"p2p: coll counts are zero in the timed phase {coll}")
        if w != "ckpt":
            ck = [n for n in got if n.startswith("ckpt.") and got[n]["value"] != 0]
            expect(not ck, f"{w}: ckpt counts are zero {ck}")
        expect(got["obs.trace_overhead_ratio"]["value"] > 0,
               f"{w}: obs.trace_overhead_ratio reported")

        res, _ = run_driver(["--workload", w, *tiny, "--trace", "0",
                             "--wrong-expected"], echo=False)
        expect(not res["correct"] and res["failed"] >= 1,
               f"{w}: a wrong expected value is reported as a failed op")
    print(f"selftest: {len(problems)} failed check(s)")
    return len(problems)


def run_all(seed, seconds, trace):
    """Every workload in turn; the result lists each one's named figures."""
    named = {}
    attempted = failed = 0
    correct = True
    for w in WORKLOADS:
        result, lines = run_driver(["--workload", w, "--seed", str(seed),
                                    "--seconds", str(seconds),
                                    "--trace", str(trace)])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit = line.split()
                named[name] = {"value": float(value), "unit": unit}
    print("\nall workloads:")
    for name, m in named.items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
    print(f"  {attempted} ops attempted, {failed} failed")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": named}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    build()
    if a.selftest:
        sys.exit(1 if selftest() else 0)
    if a.workload == "all":
        result = run_all(a.seed, a.seconds, a.trace)
    else:
        result, _ = run_driver(["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds),
                                "--trace", str(a.trace)])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
