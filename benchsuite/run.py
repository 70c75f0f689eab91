#!/usr/bin/env python3
"""Build and run one xconv benchmark workload; print its result as JSON.

    python3 benchsuite/run.py --workload rn50_train --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository. The script builds
``bench_suite`` from source into ``.bench_build/`` at the repository root
(``cmake -S benchsuite -B .bench_build``; a no-op once built), runs the
workload and prints the program's own output followed, as the last line, by
one JSON object::

    {"correct": true, "attempted": 57, "failed": 0,
     "metrics": {"img_s": {"value": 10.1, "unit": "img/s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; ``setup_s``
is the median set-up time of three fresh processes (the JIT kernel cache is
per process, so only a fresh process pays the full set-up). ``--trace 1``
runs the traced pass instead, reports the per-layer metrics and leaves the
spans in ``.bench_build/traces/<workload>-<seed>.trace.json``.

Exits non-zero without printing a result when the program cannot be built or
run (for example outside a full checkout) or does not report every metric.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_suite"
SETUP_PROCESSES = 3  # setup_s is the median over this many fresh processes
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build() -> None:
    """Configure once, then build incrementally; cmake output goes to stderr."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise RuntimeError(f"{ROOT / needed} is missing: not a full checkout")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "bench_suite"])
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_suite(args: list[str]) -> tuple[int, dict, int, int]:
    """Run bench_suite; return (exit code, metrics, attempted, failed)."""
    done = subprocess.run([str(BINARY), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    metrics: dict = {}
    counts = {"attempted": -1, "failed": -1}
    for line in done.stdout.splitlines():
        print(line)
        parts = line.split()
        if len(parts) == 2 and parts[0] in counts:
            counts[parts[0]] = int(parts[1])
        elif len(parts) == 3 and not line.startswith("#"):
            metrics[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return done.returncode, metrics, counts["attempted"], counts["failed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {a.workload}")
        return 2
    try:
        build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 2

    common = [f"--workload={a.workload}", f"--seed={a.seed}"]
    setup_s = []
    if not a.trace:
        for _ in range(SETUP_PROCESSES - 1):
            code, m, _, _ = run_suite(common + ["--setup-only"])
            if code != 0 or "setup_s" not in m:
                log("set-up run failed")
                return 1
            setup_s.append(m["setup_s"]["value"])
    extra = [f"--seconds={a.seconds}"]
    if a.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        extra.append(f"--trace={traces / f'{a.workload}-{a.seed}.trace.json'}")
    code, metrics, attempted, failed = run_suite(common + extra)
    if attempted < 1 or failed < 0:
        log(f"bench_suite exited with {code} before reporting its counts")
        return 1

    wanted = spec["per_layer" if a.trace else "end_to_end"]
    if not a.trace and "setup_s" in metrics:
        setup_s.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_s)
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            log(f"metric {m['name']} missing, non-finite or not in {m['unit']}: {got}")
            return 1
        out[m["name"]] = got
    result = {"correct": code == 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
