#!/usr/bin/env python3
"""A/B gate over benchsuite workloads: run two sides, compare them, pass on the verdict.

    python3 tools/bench_ab.py --workload conv_table1 --workload rn50_mn \\
        --a-root ../base --b-root . --out ab

A side is a repository root plus an environment overlay (``--a-env NAME=VALUE``,
repeatable; ``--b-env`` likewise), so one root against itself with different
knobs is an A/B too. For each workload and each of the ten SEEDS both sides run
``benchsuite/run.py --workload W --seed S --seconds T`` in their own root
(run.py builds ``.bench_build/`` there), T being side B's
``BENCHMARK.json`` ``run_seconds``. The side that runs first alternates
from one seed to the next, so a drift in host load hits both sides alike. Each
run's result line is written to ``<out>/A/<workload>.<seed>.json`` (``B/`` for
side B); then side B's ``benchsuite/compare_runs.py`` prints its table and its
exit code is passed on. ``--waive METRIC`` lets that metric's WORSE and
UNRESOLVED rows through (they are still printed); a failed run never passes.

For ``conv_table1`` each side also runs traced passes (``--trace 1``) for the
first three seeds, into ``<out>/<side>/trace/``, and a per-layer tripwire takes
each ``core.rn50_LNN.{fwd,bwd,upd}_gflops`` row's B/A ratio of per-side medians
and fails every row below 0.5 times the median ratio. A uniform speed change
cancels; one layer falling off a cliff, which moves the aggregate
``conv_gflops`` by only a few percent, fails. The median over three traced runs
keeps one process's placement luck (single layers read up to 2x apart between
processes of one build) from firing it.

Exits with compare_runs.py's code, or 1 when a run fails or the tripwire fires.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

# Ten pairs: with five, compare_runs.py's upper quartile lies halfway between
# the 4th and 5th values, so one slow process widens a side's spread past the
# bound (UNRESOLVED); with ten it lies between the 8th and 9th and one slow
# process does not move it.
SEEDS = tuple(range(1, 11))
# conv_table1's traced per-layer rows, which the tripwire checks.
TRIPWIRE_ROW = re.compile(r"core\.rn50_L\d+\.(fwd|bwd|upd)_gflops")
TRACE_RUNS = 3  # traced passes per side; the tripwire compares their medians
FLOOR = 0.5  # a row fails below FLOOR x the median B/A ratio


def log(msg: str) -> None:
    print(f"bench_ab: {msg}", file=sys.stderr, flush=True)


def env_overlay(pairs: list[str]) -> dict:
    out = {}
    for p in pairs:
        name, sep, value = p.partition("=")
        if not sep or not name:
            raise SystemExit(f"bench_ab: --*-env wants NAME=VALUE, got {p!r}")
        out[name] = value
    return out


def run_once(root: Path, env: dict, workload: str, seed: int, seconds: float,
             trace: bool, dest: Path) -> dict:
    """Run one benchsuite run in `root`; write its result line to `dest`."""
    cmd = [sys.executable, str(root / "benchsuite" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=root, env={**os.environ, **env},
                          stdout=subprocess.PIPE, text=True, check=False)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise RuntimeError(f"run failed (exit {done.returncode}): "
                           f"{' '.join(cmd)} in {root}")
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(lines[-1] + "\n")
    return result


def run_pairs(sides: list, workload: str, seeds: tuple, seconds: float,
              trace: bool, out: Path) -> dict:
    """Run every seed on both sides, alternating which goes first.

    Returns {side name: [result, ...]} and writes the result files."""
    results = {name: [] for name, _, _ in sides}
    sub = "trace" if trace else ""
    for i, seed in enumerate(seeds):
        for name, root, env in (sides if i % 2 == 0 else sides[::-1]):
            log(f"{name} {workload} seed {seed}{' traced' if trace else ''}")
            dest = out / name / sub / f"{workload}.{seed}.json"
            results[name].append(
                run_once(root, env, workload, seed, seconds, trace, dest))
    return results


def tripwire(a_runs: list[dict], b_runs: list[dict]) -> tuple[bool, list[str]]:
    """Per-row B/A ratio of per-side medians against FLOOR x median ratio."""
    def medians(runs):
        rows: dict = {}
        for r in runs:
            for name, m in r["metrics"].items():
                if TRIPWIRE_ROW.fullmatch(name):
                    rows.setdefault(name, []).append(m["value"])
        return {k: statistics.median(v) for k, v in rows.items()}

    if any(not r["correct"] or r["failed"] for r in a_runs + b_runs):
        return False, ["tripwire: FAIL: a traced run failed its checks"]
    a, b = medians(a_runs), medians(b_runs)
    common = sorted(k for k in set(a) & set(b) if a[k] > 0)
    if not common:
        return False, ["tripwire: FAIL: no per-layer rows in common"]
    ratios = {k: b[k] / a[k] for k in common}
    med = statistics.median(ratios.values())
    cutoff = FLOOR * med
    lines = [f"tripwire: FAIL: {k}: B {b[k]:.1f} vs A {a[k]:.1f} (ratio "
             f"{ratios[k]:.2f} < {FLOOR} x median {med:.2f})"
             for k in common if ratios[k] < cutoff]
    worst = min(common, key=ratios.get)
    lines.append(f"tripwire: {'FAIL' if lines else 'PASS'}: {len(common)} rows, "
                 f"median B/A {med:.2f}, worst {worst} {ratios[worst]:.2f}, "
                 f"cutoff {cutoff:.2f}")
    return len(lines) == 1, lines


def compare(b_root: Path, a_files: list[Path], b_files: list[Path],
            waive: set[str]) -> int:
    """Run compare_runs.py; pass its exit code on, less the waived rows."""
    done = subprocess.run(
        [sys.executable, str(b_root / "benchsuite" / "compare_runs.py"),
         *map(str, a_files), "--", *map(str, b_files)],
        stdout=subprocess.PIPE, text=True, check=False)
    print(done.stdout, end="", flush=True)
    if done.returncode != 1 or not waive:
        return done.returncode
    bad, failed = [], False
    for line in done.stdout.splitlines():
        parts = line.split()
        failed |= line.startswith("FAILED RUN")
        if len(parts) > 2 and parts[-1] in ("WORSE", "UNRESOLVED"):
            bad.append(parts[1])
    if failed or not bad or set(bad) - waive:
        return done.returncode
    log(f"waived {', '.join(sorted(set(bad)))}: every other row passes")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--a-root", type=Path, required=True)
    ap.add_argument("--b-root", type=Path, required=True)
    ap.add_argument("--a-env", action="append", default=[])
    ap.add_argument("--b-env", action="append", default=[])
    ap.add_argument("--out", type=Path, default=Path("bench_ab"))
    ap.add_argument("--waive", action="append", default=[])
    a = ap.parse_args(argv)

    sides = [("A", a.a_root.resolve(), env_overlay(a.a_env)),
             ("B", a.b_root.resolve(), env_overlay(a.b_env))]
    seconds = json.loads((sides[1][1] / "BENCHMARK.json").read_text())[
        "run_seconds"]
    tripped = False
    try:
        for w in a.workload:
            run_pairs(sides, w, SEEDS, seconds, False, a.out)
            if w == "conv_table1":
                traced = run_pairs(sides, w, SEEDS[:TRACE_RUNS], seconds, True,
                                   a.out)
                ok, lines = tripwire(traced["A"], traced["B"])
                print(f"{w} per-layer tripwire", *lines, sep="\n", flush=True)
                tripped |= not ok
    except RuntimeError as e:
        log(str(e))
        return 1
    files = {name: [a.out / name / f"{w}.{s}.json"
                    for w in a.workload for s in SEEDS]
             for name, _, _ in sides}
    rc = compare(sides[1][1], files["A"], files["B"], set(a.waive))
    return rc if rc else int(tripped)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
