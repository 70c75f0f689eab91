#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric, with BENCHMARK.json's bounds.

    python3 benchsuite/compare_runs.py A/*.json -- B/*.json

Each file holds one run's result line from ``run.py`` and is named
``<workload>.<seed>.json``. A is the baseline (the parent commit), B the
change. For every (workload, metric) pair the table shows each side's median
and quartiles and a verdict:

* UNRESOLVED -- either side's quartile spread (as a share of its median) is
  wider than the metric's bound, so the runs cannot tell a change of that
  size from noise; unless every B run beats every A run (then BETTER).
* WORSE -- B's median is worse than A's by more than the bound.
* BETTER -- B wins at least nine tenths of the runs paired by seed (of all
  A x B pairs when no seed is shared; ties count for neither) and the medians
  differ by more than A's quartile spread.
* UNCHANGED -- otherwise.

Per-layer metrics (from ``--trace 1`` runs) have no bound; their rows carry
the verdict ``-``. Exits 1 when any end-to-end row is WORSE or UNRESOLVED or
any run failed a check, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text())


def load(paths: list[str]) -> tuple[dict, list[str]]:
    """{(workload, metric): {seed: value}} and the names of failed runs."""
    runs: dict = defaultdict(dict)
    failed = []
    for p in paths:
        workload, seed = Path(p).name.split(".")[:2]
        lines = [l for l in Path(p).read_text().splitlines() if l.strip()]
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            failed.append(p)
        for name, m in result["metrics"].items():
            runs[(workload, name)][seed] = m["value"]
    return runs, failed


def verdict(a: dict, b: dict, better: str, bound: float | None) -> tuple[str, float]:
    """Verdict for B against A, and B's median change as a share of A's."""
    va, vb = list(a.values()), list(b.values())
    ma, mb = statistics.median(va), statistics.median(vb)
    change = (mb - ma) / ma if ma else 0.0
    if bound is None:
        return "-", change
    sign = 1 if better == "higher" else -1  # sign * (x - y) > 0: x beats y
    qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
    spread = max((qa[2] - qa[0]) / ma if ma else 0.0,
                 (qb[2] - qb[0]) / mb if mb else 0.0)
    all_better = all(sign * (y - x) > 0 for x in va for y in vb)
    if spread > bound:
        return ("BETTER" if all_better else "UNRESOLVED"), change
    if -sign * change > bound:
        return "WORSE", change
    seeds = sorted(set(a) & set(b))
    pairs = ([(a[s], b[s]) for s in seeds] if seeds
             else [(x, y) for x in va for y in vb])  # unpaired: every pair
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return "BETTER", change
    return "UNCHANGED", change


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    (a, failed_a), (b, failed_b) = load(argv[:cut]), load(argv[cut + 1:])
    bounds = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in SPEC["per_layer"]})

    bad = 0
    fmt = "{:<12} {:<28} {:>34} {:>34} {:>8} {:>6} {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "change", "bound", "verdict"))
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in bounds or len(a[key]) < 2 or len(b[key]) < 2:
            continue
        better, bound = bounds[name]
        v, change = verdict(a[key], b[key], better, bound)
        bad += v in ("WORSE", "UNRESOLVED")
        cols = []
        for side in (a[key], b[key]):
            q = statistics.quantiles(list(side.values()), n=4)
            cols.append(f"{statistics.median(side.values()):.4g} "
                        f"[{q[0]:.4g}, {q[2]:.4g}] n={len(side)}")
        print(fmt.format(workload, name, *cols, f"{100 * change:+.2f}%",
                         "-" if bound is None else f"{100 * bound:.0f}%", v))
    for p in failed_a + failed_b:
        print(f"FAILED RUN: {p}")
    return 1 if bad or failed_a or failed_b else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
