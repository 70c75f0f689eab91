#!/usr/bin/env python3
"""Self-tests for tools/bench_ab.py against a fake benchsuite: run order,
result-file naming, exit-code pass-through and the per-layer tripwire. Run with

    python3 tools/lint/test_bench_ab.py
"""

import json
import os
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import bench_ab  # noqa: E402

# Logs each call, then prints a noise line and a result line. Traced runs
# report per-layer rows scaled by FAKE_SCALE, with FAKE_CLIFF's row at 0.3x.
FAKE_RUN = textwrap.dedent("""\
    import argparse, json, os
    ap = argparse.ArgumentParser()
    for f in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(f)
    a = ap.parse_args()
    with open(os.environ["FAKE_LOG"], "a") as f:
        f.write(f"{os.environ['FAKE_SIDE']} {a.workload} {a.seed} {a.trace} "
                f"{a.seconds}\\n")
    scale = float(os.environ.get("FAKE_SCALE", "1"))
    metrics = {"img_s": {"value": 10.0, "unit": "img/s"}}
    if a.trace == "1":
        for lid in range(1, 21):
            for p in ("fwd", "bwd", "upd"):
                name = f"core.rn50_L{lid:02d}.{p}_gflops"
                cut = 0.3 if name == os.environ.get("FAKE_CLIFF") else 1.0
                metrics[name] = {"value": 100.0 * lid * scale * cut,
                                 "unit": "GFLOPS"}
    print("bench_suite output")
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}))
""")

# Records its arguments, prints a table row and exits with FAKE_COMPARE_RC.
FAKE_COMPARE = textwrap.dedent("""\
    import json, os, sys
    with open(os.environ["FAKE_LOG"] + ".compare", "w") as f:
        json.dump(sys.argv[1:], f)
    print("conv_table1 setup_s 0.1 [0.1, 0.1] n=2 0.2 [0.2, 0.2] n=2 +50% 25% "
          + os.environ.get("FAKE_VERDICT", "UNCHANGED"))
    sys.exit(int(os.environ.get("FAKE_COMPARE_RC", "0")))
""")


class BenchAbTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)
        for side in ("a", "b"):
            suite = self.tmp / side / "benchsuite"
            suite.mkdir(parents=True)
            (suite / "run.py").write_text(FAKE_RUN)
            (suite / "compare_runs.py").write_text(FAKE_COMPARE)
            (self.tmp / side / "BENCHMARK.json").write_text('{"run_seconds": 7}')
        self.log = self.tmp / "calls.log"
        self._env = dict(os.environ)
        os.environ["FAKE_LOG"] = str(self.log)
        self._seeds = bench_ab.SEEDS
        bench_ab.SEEDS = (1, 2, 3)

    def tearDown(self):
        bench_ab.SEEDS = self._seeds
        os.environ.clear()
        os.environ.update(self._env)
        self._tmp.cleanup()

    def run_ab(self, *extra, workload="rn50_mn", b_env=()):
        argv = ["--workload", workload,
                "--a-root", str(self.tmp / "a"), "--b-root", str(self.tmp / "b"),
                "--a-env", "FAKE_SIDE=A", "--b-env", "FAKE_SIDE=B",
                "--out", str(self.tmp / "out"), *extra]
        for e in b_env:
            argv += ["--b-env", e]
        return bench_ab.main(argv)

    def calls(self):
        return [l.split() for l in self.log.read_text().splitlines()]

    def test_first_side_alternates_by_seed(self):
        self.assertEqual(self.run_ab(), 0)
        self.assertEqual([c[:3] for c in self.calls()],
                         [["A", "rn50_mn", "1"], ["B", "rn50_mn", "1"],
                          ["B", "rn50_mn", "2"], ["A", "rn50_mn", "2"],
                          ["A", "rn50_mn", "3"], ["B", "rn50_mn", "3"]])
        # Run length comes from side B's BENCHMARK.json.
        self.assertEqual({c[4] for c in self.calls()}, {"7"})

    def test_result_files_named_workload_dot_seed(self):
        self.assertEqual(self.run_ab(), 0)
        out = self.tmp / "out"
        for side in ("A", "B"):
            self.assertEqual(sorted(p.name for p in (out / side).glob("*.json")),
                             ["rn50_mn.1.json", "rn50_mn.2.json",
                              "rn50_mn.3.json"])
            # Only the result line is kept, so compare_runs reads it as-is.
            r = json.loads((out / side / "rn50_mn.2.json").read_text())
            self.assertTrue(r["correct"])
        args = json.loads(Path(str(self.log) + ".compare").read_text())
        cut = args.index("--")
        self.assertEqual([Path(p).parent.name for p in args[:cut]], ["A"] * 3)
        self.assertEqual([Path(p).name for p in args[cut + 1:]],
                         ["rn50_mn.1.json", "rn50_mn.2.json", "rn50_mn.3.json"])

    def test_compare_exit_code_passed_through(self):
        for rc in (0, 1, 2):
            os.environ["FAKE_COMPARE_RC"] = str(rc)
            self.assertEqual(self.run_ab(), rc)

    def test_waived_metric_passes_only_when_alone(self):
        os.environ["FAKE_COMPARE_RC"] = "1"
        os.environ["FAKE_VERDICT"] = "UNRESOLVED"
        self.assertEqual(self.run_ab("--waive", "setup_s"), 0)
        self.assertEqual(self.run_ab("--waive", "img_s"), 1)

    def test_traced_passes_only_for_conv_table1(self):
        bench_ab.SEEDS = (1, 2, 3, 4)
        self.assertEqual(self.run_ab(workload="conv_table1"), 0)
        traced = [c for c in self.calls() if c[3] == "1"]
        self.assertEqual([c[:3] for c in traced],
                         [["A", "conv_table1", "1"], ["B", "conv_table1", "1"],
                          ["B", "conv_table1", "2"], ["A", "conv_table1", "2"],
                          ["A", "conv_table1", "3"], ["B", "conv_table1", "3"]])
        self.assertTrue((self.tmp / "out/B/trace/conv_table1.3.json").is_file())
        self.log.unlink()
        self.assertEqual(self.run_ab(), 0)
        self.assertNotIn("1", [c[3] for c in self.calls()])

    def test_tripwire_fires_on_one_layer_cliff(self):
        rc = self.run_ab(workload="conv_table1",
                         b_env=["FAKE_CLIFF=core.rn50_L07.bwd_gflops"])
        self.assertEqual(rc, 1)

    def test_tripwire_passes_uniform_slowdown(self):
        self.assertEqual(self.run_ab(workload="conv_table1",
                                     b_env=["FAKE_SCALE=0.6"]), 0)

    def test_tripwire_rows(self):
        def run(scale, cliff=None):
            m = {f"core.rn50_L{i:02d}.fwd_gflops":
                 {"value": 100.0 * i * scale * (0.3 if i == cliff else 1)}
                 for i in range(1, 21)}
            m["conv_gflops"] = {"value": 1.0}  # not a tripwire row
            return {"correct": True, "failed": 0, "metrics": m}

        ok, lines = bench_ab.tripwire([run(1)], [run(1, cliff=4)])
        self.assertFalse(ok)
        self.assertEqual(sum("FAIL: core.rn50_L04.fwd" in l for l in lines), 1)
        ok, lines = bench_ab.tripwire([run(1)], [run(0.6)])
        self.assertTrue(ok, lines)
        self.assertIn("20 rows", lines[-1])
        # Per-side medians: one cliff run of three on a side does not fire.
        ok, _ = bench_ab.tripwire([run(1)] * 3,
                                  [run(1, cliff=4), run(1), run(1)])
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
