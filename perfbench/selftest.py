"""Self-test of the benchmark itself, at toy size.

    python3 perfbench/selftest.py

Checks that every workload runs, that each run prints exactly the
metrics BENCHMARK.json names with their units, and that a wrong answer
reaching the benchmark's checker is counted as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the path above)
from pace import Pace  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# A plausible wrong answer for the first request of each workload.
CORRUPT = {
    "pds_exhaustive": lambda a: (a[0], a[1][:-1]),
    "lower_bound": lambda a: (a[0] + 1, a[1]),
    "subset_lattice": lambda a: (a[0][:-1] + (1 - a[0][-1],),) + a[1:],
    "small_queries": lambda a: (a[0], a[1] + "result.extra: 1\n"),
}


class Contract(unittest.TestCase):

    def run_cli(self, workload, seed, trace):
        done = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--toy"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.splitlines()[-1])

    def test_workloads_emit_every_named_metric_with_its_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            for workload in run.WORKLOADS:
                # trace 0 and trace 1 use different seeds: two seeds pass.
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_cli(workload, seed=1 + trace, trace=trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_wrong_answer_is_counted_failed(self):
        run.WORK.mkdir(exist_ok=True)
        cwd = os.getcwd()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
                tracer = Tracer(False)
                wl = workloads.build(workload, 5, True, Path(workdir), tracer)
                first = wl.ops[0]
                real_run = first.run
                first.run = lambda tr: CORRUPT[workload](real_run(tr))
                os.chdir(workdir)
                try:
                    errors = []
                    stats = run.measure(wl, 0, tracer, Pace(), errors)
                finally:
                    os.chdir(cwd)
                self.assertEqual(stats.failed, stats.passes)
                self.assertEqual(stats.attempted, stats.passes * len(wl.ops))
                self.assertTrue(all(e.startswith(first.name) for e in errors))

    def test_result_line_reports_failures(self):
        line = json.loads(run.result_line({"attempted": 4, "failed": 1,
                                           "metrics": {}}))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)


if __name__ == "__main__":
    unittest.main()
