#!/usr/bin/env python3
"""Smoke test of the benchmark at reduced size.

    python3 perfbench/test_smoke.py        (from the repository root)

For every workload, runs run.py --smoke untraced and then traced, and
checks that every metric BENCHMARK.json names is reported with its unit,
that the run is correct, that the trace file parses and its spans nest,
and that the traced run's answers match the untraced run's.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, lines, result, wanted):
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            # Printed by name, with its unit, on a human-readable line.
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                    for line in lines[:-1]), m["name"])

    def check_trace(self, path):
        events = json.loads(Path(path).read_text())["traceEvents"]
        self.assertTrue(events)
        by_id = {e["args"]["id"]: e for e in events}
        for e in events:
            parent = e["args"]["parent"]
            if parent == 0:
                continue
            p = by_id[parent]
            # Timestamps are printed to 1 ns.
            self.assertGreaterEqual(e["ts"] + 0.002, p["ts"], e)
            self.assertLessEqual(e["ts"] + e["dur"],
                                 p["ts"] + p["dur"] + 0.002, e)
        names = {e["name"] for e in events}
        self.assertTrue({"query", "serve.wave"} & names)

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines, result = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_metrics(lines, result, SPEC["end_to_end"])

                proc, lines, result = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_metrics(lines, result, SPEC["per_layer"])
                self.assertTrue(any(l.startswith("answer digests match")
                                    for l in lines), "digest comparison")
                self.assertTrue(any(l.strip().startswith("unattributed")
                                    for l in lines), "layer summary")
                trace = [l.split(" ", 1)[1] for l in lines
                         if l.startswith("trace: ")]
                self.assertEqual(len(trace), 1)
                self.check_trace(trace[0])


if __name__ == "__main__":
    unittest.main()
