#!/usr/bin/env python3
"""Unit tests for check_trace.py report mode, run under ctest (label:
observability).

Each case writes a small report to a temporary directory, runs
`check_trace.py report` on it as a subprocess and checks the exit code and
the message. One case passes; every other case breaks one rule of the
report contract and must fail naming it.

Usage: check_trace_test.py   (or python3 -m unittest tools/check_trace_test.py)
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_trace.py")

GOOD = {
    "bench": "x",
    "sim_elapsed_s": 10.0,
    "config": {"seed": 1},
    "jobs": [{
        "name": "a",
        "status": "OK",
        "elapsed_s": 10.0,
        "mb_per_s": 5.0,
        "faults": {},
        "phases": [{"name": "p", "cpu_utilization": 0.5}],
    }],
    "scheduler": {
        "night": {"start_s": 0, "end_s": 10.0, "makespan_s": 10.0},
        "counters": {"deadline_hits": 1, "deadline_misses": 1},
        "volumes": [{"name": "v0", "finished_s": 4.0},
                    {"name": "v1", "finished_s": 10.0}],
    },
}


class CheckReportTest(unittest.TestCase):
    def run_check(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_x.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            proc = subprocess.run(
                [sys.executable, CHECK_TRACE, "report", path],
                capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_fails(self, doc, message):
        code, out = self.run_check(doc)
        self.assertEqual(code, 1, out)
        self.assertIn(message, out)

    def test_good_report_passes(self):
        code, out = self.run_check(GOOD)
        self.assertEqual(code, 0, out)
        self.assertIn("OK — 1 jobs, 2 scheduled volumes", out)

    def test_missing_jobs_fails(self):
        doc = copy.deepcopy(GOOD)
        del doc["jobs"]
        self.assert_fails(doc, "missing top-level key 'jobs'")

    def test_empty_jobs_fails(self):
        doc = copy.deepcopy(GOOD)
        doc["jobs"] = []
        self.assert_fails(doc, "jobs missing or empty")

    def test_job_not_ok_fails(self):
        doc = copy.deepcopy(GOOD)
        doc["jobs"][0]["status"] = "IO_ERROR: tape"
        self.assert_fails(doc, "status 'IO_ERROR: tape'")

    def test_phase_cpu_outside_unit_interval_fails(self):
        for u in (-0.01, 1.01):
            doc = copy.deepcopy(GOOD)
            doc["jobs"][0]["phases"][0]["cpu_utilization"] = u
            self.assert_fails(doc, "outside [0, 1]")

    def test_unknown_top_level_key_fails(self):
        doc = copy.deepcopy(GOOD)
        doc["metrics"] = {"counters": [], "gauges": [], "histograms": []}
        self.assert_fails(doc, "unexpected top-level key 'metrics'")

    def test_scheduler_hits_plus_misses_not_volumes_fails(self):
        doc = copy.deepcopy(GOOD)
        doc["scheduler"]["counters"]["deadline_misses"] = 0
        self.assert_fails(doc, "1 deadline hits + misses for 2 volumes")


if __name__ == "__main__":
    unittest.main()
