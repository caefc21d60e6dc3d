#!/usr/bin/env python3
"""Unit tests for bench_diff.py, run under ctest (label: observability).

Each case writes two small reports to a temporary directory, runs
bench_diff.py on them as a subprocess and checks its exit code and the
lines it prints.

Usage: bench_diff_test.py   (or python3 -m unittest tools/bench_diff_test.py)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("old.json", old), ("new.json", new)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run([sys.executable, BENCH_DIFF, *paths],
                                  capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout.splitlines()

    def test_equal_documents_exit_zero(self):
        doc = {"bench": "x", "jobs": [{"name": "a", "elapsed_s": 1.5}]}
        code, lines = self.run_diff(doc, doc)
        self.assertEqual(code, 0)
        self.assertEqual(len(lines), 1)
        self.assertIn("parsed reports are equal", lines[0])

    def test_changed_leaf_prints_old_and_new(self):
        code, lines = self.run_diff({"config": {"seed": 1}},
                                    {"config": {"seed": 2}})
        self.assertEqual(code, 1)
        self.assertEqual(lines[0], "~ config.seed: 1 -> 2 (+100%)")
        self.assertEqual(lines[-1],
                         "1 difference: 0 added, 0 removed, 1 changed")

    def test_lists_match_by_name_not_position(self):
        old = {"jobs": [{"name": "a", "v": 1}, {"name": "b", "v": 2}]}
        new = {"jobs": [{"name": "b", "v": 3}, {"name": "a", "v": 1}]}
        code, lines = self.run_diff(old, new)
        self.assertEqual(code, 1)
        self.assertEqual(lines[:-1], ["~ jobs[b].v: 2 -> 3 (+50%)"])

    def test_one_sided_subtree_printed_once_at_its_root(self):
        old = {"scheduler": {"night": {"end_s": 4.0},
                             "series": [{"t": 1}, {"t": 2}]}}
        new = {"scheduler": {"night": {"end_s": 4.0}},
               "extra": {"a": 1, "b": {"c": 2}}}
        code, lines = self.run_diff(old, new)
        self.assertEqual(code, 1)
        self.assertEqual(lines, [
            "- scheduler.series (list, 2 items)",
            "+ extra (object, 2 keys)",
            "2 differences: 1 added, 1 removed, 0 changed",
        ])

    def test_headline_keys_sorted_first(self):
        old = {"config": {"seed": 1},
               "jobs": [{"name": "a", "elapsed_s": 2.0, "mb_per_s": 10.0}]}
        new = {"config": {"seed": 2},
               "jobs": [{"name": "a", "elapsed_s": 4.0, "mb_per_s": 5.0}]}
        code, lines = self.run_diff(old, new)
        self.assertEqual(code, 1)
        self.assertEqual(lines[:-1], [
            "~ jobs[a].mb_per_s: 10.0 -> 5.0 (-50%)",
            "~ jobs[a].elapsed_s: 2.0 -> 4.0 (+100%)",
            "~ config.seed: 1 -> 2 (+100%)",
        ])


if __name__ == "__main__":
    unittest.main()
