#!/usr/bin/env python3
"""Tests for tools/bench_compare.py and tools/bench_merge.py.

Run directly (python3 tools/test_bench_tools.py) or through ctest, which
registers it as bench_tools.  Every case builds its inputs from the committed
BENCH_kernels.json baseline in a temporary directory.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(os.path.dirname(TOOLS), "BENCH_kernels.json")


def run_tool(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, script), *args],
        capture_output=True, text=True)


class BenchToolsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        with open(BASELINE) as f:
            self.baseline = json.load(f)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, data):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def compare(self, candidate):
        return run_tool("bench_compare.py", BASELINE,
                        self.write("candidate.json", candidate))

    def test_self_compare_passes(self):
        result = run_tool("bench_compare.py", BASELINE, BASELINE)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_slower_results_entry_fails_and_is_named(self):
        candidate = copy.deepcopy(self.baseline)
        slow = candidate["results"][5]
        slow["seconds_per_call"] *= 1.2
        result = self.compare(candidate)
        self.assertEqual(result.returncode, 1)
        self.assertIn(f"{slow['name']} {slow['kind']} {slow['impl']} "
                      f"{slow['shape']}", result.stderr)
        self.assertIn("1.20x slower", result.stderr)

    def test_dropped_results_entry_fails(self):
        candidate = copy.deepcopy(self.baseline)
        dropped = candidate["results"].pop(3)
        result = self.compare(candidate)
        self.assertEqual(result.returncode, 1)
        self.assertIn(f"{dropped['name']} {dropped['kind']} {dropped['impl']} "
                      f"{dropped['shape']}", result.stderr)
        self.assertIn("missing in candidate", result.stderr)

    def test_slower_cache_only_candidate_passes(self):
        cache = copy.deepcopy(self.baseline["cache"])
        for entry in cache:
            entry["seconds_per_call"] *= 4.0
        result = self.compare({"schema": self.baseline["schema"],
                               "cache": cache})
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("4.00x", result.stdout)

    def test_merge_replaces_matched_and_appends_new(self):
        base = {"schema": self.baseline["schema"],
                "cache": copy.deepcopy(self.baseline["cache"][:2])}
        replaced = dict(base["cache"][0], seconds_per_call=9.5)
        added = dict(base["cache"][1], shape="1x1")
        extra = {"schema": self.baseline["schema"],
                 "cache": [replaced, added]}
        base_path = self.write("base.json", base)
        result = run_tool("bench_merge.py", base_path,
                          self.write("extra.json", extra))
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(base_path) as f:
            merged = json.load(f)["cache"]
        self.assertEqual(merged, [replaced, base["cache"][1], added])


if __name__ == "__main__":
    unittest.main()
