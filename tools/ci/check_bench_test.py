#!/usr/bin/env python3
"""Self-test of check_bench.py: repeated rows compare by their median.

Run directly or through ctest (check_bench_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the source tree clean.

import check_bench  # noqa: E402


def row(name, ms, run_type="iteration", **extra):
    return dict(name=name, run_name=name, run_type=run_type, real_time=ms,
                time_unit="ms", **extra)


class CheckBenchTest(unittest.TestCase):
    def write(self, rows):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump({"benchmarks": rows}, f)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def run_check(self, base, run):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "check_bench.py"),
             "--baseline", base, "--run", run, "--tolerance", "2.0"],
            capture_output=True, text=True).returncode

    def test_repetitions_use_the_median_not_the_last_row(self):
        path = self.write([row("BM_A", 1.0), row("BM_A", 9.0),
                           row("BM_A", 2.0),
                           row("BM_A_median", 2.0, "aggregate",
                               aggregate_name="median")])
        self.assertEqual(check_bench.load_benchmarks(path),
                         {"BM_A": 2.0e6})

    def test_one_slow_last_repetition_is_not_a_regression(self):
        base = self.write([row("BM_A", 1.0)])
        run = self.write([row("BM_A", 1.1), row("BM_A", 1.2),
                          row("BM_A", 5.0)])
        self.assertEqual(self.run_check(base, run), 0)

    def test_a_slow_median_is_a_regression(self):
        base = self.write([row("BM_A", 1.0)])
        run = self.write([row("BM_A", 0.9), row("BM_A", 5.0),
                          row("BM_A", 6.0)])
        self.assertEqual(self.run_check(base, run), 1)


if __name__ == "__main__":
    unittest.main()
