#!/usr/bin/env python3
"""End-to-end test of ``mamdr_run --kernel-threads``.

The flag only sets how many domains one evaluation scores at once, so it
must not change a single byte of the run's stdout or of its
``--metrics-out`` document. MAMDR installs θS + θd per domain before
scoring, so its parallel evaluation scores on replicas of the model; STAR
adds per-domain moving statistics that those replicas must carry too.

Run via ctest, or directly:
``python3 tools/mamdr_run_kernel_threads_test.py build/tools/mamdr_run``.
"""

import os
import subprocess
import sys
import tempfile
import unittest

MAMDR_RUN = None  # set from argv in __main__
BASE_ARGS = ["--scale", "0.1", "--epochs", "3"]


class KernelThreadsTest(unittest.TestCase):

    def run_tool(self, threads, *args):
        with tempfile.TemporaryDirectory() as tmp:
            metrics = os.path.join(tmp, "metrics.json")
            proc = subprocess.run(
                [MAMDR_RUN, *BASE_ARGS, *args, "--kernel-threads",
                 str(threads), "--metrics-out", metrics],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(metrics, "rb") as f:
                return proc.stdout, f.read()

    def check_same_output(self, *args):
        serial_out, serial_metrics = self.run_tool(1, *args)
        parallel_out, parallel_metrics = self.run_tool(4, *args)
        self.assertIn("mean test AUC", serial_out)
        self.assertEqual(parallel_out, serial_out)
        self.assertEqual(parallel_metrics, serial_metrics)

    def test_mamdr_mlp_taobao10(self):
        self.check_same_output("--dataset", "taobao10", "--framework",
                               "MAMDR", "--model", "MLP")

    def test_mamdr_star_amazon6(self):
        self.check_same_output("--dataset", "amazon6", "--framework",
                               "MAMDR", "--model", "STAR")


if __name__ == "__main__":
    MAMDR_RUN = sys.argv.pop(1)
    unittest.main()
