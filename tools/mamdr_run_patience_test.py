#!/usr/bin/env python3
"""End-to-end test of ``mamdr_run --patience``.

After an early stop, the final per-domain test table must report the best
epoch's parameters, not the last epoch's: its mean test AUC equals the test
AUC printed on the best epoch's line. For MAMDR that needs θS and every θd
in the store restored, not only the model. Frameworks that keep one full
parameter copy per domain are rejected at flag parsing with exit code 2.

Run via ctest, or directly:
``python3 tools/mamdr_run_patience_test.py build/tools/mamdr_run``.
"""

import re
import subprocess
import sys
import unittest

MAMDR_RUN = None  # set from argv in __main__
BASE_ARGS = ["--scale", "0.1", "--epochs", "12", "--patience", "1",
             "--inner-lr", "0.01"]


class PatienceTest(unittest.TestCase):

    def run_tool(self, *args):
        return subprocess.run([MAMDR_RUN, *BASE_ARGS, *args],
                              capture_output=True, text=True, timeout=300)

    def check_reports_best_epoch(self, framework):
        proc = self.run_tool("--framework", framework)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = proc.stdout
        test_auc = {int(e): auc for e, auc in re.findall(
            r"^epoch +(\d+)/\d+ +val AUC [\d.]+ +test AUC ([\d.]+)$", out,
            re.M)}
        stop = re.search(r"early stop: .*\(best epoch (\d+),", out)
        self.assertIsNotNone(stop, out)
        best = int(stop.group(1))
        last = max(test_auc)
        # The check is only telling if the last epoch scored differently.
        self.assertLess(best, last, out)
        self.assertNotEqual(test_auc[best], test_auc[last], out)
        final = re.search(r"^  mean test AUC ([\d.]+)$", out, re.M)
        self.assertIsNotNone(final, out)
        self.assertEqual(final.group(1), test_auc[best], out)

    def test_alternate_reports_best_epoch(self):
        self.check_reports_best_epoch("Alternate")

    def test_mamdr_restores_store_of_best_epoch(self):
        self.check_reports_best_epoch("MAMDR")

    def test_per_domain_copy_frameworks_are_rejected(self):
        for framework in ("Separate", "CDR-Transfer", "Alternate+Finetune"):
            with self.subTest(framework=framework):
                proc = self.run_tool("--framework", framework)
                self.assertEqual(proc.returncode, 2, proc.stdout)
                self.assertIn("--patience", proc.stderr)
                self.assertNotIn("training", proc.stdout)


if __name__ == "__main__":
    MAMDR_RUN = sys.argv.pop(1)
    unittest.main()
