#!/usr/bin/env python3
"""Unit tests for tools/mamdr_perfdiff.py.

Covers metric classification, regression-ratio direction, entry matching,
the warn/fail thresholds, and the end-to-end exit codes (including the
acceptance case: a synthetic 2x regression must exit non-zero).

Run directly (``python3 tools/mamdr_perfdiff_test.py``) or via ctest.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

import mamdr_perfdiff


def serving_doc(qps=1000.0, p99_us=400.0):
    return {
        "bench": "serving",
        "requests_per_sweep": 256,
        "entries": [{
            "threads": 1, "domains": 10, "requests": 256,
            "qps": qps, "mean_us": 200.0, "p50_us": 180.0,
            "p95_us": 350.0, "p99_us": p99_us,
        }],
    }


def sweep_doc(qps_by_threads, mode="per_request"):
    """A serving doc with one entry per (threads, qps) pair."""
    return {
        "bench": "serving",
        "entries": [{
            "mode": mode, "threads": t, "domains": 10, "requests": 256,
            "qps": q,
        } for t, q in qps_by_threads],
    }


def kernels_doc(ms=2.0, gflops=30.0):
    return {
        "bench": "kernels",
        "entries": [{
            "kernel": "matmul", "variant": "parallel",
            "m": 512, "k": 256, "n": 256, "threads": 4,
            "ms": ms, "gflops": gflops,
        }],
    }


class MetricClassification(unittest.TestCase):
    def test_metric_names(self):
        for name in ("ms", "gflops", "qps", "mean_us", "p50_us", "p99_us",
                     "total_ms", "scaling_efficiency"):
            self.assertTrue(mamdr_perfdiff.is_metric(name), name)
        for name in ("threads", "kernel", "variant", "m", "requests",
                     "domains", "mode"):
            self.assertFalse(mamdr_perfdiff.is_metric(name), name)

    def test_scaling_efficiency_is_higher_better(self):
        # Halving efficiency is a 2x regression; if scaling_efficiency were
        # ever treated as an identity field instead, entries would stop
        # matching their baseline and every diff would report missing
        # coverage — this test pins the metric classification.
        self.assertAlmostEqual(
            mamdr_perfdiff.regression_ratio(
                "scaling_efficiency", 1.0, 0.5), 2.0)

    def test_ratio_direction(self):
        # Lower-better: doubling the time is 2x worse.
        self.assertAlmostEqual(
            mamdr_perfdiff.regression_ratio("ms", 2.0, 4.0), 2.0)
        # Higher-better: halving the throughput is 2x worse.
        self.assertAlmostEqual(
            mamdr_perfdiff.regression_ratio("qps", 1000.0, 500.0), 2.0)
        # Improvements come out below 1 in both directions.
        self.assertLess(
            mamdr_perfdiff.regression_ratio("p99_us", 400.0, 100.0), 1.0)
        self.assertLess(
            mamdr_perfdiff.regression_ratio("gflops", 10.0, 40.0), 1.0)

    def test_zero_values_never_regress(self):
        self.assertEqual(
            mamdr_perfdiff.regression_ratio("ms", 0.0, 5.0), 1.0)
        self.assertEqual(
            mamdr_perfdiff.regression_ratio("qps", 100.0, 0.0), 1.0)


class DiffLogic(unittest.TestCase):
    def test_identical_is_clean(self):
        base = serving_doc()["entries"]
        warnings, failures = mamdr_perfdiff.diff(base, base, 1.25, 2.0)
        self.assertEqual(warnings, [])
        self.assertEqual(failures, [])

    def test_mild_regression_warns_only(self):
        base = serving_doc(qps=1000.0)["entries"]
        cur = serving_doc(qps=700.0)["entries"]  # 1.43x worse
        warnings, failures = mamdr_perfdiff.diff(base, cur, 1.25, 2.0)
        self.assertEqual(len(warnings), 1)
        self.assertEqual(failures, [])

    def test_hard_regression_fails(self):
        base = kernels_doc(ms=2.0, gflops=30.0)["entries"]
        cur = kernels_doc(ms=5.0, gflops=12.0)["entries"]  # 2.5x worse
        warnings, failures = mamdr_perfdiff.diff(base, cur, 1.25, 2.0)
        self.assertEqual(len(failures), 2)  # both ms and gflops

    def test_missing_entry_fails(self):
        base = kernels_doc()["entries"]
        warnings, failures = mamdr_perfdiff.diff(
            base, serving_doc()["entries"], 1.25, 2.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing entry", failures[0])

    def test_missing_metric_fails(self):
        base = serving_doc()["entries"]
        cur = [dict(base[0])]
        del cur[0]["p99_us"]
        warnings, failures = mamdr_perfdiff.diff(base, cur, 1.25, 2.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing metric p99_us", failures[0])

    def test_extra_current_entries_are_ignored(self):
        # New coverage in current must not fail against an older baseline.
        base = serving_doc()["entries"]
        cur = base + kernels_doc()["entries"]
        warnings, failures = mamdr_perfdiff.diff(base, cur, 1.25, 2.0)
        self.assertEqual(failures, [])


class ThreadScaling(unittest.TestCase):
    def test_monotone_sweep_is_clean(self):
        cur = sweep_doc([(1, 1000.0), (2, 1990.0), (4, 3900.0)])["entries"]
        self.assertEqual(
            mamdr_perfdiff.thread_scaling_failures(cur, 0.95), [])

    def test_flat_sweep_is_clean(self):
        # On a single-core machine perfect scaling is flat QPS.
        cur = sweep_doc([(1, 1000.0), (2, 990.0), (8, 960.0)])["entries"]
        self.assertEqual(
            mamdr_perfdiff.thread_scaling_failures(cur, 0.95), [])

    def test_negative_scaling_fails(self):
        # The seed repo's actual failure shape: QPS drops as threads grow.
        cur = sweep_doc([(1, 18863.0), (2, 17203.0), (4, 16953.0)])["entries"]
        failures = mamdr_perfdiff.thread_scaling_failures(cur, 0.95)
        self.assertEqual(len(failures), 2)  # both 2 and 4 are < 0.95x
        self.assertIn("negative thread scaling", failures[0])

    def test_groups_split_by_identity(self):
        # A slow mode must not be compared against a fast mode's qps@1.
        cur = (sweep_doc([(1, 1000.0), (4, 990.0)], mode="per_request")
               ["entries"]
               + sweep_doc([(1, 400.0), (4, 395.0)], mode="batched")
               ["entries"])
        self.assertEqual(
            mamdr_perfdiff.thread_scaling_failures(cur, 0.95), [])

    def test_single_thread_count_is_skipped(self):
        cur = sweep_doc([(4, 100.0)])["entries"]
        self.assertEqual(
            mamdr_perfdiff.thread_scaling_failures(cur, 0.95), [])

    def test_entries_without_qps_or_threads_are_skipped(self):
        cur = [{"kernel": "matmul", "ms": 2.0},
               {"mode": "batched", "threads": 2, "qps": 50.0}]
        self.assertEqual(
            mamdr_perfdiff.thread_scaling_failures(cur, 0.95), [])

    def test_gate_is_self_referential_not_baseline_relative(self):
        # Even when baseline and current are identical (no diff failures),
        # a negatively-scaling current file must still fail: a baseline
        # recorded with the bug does not grandfather it in.
        doc = sweep_doc([(1, 1000.0), (4, 800.0)])
        base = doc["entries"]
        warnings, failures = mamdr_perfdiff.diff(base, base, 1.25, 2.0)
        self.assertEqual(failures, [])
        self.assertEqual(
            len(mamdr_perfdiff.thread_scaling_failures(base, 0.95)), 1)


class SimdLevelNote(unittest.TestCase):
    def test_same_or_missing_level_is_silent(self):
        avx2 = dict(kernels_doc(), simd_level="avx2")
        self.assertIsNone(mamdr_perfdiff.simd_level_note(avx2, avx2))
        self.assertIsNone(
            mamdr_perfdiff.simd_level_note(kernels_doc(), avx2))
        self.assertIsNone(
            mamdr_perfdiff.simd_level_note(avx2, kernels_doc()))

    def test_different_levels_name_both(self):
        note = mamdr_perfdiff.simd_level_note(
            dict(kernels_doc(), simd_level="avx512"),
            dict(kernels_doc(), simd_level="avx2"))
        self.assertIn("baseline avx512", note)
        self.assertIn("current avx2", note)


class EndToEnd(unittest.TestCase):
    def _write(self, doc):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        json.dump(doc, f)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_clean_run_exits_zero(self):
        p = self._write(serving_doc())
        self.assertEqual(mamdr_perfdiff.main([p, p]), 0)

    def test_synthetic_2x_regression_exits_nonzero(self):
        base = self._write(serving_doc(qps=1000.0, p99_us=400.0))
        cur = self._write(serving_doc(qps=450.0, p99_us=900.0))
        self.assertEqual(mamdr_perfdiff.main([base, cur]), 1)

    def test_warning_exits_zero_unless_strict(self):
        base = self._write(serving_doc(qps=1000.0))
        cur = self._write(serving_doc(qps=700.0))
        self.assertEqual(mamdr_perfdiff.main([base, cur]), 0)
        self.assertEqual(mamdr_perfdiff.main([base, cur, "--strict"]), 1)

    def test_bad_thresholds_are_usage_errors(self):
        p = self._write(serving_doc())
        self.assertEqual(
            mamdr_perfdiff.main([p, p, "--warn-ratio", "3.0"]), 2)
        self.assertEqual(
            mamdr_perfdiff.main([p, p, "--min-thread-scaling", "1.5"]), 2)

    def test_negative_scaling_exits_nonzero(self):
        doc = sweep_doc([(1, 1000.0), (2, 900.0), (4, 850.0)])
        p = self._write(doc)
        self.assertEqual(mamdr_perfdiff.main([p, p]), 1)
        self.assertEqual(
            mamdr_perfdiff.main([p, p, "--no-thread-scaling-check"]), 0)
        # A looser floor admits the same file.
        self.assertEqual(
            mamdr_perfdiff.main([p, p, "--min-thread-scaling", "0.8"]), 0)

    def test_simd_level_mismatch_prints_note_and_keeps_exit_status(self):
        base = self._write(dict(kernels_doc(), simd_level="avx512"))
        cur = self._write(dict(kernels_doc(), simd_level="avx2"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(mamdr_perfdiff.main([base, cur]), 0)
        self.assertIn("NOTE: simd_level differs", out.getvalue())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(mamdr_perfdiff.main([base, base]), 0)
        self.assertNotIn("NOTE", out.getvalue())

    def test_simd_level_mismatch_demotes_matmul_regressions(self):
        # A runner without AVX-512 reads the matmul rows 3x slower than an
        # AVX-512 baseline: a warning under the NOTE, not a failure.
        base = self._write(dict(kernels_doc(ms=1.0), simd_level="avx512"))
        cur = self._write(dict(kernels_doc(ms=3.0), simd_level="avx2"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(mamdr_perfdiff.main([base, cur]), 0)
        self.assertIn("NOTE: simd_level differs", out.getvalue())
        self.assertIn("WARNING: ms 1.00 -> 3.00", out.getvalue())
        self.assertNotIn("FAIL", out.getvalue())
        # The same regression between equal levels still fails.
        same = self._write(dict(kernels_doc(ms=3.0), simd_level="avx512"))
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(mamdr_perfdiff.main([base, same]), 1)

    def test_simd_level_mismatch_still_gates_other_kernels(self):
        def relu_doc(ms, level):
            doc = kernels_doc()
            doc["entries"].append({"kernel": "relu", "variant": "fwd_bwd",
                                   "m": 256, "k": 64, "n": 1, "ms": ms})
            doc["simd_level"] = level
            return doc
        base = self._write(relu_doc(0.01, "avx512"))
        cur = self._write(relu_doc(0.03, "avx2"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(mamdr_perfdiff.main([base, cur]), 1)
        self.assertIn("FAIL: ms 0.01 -> 0.03", out.getvalue())

    def test_missing_entries_list_is_schema_error(self):
        p = self._write({"bench": "serving"})
        with self.assertRaises(SystemExit):
            mamdr_perfdiff.load_entries(p)


if __name__ == "__main__":
    sys.exit(unittest.main())
