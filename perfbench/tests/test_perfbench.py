"""Tests of the benchmark itself. Run from the root of a source tree:

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench/ (as perfbench/run.py does) and run short workloads,
so they take a few minutes.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=1200,
                          check=False)


def result_lines(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class MeasurementCodeTest(unittest.TestCase):
    def test_selftest_binary(self):
        # Nearest-rank quantiles and the p99 tail rule, open-loop due-time
        # latency under an injected stall, the fixed samples/s numerator.
        done = run_bench("--selftest")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIn("checks passed", done.stdout)


class WrapperTransparencyTest(unittest.TestCase):
    def test_timing_wrappers_do_not_change_results(self):
        # --trace 1 installs the CtrModel, ScoreFn and PsClient wrappers on
        # every other round; the run itself fails unless wrapped and plain
        # rounds agree bit for bit. Across processes, the untraced and the
        # traced run must also report the same AUC bits and TopK answers.
        for workload in ("mamdr-taobao10", "dn-amazon13"):
            with self.subTest(workload=workload):
                seen = []
                for trace in ("0", "1"):
                    done = run_bench("--workload", workload, "--seed", "5",
                                     "--seconds", "2", "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    info, result = result_lines(done)
                    self.assertTrue(result["correct"], info["problems"])
                    self.assertEqual(result["failed"], 0)
                    seen.append((info["info"]["auc_bits"],
                                 info["info"]["topk_probe_hash"]))
                self.assertEqual(seen[0], seen[1])


class GoldenCheckTest(unittest.TestCase):
    def setUp(self):
        self.run = load_run_module()
        self.tmp = tempfile.TemporaryDirectory()
        self.run.GOLDENS = Path(self.tmp.name) / "goldens.json"
        self.run.GOLDENS.write_text(json.dumps({
            "mamdr-taobao10": {
                "canary": {"auc_bits": "ca", "topk_probe_hash": "cb"},
                "seeds": {"3": {"auc_bits": "aa", "topk_probe_hash": "bb"}},
            },
            "mamdr-netps": {"auc_floor": 0.55},
        }))

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, workload, seed, facts):
        if workload == "mamdr-taobao10":
            facts = {"canary_auc_bits": "ca", "canary_topk_probe_hash": "cb",
                     **facts}
        info = {"info": dict(facts), "problems": []}
        result = {"correct": True}
        self.run.check_goldens(workload, seed, info, result)
        return result["correct"], info

    def test_recorded_seed_must_match_bit_for_bit(self):
        ok, _ = self.check("mamdr-taobao10", 3,
                           {"auc_bits": "aa", "topk_probe_hash": "bb"})
        self.assertTrue(ok)
        ok, info = self.check("mamdr-taobao10", 3,
                              {"auc_bits": "ab", "topk_probe_hash": "bb"})
        self.assertFalse(ok)
        self.assertIn("auc_bits", info["problems"][0])
        ok, _ = self.check("mamdr-taobao10", 3,
                           {"auc_bits": "aa", "topk_probe_hash": "bc"})
        self.assertFalse(ok)

    def test_unrecorded_seed_checks_the_canary_only(self):
        ok, info = self.check("mamdr-taobao10", 4,
                              {"auc_bits": "zz", "topk_probe_hash": "zz"})
        self.assertTrue(ok)
        self.assertEqual(info["info"]["golden"], "canary")
        _, info = self.check("mamdr-taobao10", 3,
                             {"auc_bits": "aa", "topk_probe_hash": "bb"})
        self.assertEqual(info["info"]["golden"], "canary, seed")
        ok, _ = self.check("mamdr-taobao10", 4,
                           {"canary_auc_bits": "cx", "auc_bits": "zz",
                            "topk_probe_hash": "zz"})
        self.assertFalse(ok)

    def test_netps_auc_floor(self):
        self.assertTrue(self.check("mamdr-netps", 1, {"auc_min": 0.56})[0])
        self.assertFalse(self.check("mamdr-netps", 1, {"auc_min": 0.54})[0])


class StandaloneFailureTest(unittest.TestCase):
    def test_exits_nonzero_without_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ has nothing
        # to build: the run must fail fast and print no result.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
            try:
                done = run_bench("--workload", "mamdr-taobao10", "--seed",
                                 "1", "--seconds", "1", "--trace", "0",
                                 cwd=tmp)
            finally:
                if env_dir is not None:
                    os.environ["CARGO_TARGET_DIR"] = env_dir
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
