#!/usr/bin/env python3
"""End-to-end benchmark of the MAMDR library: build, run one workload, check.

    python3 perfbench/run.py --workload mamdr-taobao10 --seed 7 \\
        --seconds 30 --trace 0

Run from the root of a source tree. The script configures and builds
perfbench/ (which compiles ../src) in Release under $CARGO_TARGET_DIR
(default .bench_build), runs one workload in one process, checks the result
against perfbench/goldens.json, and prints two JSON lines: run facts, then
the result {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are the per-layer ones. See perfbench/README.md.

    python3 perfbench/run.py --selftest          # measurement-code tests
    python3 perfbench/run.py --record-golden --workload W --seed N
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("mamdr-taobao10", "dn-amazon13", "mamdr-netps")
# Workloads whose training is single-threaded, hence bit-reproducible.
DETERMINISTIC = ("mamdr-taobao10", "dn-amazon13")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then an incremental build; all output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from a source tree")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {done.returncode}")
            return None
    return out


def run_workload(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log(f"workload exited {done.returncode}")
        return None
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"unreadable workload output: {e}")
        return None


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)


def check_goldens(workload, seed, info, result):
    """Compares the run with the values recorded for its workload and seed.

    In-process workloads must reproduce the recorded test AUC and TopK probe
    answers of the canary input set bit for bit in every run, and those of
    the whole run when its seed has a recording. mamdr-netps trains with 4
    concurrent workers, so only its AUC floor is checked.
    """
    goldens = load_goldens().get(workload, {})
    facts = info["info"]
    problems = []
    if "auc_floor" in goldens and facts["auc_min"] < goldens["auc_floor"]:
        problems.append(f"test AUC {facts['auc_min']:.4f} is below the "
                        f"recorded floor {goldens['auc_floor']}")
    expected = {}
    checked = []
    if "auc_floor" in goldens:
        checked.append("auc floor")
    if "canary" in goldens:
        checked.append("canary")
        for key, value in goldens["canary"].items():
            expected["canary_" + key] = value
    recorded = goldens.get("seeds", {}).get(str(seed))
    if recorded:
        checked.append("seed")
        expected.update(recorded)
    facts["golden"] = ", ".join(checked)
    for key, value in expected.items():
        if facts.get(key) != value:
            problems.append(f"{key} {facts.get(key)} differs from the "
                            f"recorded {value}")
    if problems:
        result["correct"] = False
        info["problems"].extend(problems)
        for p in problems:
            log(f"check failed: {p}")


def record_golden(workload, info, result):
    if not result["correct"]:
        log("not recording a run whose checks failed")
        return 1
    goldens = load_goldens()
    entry = goldens.setdefault(workload, {})
    facts = info["info"]
    if workload not in DETERMINISTIC:
        log("mamdr-netps is not bit-reproducible; edit its auc_floor by hand")
        return 1
    entry.setdefault("seeds", {})[str(facts["seed"])] = {
        "auc_bits": facts["auc_bits"],
        "topk_probe_hash": facts["topk_probe_hash"],
    }
    entry["canary"] = {
        "auc_bits": facts["canary_auc_bits"],
        "topk_probe_hash": facts["canary_topk_probe_hash"],
    }
    with open(GOLDENS, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"recorded {workload} seed {facts['seed']}")
    return 0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the measurement-code tests")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's AUC bits and TopK hash")
    args = p.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def main():
    args = parse_args()
    out = build()
    if out is None:
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")],
                              check=False).returncode
    ran = run_workload(out / "mamdr_perfbench", args)
    if ran is None:
        return 1
    info, result = ran
    if args.record_golden:
        return record_golden(args.workload, info, result)
    check_goldens(args.workload, args.seed, info, result)
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
