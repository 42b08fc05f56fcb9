#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag performance regressions.

Both files must follow the bench JSON convention: a top-level ``entries``
list of flat objects, where identity fields (strings and counts such as
``kernel``, ``variant``, ``m``/``k``/``n``, ``threads``) describe *what* was
measured and metric fields describe *how fast* it was. Metrics are
recognized by name:

  lower is better:   ``ms`` and any field ending in ``_ms`` or ``_us``
  higher is better:  ``gflops``, ``qps``, ``scaling_efficiency``

For each baseline entry the matching current entry is located by its
identity fields; a missing entry or metric is always a failure (a bench
must not silently drop coverage). Each metric is reduced to a regression
ratio that is > 1 when current is worse:

  lower-better:   current / baseline
  higher-better:  baseline / current

Ratios above ``--warn-ratio`` (default 1.25) print a WARNING; above
``--fail-ratio`` (default 2.0) they fail the run. Warnings alone exit 0 so
noisy shared CI runners don't flap the gate — pass ``--strict`` to turn
warnings into failures (e.g. on a quiet dedicated machine).

Thread-scaling gate: entries in the CURRENT file that carry both a
``threads`` identity field and a ``qps`` metric are additionally checked
for monotonicity — within each group of entries identical except for
``threads``, ``qps`` at every thread count must be at least
``--min-thread-scaling`` (default 0.95) times ``qps`` at the group's
lowest thread count. A serving stack whose throughput *drops* when given
more threads has a contention bug, and this is the gate that catches it
regardless of what the baseline file says (a baseline recorded with the
bug must not grandfather it in). ``--no-thread-scaling-check`` disables
the gate. Groups with a single thread count are skipped.

SIMD level: ``bench_kernels`` records the kernel level it dispatched to
as a top-level ``simd_level`` (scalar, avx2, avx512). When the baseline
and the current run name different levels, a NOTE says so: the two ran
different matmul bodies (a CI runner may lack AVX-512), so the ratios of
entries whose ``kernel`` starts with ``matmul`` compare hardware, not
code. Those ratios are then reported as warnings, never failures; every
other entry, and a missing matmul entry or metric, gates as usual.

Usage:
  tools/mamdr_perfdiff.py BASELINE.json CURRENT.json
      [--warn-ratio X] [--fail-ratio X] [--strict]
      [--min-thread-scaling X] [--no-thread-scaling-check]

Exit status: 0 = OK (possibly with warnings), 1 = regression or missing
coverage, 2 = usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

LOWER_BETTER_SUFFIXES = ("_ms", "_us")
LOWER_BETTER_NAMES = ("ms",)
HIGHER_BETTER_NAMES = ("gflops", "qps", "scaling_efficiency")


def is_metric(name: str) -> bool:
    return (name in LOWER_BETTER_NAMES or name in HIGHER_BETTER_NAMES
            or name.endswith(LOWER_BETTER_SUFFIXES))


def regression_ratio(name: str, base: float, cur: float) -> float:
    """> 1 means current is worse than baseline; 0/negative values (a
    too-coarse timer, a failed measurement) compare as no-regression."""
    if base <= 0.0 or cur <= 0.0:
        return 1.0
    if name in HIGHER_BETTER_NAMES:
        return base / cur
    return cur / base


def entry_key(entry: dict) -> Tuple:
    """Identity of a bench entry: every non-metric field, order-insensitive."""
    return tuple(sorted(
        (k, v) for k, v in entry.items() if not is_metric(k)))


def load_doc(path: str) -> dict:
    """The whole bench document; exits on an unreadable file or a missing
    or empty ``entries`` list."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"mamdr_perfdiff: cannot read {path}: {e}")
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise SystemExit(f"mamdr_perfdiff: {path} has no 'entries' list")
    return doc


def load_entries(path: str) -> List[dict]:
    return load_doc(path)["entries"]


def simd_level_note(baseline_doc: dict, current_doc: dict) -> Optional[str]:
    """A NOTE line when the two runs dispatched to different SIMD levels,
    else None (also when either file predates the field)."""
    base = baseline_doc.get("simd_level")
    cur = current_doc.get("simd_level")
    if base is None or cur is None or base == cur:
        return None
    return (f"simd_level differs: baseline {base}, current {cur}; the "
            f"kernels ran different SIMD bodies, so their ratios compare "
            f"CPUs, not code")


def format_key(key: Tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def is_matmul(entry: dict) -> bool:
    return str(entry.get("kernel", "")).startswith("matmul")


def diff(baseline: List[dict], current: List[dict], warn_ratio: float,
         fail_ratio: float, demote_matmul: bool = False
         ) -> Tuple[List[str], List[str]]:
    """Returns (warnings, failures) as printable lines. With
    ``demote_matmul``, a ratio past ``fail_ratio`` on a matmul entry is a
    warning."""
    warnings: List[str] = []
    failures: List[str] = []
    cur_by_key: Dict[Tuple, dict] = {entry_key(e): e for e in current}
    for base in baseline:
        key = entry_key(base)
        cur = cur_by_key.get(key)
        if cur is None:
            failures.append(f"missing entry: {format_key(key)}")
            continue
        for name, base_val in base.items():
            if not is_metric(name):
                continue
            if name not in cur:
                failures.append(f"missing metric {name}: {format_key(key)}")
                continue
            ratio = regression_ratio(name, float(base_val), float(cur[name]))
            line = (f"{name} {float(base_val):.2f} -> {float(cur[name]):.2f} "
                    f"({ratio:.2f}x worse): {format_key(key)}")
            if ratio > fail_ratio and not (demote_matmul and is_matmul(base)):
                failures.append(line)
            elif ratio > warn_ratio:
                warnings.append(line)
    return warnings, failures


def thread_scaling_failures(current: List[dict],
                            min_scaling: float) -> List[str]:
    """QPS monotonicity across a thread sweep, on the CURRENT file only.

    Groups entries by identity-minus-``threads`` and requires
    ``qps@N >= min_scaling * qps@base`` for every N, where base is the
    group's lowest thread count. Self-referential on purpose: negative
    thread scaling is a bug in absolute terms, not relative to a baseline
    that may itself have been recorded with the bug.
    """
    failures: List[str] = []
    groups: Dict[Tuple, List[dict]] = {}
    for entry in current:
        if "qps" not in entry or "threads" not in entry:
            continue
        key = tuple(sorted((k, v) for k, v in entry.items()
                           if not is_metric(k) and k != "threads"))
        groups.setdefault(key, []).append(entry)
    for key, entries in sorted(groups.items()):
        if len(entries) < 2:
            continue
        entries.sort(key=lambda e: float(e["threads"]))
        base = entries[0]
        base_qps = float(base["qps"])
        if base_qps <= 0.0:
            continue
        floor = min_scaling * base_qps
        for entry in entries[1:]:
            qps = float(entry["qps"])
            if qps < floor:
                failures.append(
                    f"negative thread scaling: qps {qps:.2f} @ "
                    f"threads={entry['threads']} < {min_scaling:.2f} * "
                    f"{base_qps:.2f} @ threads={base['threads']}: "
                    f"{format_key(key)}")
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument("--warn-ratio", type=float, default=1.25,
                        help="warn when worse by this factor (default 1.25)")
    parser.add_argument("--fail-ratio", type=float, default=2.0,
                        help="fail when worse by this factor (default 2.0)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser.add_argument("--min-thread-scaling", type=float, default=0.95,
                        help="fail when qps@N drops below this fraction of "
                             "qps at the lowest thread count (default 0.95)")
    parser.add_argument("--no-thread-scaling-check", action="store_true",
                        help="skip the qps-vs-threads monotonicity gate")
    args = parser.parse_args(argv)
    if not (1.0 <= args.warn_ratio <= args.fail_ratio):
        print("mamdr_perfdiff: need 1.0 <= --warn-ratio <= --fail-ratio",
              file=sys.stderr)
        return 2
    if not (0.0 < args.min_thread_scaling <= 1.0):
        print("mamdr_perfdiff: need 0.0 < --min-thread-scaling <= 1.0",
              file=sys.stderr)
        return 2

    baseline_doc = load_doc(args.baseline)
    current_doc = load_doc(args.current)
    baseline = baseline_doc["entries"]
    current = current_doc["entries"]
    note = simd_level_note(baseline_doc, current_doc)
    if note is not None:
        print(f"NOTE: {note}; matmul ratios only warn")
    warnings, failures = diff(
        baseline, current, args.warn_ratio, args.fail_ratio,
        demote_matmul=note is not None)
    if not args.no_thread_scaling_check:
        failures.extend(
            thread_scaling_failures(current, args.min_thread_scaling))

    for line in warnings:
        print(f"WARNING: {line}")
    for line in failures:
        print(f"FAIL: {line}")
    if failures or (args.strict and warnings):
        print(f"mamdr_perfdiff: {len(failures)} failure(s), "
              f"{len(warnings)} warning(s)", file=sys.stderr)
        return 1
    print(f"mamdr_perfdiff: OK ({len(baseline)} entries, "
          f"{len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
