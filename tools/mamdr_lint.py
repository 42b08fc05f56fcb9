#!/usr/bin/env python3
"""Project-specific lint rules for the MAMDR tree.

Rules (suppress a finding by appending ``// mamdr-lint: allow(<rule>)`` to
the offending line):

  kernel-at       ``.at(`` in src/tensor, src/nn, src/autograd or
                  src/models. Bounds-checked element access in kernel code
                  hides O(n) checks in hot loops; use raw ``data()``
                  pointers (kernels and autograd ops validate shapes once
                  per call). A deliberate single-element access carries
                  the allow comment.
  kernel-double   a ``double`` variable/parameter declaration in src/tensor.
                  Kernels accumulate in float32 so the blocked paths stay
                  bit-identical to the naive reference; widening an
                  accumulator silently changes results across code paths.
                  Intentional high-precision serial reductions carry the
                  allow comment.
  raw-rand        ``rand()`` / ``srand()`` outside tools/ and bench/. All
                  library randomness flows through mamdr::Rng so a seed
                  reproduces identical runs on every platform.
  iostream-print  ``std::cout`` / ``std::cerr`` outside tools/ and bench/.
                  Library code reports through MAMDR_LOG / Status, never by
                  printing.
  raw-clock       ``std::chrono::steady_clock::now()`` (or any
                  ``steady_clock::now()``) outside src/obs and src/common.
                  All timing flows through obs::MonotonicMicros()/
                  MonotonicSeconds() so the golden-run determinism contract
                  has a single clock to reason about and instrumentation is
                  greppable in one place. Unlike the other rules the allow
                  comment is honored ONLY in the files listed in
                  RAW_CLOCK_COMMENT_ALLOWED (currently empty — the last
                  exception, the metrics server's slow-client deadline,
                  now reads obs::MonotonicMicros()); everywhere else
                  the rule is absolute.
  net-raw-clock   any raw clock read — ``steady_clock``/``system_clock``/
                  ``high_resolution_clock`` ``::now()``, ``clock_gettime``,
                  ``gettimeofday`` — inside src/ps/net. Stricter than
                  raw-clock (more spellings) and absolute: no allow comment
                  is honored, ever. The networked PS is the one subsystem
                  where timestamps cross process boundaries (span start
                  times, queue-wait attribution, trace files that
                  mamdr_tracemerge.py aligns across shards); a single
                  off-funnel clock read there silently breaks the merged
                  timeline rather than one local measurement.
  native-mutex    ``std::mutex`` / ``std::lock_guard`` / ``std::unique_lock``
                  (or any other <mutex>/<condition_variable> primitive)
                  outside common/mutex.h. All locking flows through the
                  annotated mamdr::Mutex/MutexLock/CondVar wrappers so
                  clang -Wthread-safety sees every acquisition and the
                  runtime lockdep validator (common/lockdep.h) sees every
                  lock in its order graph — a raw std::mutex is invisible
                  to both. The lockdep implementation itself must not
                  recurse into its own instrumentation and carries the
                  allow comment.
  hot-path-lock   a ``MutexLock`` acquisition in a file that carries the
                  ``// mamdr-lint: hot-path`` marker comment. Marked files
                  hold steady-state request code whose scaling contract is
                  "no locks after setup" — the serving rebuild exists
                  because one per-request MutexLock flattened the thread
                  sweep. Setup/teardown paths (constructors, SetCandidates,
                  the slow path of a copy-on-write publish) acquire locks
                  legitimately and carry ``allow(hot-path-lock)`` on the
                  acquisition line; a lock without the comment is presumed
                  to be on the request path. Files without the marker are
                  untouched by this rule, so it costs nothing until a file
                  opts in.
  raw-socket      a direct global-scope POSIX socket call (``::socket``,
                  ``::connect``, ``::bind``, ``::listen``, ``::accept``,
                  ``::recv``, ``::send``, ``::setsockopt``, ``::shutdown``)
                  outside src/common/net.cc. Every byte that crosses a
                  socket must go through the common/net helpers — that is
                  what makes the EINTR/SIGPIPE handling, the kUnavailable/
                  kInvalidArgument error mapping, and the frame codec's
                  corruption guarantees hold everywhere, and what makes the
                  ps/net fault proxy a faithful model of all real traffic.
                  A deliberate raw client (e.g. a test probing pre-frame
                  behavior) carries the allow comment.
  kernel-parallel ``#include "common/thread_pool.h"``, ``#include <thread>``
                  or ``std::thread`` in src/tensor, src/autograd, src/nn or
                  src/optim. Kernels
                  and the layers built on them are serial by decision:
                  bench_kernels and perfbench measured the intra-op split
                  slower than one thread at this repo's shapes, with
                  identical bits. Parallelism belongs to independent units
                  (evaluation domains, DR targets, serving requests, PS
                  workers). Absolute: no allow comment is honored.
  pass-loop       ``while (<ident>.Next(&`` anywhere in src/ outside
                  src/core/framework.cc. core::TrainPass is the one
                  mini-batch training loop that every framework and the PS
                  worker run; a second copy drifts (hooks, telemetry, work
                  counters land in one place only). Interleaved schedules
                  that advance several batchers with ``if (!b.Next(&x))``
                  are not a pass loop and stay legal. Absolute: no allow
                  comment is honored.
  header-guard    headers must use the canonical include guard
                  ``MAMDR_<PATH>_H_`` (path relative to the repo root with a
                  leading ``src/`` dropped), not ``#pragma once``.
  ignored-status  a statement-position call to a known Status/Result-returning
                  PS or checkpoint op (PullDense, PushRowDeltas, RunDnEpoch,
                  LoadTensors, ...) in src/ps or src/checkpoint whose value is
                  dropped on the floor. ``[[nodiscard]]`` catches the direct
                  form at compile time, but not calls through an interface
                  that predates the annotation or void wrappers; the linter
                  closes that gap. A legitimate drop carries the allow
                  comment.
                  Heuristic: only flags single-line statements (the call
                  starts the line, parentheses balance, line ends with ;) so
                  continuation lines of MAMDR_RETURN_IF_ERROR/assignments
                  never false-positive.
  span-literal    an ``obs::ContextSpan`` whose name argument is
                  ``std::string("...")``. A bare literal converts to a
                  SpanName that keeps the pointer and copies only while
                  the recorder is collecting; the std::string form compiles
                  but builds (and, past the small-string buffer, allocates)
                  the name on every call, traced or not. Matches across line
                  breaks (the name often wraps onto the next line); the allow
                  comment goes on the line holding ``std::string``.

Usage:
  tools/mamdr_lint.py [--root DIR] [files...]

With no file arguments, lints every C++ source under src/, tests/, bench/,
tools/, and examples/. Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, NamedTuple, Optional

LINT_DIRS = ("src", "tests", "bench", "tools", "examples")
CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

ALLOW_RE = re.compile(r"//\s*mamdr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")
AT_CALL_RE = re.compile(r"\.at\s*\(")
DOUBLE_DECL_RE = re.compile(r"\b(?:long\s+)?double\s+[A-Za-z_]\w*")
RAW_RAND_RE = re.compile(r"\b(?:std::)?s?rand\s*\(")
IOSTREAM_PRINT_RE = re.compile(r"\bstd::c(?:out|err)\b")
RAW_CLOCK_RE = re.compile(r"\bsteady_clock\s*::\s*now\s*\(")
# The only files where `// mamdr-lint: allow(raw-clock)` works. Raw clock
# reads fragment the timing funnel, so an allow comment alone is not enough
# — the file itself must be on this list (i.e. the exception was reviewed
# at the linter level, not slipped into a diff). Currently empty: the
# mechanism stays so the next genuine exception is a one-line reviewed
# change here instead of a new rule carve-out.
RAW_CLOCK_COMMENT_ALLOWED = ()
# src/ps/net only: every clock spelling that could leak wall/monotonic time
# around the obs funnel. Timestamps from this subsystem end up in per-shard
# trace files that mamdr_tracemerge.py aligns into one timeline, so the
# rule is absolute — there is no allow comment and no file exemption.
NET_RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(")
# Raw standard-library locking primitives. Everything in <mutex> and
# <condition_variable> that code would name directly; common/mutex.h is
# exempt (it wraps these), everyone else goes through mamdr::Mutex.
NATIVE_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b")
NATIVE_MUTEX_EXEMPT = ("src/common/mutex.h",)
# Opt-in marker: a file containing this comment declares its steady-state
# code lock-free; every MutexLock in it must justify itself with an allow.
HOT_PATH_MARKER_RE = re.compile(r"//\s*mamdr-lint:\s*hot-path\b")
# Global-scope-qualified POSIX socket calls. The lookbehind keeps qualified
# names (std::bind, net::SendAll, obj.connect) from matching: only a `::`
# that begins the qualification — i.e. the global namespace — counts.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w:])::\s*(?:socket|connect|bind|listen|accept|recv|send"
    r"|recvmsg|sendmsg|setsockopt|shutdown)\s*\(")
RAW_SOCKET_EXEMPT = ("src/common/net.cc",)
MUTEX_LOCK_RE = re.compile(r"\bMutexLock\b")
# Intra-op parallelism in the numeric layers; see kernel-parallel above.
KERNEL_PARALLEL_RE = re.compile(
    r"^\s*#\s*include\s*(?:\"common/thread_pool\.h\"|<thread>)"
    r"|\bstd\s*::\s*thread\b")
KERNEL_PARALLEL_DIRS = ("src/tensor", "src/autograd", "src/nn", "src/optim")
# A ContextSpan constructed directly, via a named object or make_unique<>,
# whose whole first argument is std::string("literal"). A dynamic name
# (`std::string("a") + b`) does not match: the closing paren must be
# followed by the next argument's comma.
SPAN_LITERAL_RE = re.compile(
    r"\bContextSpan\s*(?:>\s*|\s[A-Za-z_]\w*\s*)?\(\s*"
    r"std\s*::\s*string\s*\(\s*\"(?:[^\"\\]|\\.)*\"\s*\)\s*,")
# A batcher-driven training loop; see pass-loop above.
PASS_LOOP_RE = re.compile(r"\bwhile\s*\(\s*[A-Za-z_]\w*\s*\.\s*Next\s*\(\s*&")
PASS_LOOP_HOME = "src/core/framework.cc"
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")

# Status/Result-returning operations of the PS-Worker runtime and the
# checkpoint layer. Extend this list when adding new fallible ops.
STATUS_FUNCS = (
    "PullDense", "PullRows", "PullFullTable", "PushDenseDelta",
    "PushRowDeltas", "RunDnEpoch", "RunDnEpochOn", "RunDrPhase",
    "RestoreFromPs", "Train", "TrainEpoch", "SaveCheckpoint",
    "RestoreFromCheckpoint", "SaveTensors", "LoadTensors", "SaveModule",
    "LoadModule", "SaveStore", "LoadStore",
)
# A line that *starts* with a (possibly qualified) call to one of the ops:
# `client_->PullDense(...)`, `checkpoint::SaveTensors(...)`, `Train(...)`.
# Lines starting with `return`, a type name, `if (...`, or a macro never
# match because the anchor is at the first non-space character.
IGNORED_STATUS_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*(?:"
    + "|".join(STATUS_FUNCS) + r")\s*\(")


class Finding(NamedTuple):
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 = whole file
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _allowed_rules(line: str) -> List[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return []
    return [r.strip() for r in m.group(1).split(",")]


def _strip_line_comment(line: str) -> str:
    """Drop // comments so prose about forbidden constructs doesn't trip."""
    return LINE_COMMENT_RE.sub("", line)


def expected_guard(rel_path: str) -> str:
    """Canonical include guard for a header at repo-relative `rel_path`."""
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return f"MAMDR_{stem.upper()}_"


def _in_dir(rel_path: str, *dirs: str) -> bool:
    return any(rel_path.startswith(d + "/") for d in dirs)


def _check_header_guard(rel_path: str, lines: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    guard = expected_guard(rel_path)
    ifndef: Optional[str] = None
    define: Optional[str] = None
    ifndef_line = 0
    for i, line in enumerate(lines, start=1):
        if PRAGMA_ONCE_RE.match(line):
            if "header-guard" not in _allowed_rules(line):
                findings.append(
                    Finding(rel_path, i, "header-guard",
                            f"use the include guard {guard} instead of "
                            "#pragma once"))
            return findings
        m = IFNDEF_RE.match(line)
        if m and ifndef is None:
            ifndef = m.group(1)
            ifndef_line = i
            continue
        m = DEFINE_RE.match(line)
        if m and ifndef is not None and define is None:
            define = m.group(1)
            break
    if ifndef is None:
        findings.append(
            Finding(rel_path, 1, "header-guard",
                    f"missing include guard (expected {guard})"))
        return findings
    if ifndef != guard:
        findings.append(
            Finding(rel_path, ifndef_line, "header-guard",
                    f"include guard is {ifndef}, expected {guard}"))
    elif define != guard:
        findings.append(
            Finding(rel_path, ifndef_line, "header-guard",
                    f"#ifndef {guard} is not followed by #define {guard}"))
    return findings


def _check_span_literal(rel_path: str, lines: List[str]) -> List[Finding]:
    # Comment-stripped text, so a match may span the line break between
    # `ContextSpan name(` and a wrapped first argument.
    code = "\n".join(_strip_line_comment(line) for line in lines)
    findings: List[Finding] = []
    for m in SPAN_LITERAL_RE.finditer(code):
        start = m.start() + m.group(0).index("std")
        line_no = code.count("\n", 0, start) + 1
        if "span-literal" in _allowed_rules(lines[line_no - 1]):
            continue
        findings.append(
            Finding(rel_path, line_no, "span-literal",
                    "ContextSpan named by std::string(\"...\") builds the "
                    "name even when tracing is off; pass the literal"))
    return findings


def lint_text(rel_path: str, text: str) -> List[Finding]:
    """Lint one file's contents; `rel_path` is repo-relative with '/'."""
    rel_path = rel_path.replace("\\", "/")
    lines = text.splitlines()
    findings: List[Finding] = []

    hot_kernel_file = _in_dir(rel_path, "src/tensor", "src/nn", "src/autograd",
                              "src/models")
    kernel_float_file = _in_dir(rel_path, "src/tensor")
    library_file = not _in_dir(rel_path, "tools", "bench")
    status_file = _in_dir(rel_path, "src/ps", "src/checkpoint")
    clock_blessed_file = _in_dir(rel_path, "src/obs", "src/common")
    clock_comment_ok = rel_path in RAW_CLOCK_COMMENT_ALLOWED
    net_clock_file = _in_dir(rel_path, "src/ps/net")
    serial_kernel_file = _in_dir(rel_path, *KERNEL_PARALLEL_DIRS)
    mutex_wrapper_file = rel_path in NATIVE_MUTEX_EXEMPT
    socket_wrapper_file = rel_path in RAW_SOCKET_EXEMPT
    hot_path_file = HOT_PATH_MARKER_RE.search(text) is not None
    pass_loop_file = _in_dir(rel_path, "src") and rel_path != PASS_LOOP_HOME

    for i, raw_line in enumerate(lines, start=1):
        allowed = _allowed_rules(raw_line)
        line = _strip_line_comment(raw_line)

        if hot_kernel_file and "kernel-at" not in allowed:
            if AT_CALL_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "kernel-at",
                            "bounds-checked .at() in kernel code; use raw "
                            "data() pointers"))
        if kernel_float_file and "kernel-double" not in allowed:
            if DOUBLE_DECL_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "kernel-double",
                            "double accumulator in a float32 kernel changes "
                            "results across code paths"))
        if library_file and "raw-rand" not in allowed:
            if RAW_RAND_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "raw-rand",
                            "use mamdr::Rng instead of rand()/srand() for "
                            "reproducible runs"))
        if library_file and "iostream-print" not in allowed:
            if IOSTREAM_PRINT_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "iostream-print",
                            "library code must not print to std::cout/cerr; "
                            "use MAMDR_LOG or return Status"))
        if not clock_blessed_file and not (clock_comment_ok
                                           and "raw-clock" in allowed):
            if RAW_CLOCK_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "raw-clock",
                            "read time via obs::MonotonicMicros()/"
                            "MonotonicSeconds(), not steady_clock::now()"))
        if net_clock_file:
            # Deliberately ignores `allowed`: this rule has no escape hatch.
            if NET_RAW_CLOCK_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "net-raw-clock",
                            "raw clock read in src/ps/net; all networked-PS "
                            "timing must flow through obs::MonotonicMicros() "
                            "so merged traces share one timeline (no allow "
                            "comment honored)"))
        if serial_kernel_file:
            # Deliberately ignores `allowed`: this rule has no escape hatch.
            if KERNEL_PARALLEL_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "kernel-parallel",
                            "kernels are serial; parallelize independent "
                            "units (domains, targets, requests) instead of "
                            "splitting one op (no allow comment honored)"))
        if pass_loop_file:
            # Deliberately ignores `allowed`: this rule has no escape hatch.
            if PASS_LOOP_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "pass-loop",
                            "mini-batch training loop outside core::TrainPass; "
                            "call core::TrainPass (with PassHooks) instead "
                            "(no allow comment honored)"))
        if not mutex_wrapper_file and "native-mutex" not in allowed:
            if NATIVE_MUTEX_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "native-mutex",
                            "raw std locking primitive is invisible to "
                            "-Wthread-safety and lockdep; use mamdr::Mutex/"
                            "MutexLock/CondVar from common/mutex.h"))
        if not socket_wrapper_file and "raw-socket" not in allowed:
            if RAW_SOCKET_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "raw-socket",
                            "raw POSIX socket call outside common/net.cc; "
                            "use the net:: helpers so error mapping and "
                            "framing guarantees hold"))
        if hot_path_file and "hot-path-lock" not in allowed:
            if MUTEX_LOCK_RE.search(line):
                findings.append(
                    Finding(rel_path, i, "hot-path-lock",
                            "MutexLock in a hot-path file; move the lock off "
                            "the request path or justify with "
                            "// mamdr-lint: allow(hot-path-lock)"))
        if status_file and "ignored-status" not in allowed:
            stripped = line.rstrip()
            # Statement-position only: the call opens the line, the line is a
            # complete statement (balanced parens, trailing ';'). Continuation
            # lines inside MAMDR_RETURN_IF_ERROR(...)/assignments are
            # unbalanced and skipped.
            if (IGNORED_STATUS_RE.match(stripped)
                    and stripped.endswith(";")
                    and stripped.count("(") == stripped.count(")")):
                findings.append(
                    Finding(rel_path, i, "ignored-status",
                            "result of a Status-returning op is discarded; "
                            "check it or use MAMDR_RETURN_IF_ERROR"))

    findings.extend(_check_span_literal(rel_path, lines))
    if rel_path.endswith((".h", ".hpp")):
        findings.extend(_check_header_guard(rel_path, lines))
    return findings


def lint_file(root: str, rel_path: str) -> List[Finding]:
    full = os.path.join(root, rel_path)
    try:
        with open(full, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(rel_path, 0, "io-error", str(e))]
    return lint_text(rel_path, text)


def discover_files(root: str) -> List[str]:
    out: List[str] = []
    for top in LINT_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("files", nargs="*",
                        help="repo-relative files to lint (default: all)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"mamdr_lint: no such root: {root}", file=sys.stderr)
        return 2

    files = args.files or discover_files(root)
    findings: List[Finding] = []
    for rel in files:
        findings.extend(lint_file(root, rel))

    for f in findings:
        print(f.render())
    if findings:
        print(f"mamdr_lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"mamdr_lint: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
