#!/usr/bin/env python3
"""Fail if a compiled library holds a fused multiply-add instruction.

The SIMD kernels in src/tensor are bit-identical to their scalar bodies
only while every multiply and add rounds on its own (see
src/tensor/simd.h). The AVX-512F target makes FMA encodings legal in the
zmm matmul body, so the -ffp-contract=off flag on the tensor library is
the only thing that stops the compiler from fusing a mul+add pair there.
This check disassembles the library and fails on any
vfmadd/vfmsub/vfnmadd/vfnmsub (which also covers vfmaddsub/vfmsubadd).

Usage:
  tools/mamdr_fma_check.py LIB [LIB ...]

Exit status: 0 = no FMA, 1 = FMA found (or the disassembly holds no
vector multiply at all, which means the wrong file was checked),
2 = objdump failed, 77 = objdump is not installed (ctest SKIP).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from typing import List

FMA_RE = re.compile(r"\bv(?:fn?madd|fn?msub)\w*")
# Every build of the tensor library has a vector multiply (the AVX2 panel
# body at least), so a disassembly without one was not of that library.
MUL_RE = re.compile(r"\bv?mulps\b")
SKIP = 77


def fma_lines(disassembly: str) -> List[str]:
    """The instruction lines of `objdump -d` output that are FMAs, each
    prefixed with the function it sits in."""
    found: List[str] = []
    function = "?"
    for line in disassembly.splitlines():
        header = re.match(r"^[0-9a-f]+ <(.+)>:$", line)
        if header:
            function = header.group(1)
            continue
        if FMA_RE.search(line.split("#")[0]):
            found.append(f"{function}: {line.strip()}")
    return found


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("mamdr_fma_check: objdump not found; skipping")
        return SKIP
    status = 0
    for lib in argv:
        done = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", lib],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"mamdr_fma_check: objdump failed on {lib}: "
                  f"{done.stderr.strip()}", file=sys.stderr)
            return 2
        if not MUL_RE.search(done.stdout):
            print(f"FAIL: {lib}: no vector multiply in the disassembly")
            status = 1
            continue
        lines = fma_lines(done.stdout)
        for line in lines:
            print(f"FAIL: {lib}: fused multiply-add in {line}")
        if lines:
            status = 1
        else:
            print(f"mamdr_fma_check: {lib}: no fused multiply-add")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
