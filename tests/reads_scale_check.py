"""Default path at scale: one read against a 2^22-symbol DNA reference.

Draws a seeded random DNA reference of 2^22 symbols and copies a
150-symbol read from it at 1-based position P with 4 substitutions.  The
read aligns whole at (P, 1) within k = 4 mismatches, so the optimum has
length 150 = |read|, and for this seed (P, 1) is its only witness (checked
once with bench/reference.py).  Writes both sequences to a temporary
directory and solves them through ``klcf.cli.main`` under the default
``--algo auto``.  Exits 1 unless the reported span is the planted one, or
when the process's peak resident memory (VmHWM) exceeds the limit.

    PYTHONPATH=src python tests/reads_scale_check.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from klcf.cli import main as klcf_main

REF_LEN = 1 << 22
READ_LEN = 150
K = 4
SEED = 11
# 144 MB with one byte per symbol of text and the tied pairs' q-grams
# gathered at their offsets; 176 MB when every q-gram was rebuilt for them,
# 228 MB when Text held its symbols twice as int64, and 1,171 MB with an
# eager forward sparse table
LIMIT_MB = 208


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def planted_instance():
    """Reference, read, 1-based P and the substituted read offsets."""
    rng = np.random.default_rng(SEED)
    ref = rng.integers(0, 4, REF_LEN, dtype=np.uint8)
    p0 = int(rng.integers(0, REF_LEN - READ_LEN + 1))
    read = ref[p0:p0 + READ_LEN].copy()
    offsets = np.sort(rng.choice(READ_LEN, K, replace=False))
    read[offsets] = (read[offsets] + rng.integers(1, 4, K)) % 4
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)
    return letters[ref].tobytes(), letters[read].tobytes(), p0 + 1, offsets.tolist()


def main() -> int:
    ref, read, pos, offsets = planted_instance()
    want = {"length": READ_LEN, "pos1": pos, "pos2": 1, "mismatches": offsets}
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "ref.txt", Path(tmp) / "read.txt"
        f1.write_bytes(ref + b"\n")
        f2.write_bytes(read + b"\n")
        del ref, read
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            status = klcf_main(["--k", str(K), "--json", str(f1), str(f2)])
        elapsed = time.perf_counter() - t0
    got = json.loads(out.getvalue()) if status == 0 else {}
    peak = peak_rss_mb()
    print(f"symbols={REF_LEN}+{READ_LEN} solve_s={elapsed:.1f} "
          f"span={[got.get(key) for key in want]} algo={got.get('algo')} "
          f"peak_rss_mb={peak:.0f} limit_mb={LIMIT_MB}")
    if status != 0 or any(got[key] != value for key, value in want.items()):
        print(f"error: expected the planted span {want}", file=sys.stderr)
        return 1
    if peak > LIMIT_MB:
        print("error: peak resident memory over the limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
