"""LCE index at scale: build, lcf0 and queries on 2^19 random DNA symbols a side.

Builds the forward index, runs lcf0, then sends 1,000 forward and 1,000
backward queries (scalar and batched, so the backward index is built too)
and checks each against a direct scan of the concatenation.  Prints the
forward build's own time and tracemalloc peak apart from lcf0 and the
queries.  Exits 1 on a wrong answer, or when the process's peak resident
memory (VmHWM) exceeds the limit.

    PYTHONPATH=src python tests/lce_scale_check.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from klcf.core import Text
from klcf.lce import build_lce, lce_backward, lce_forward, lcf0

SIDE = 1 << 19
QUERIES = 1000
# both directions, with int32 arrays and each sparse table built by its
# first query, peaked at 305 MB; the int64 tables built eagerly, at 497
LIMIT_MB = 400


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def scan_forward(s: np.ndarray, p: int, q: int) -> int:
    """Common prefix length of s[p:] and s[q:] (0-based), in doubling chunks."""
    m = len(s) - max(p, q)
    done, step = 0, 64
    while done < m:
        end = min(m, done + step)
        diff = np.flatnonzero(s[p + done:p + end] != s[q + done:q + end])
        if len(diff):
            return done + int(diff[0])
        done, step = end, 2 * step
    return m


def main() -> int:
    rng = np.random.default_rng(1)
    text = Text.from_symbols(rng.integers(0, 4, SIDE), rng.integers(0, 4, SIDE))
    tracemalloc.start()
    t0 = time.perf_counter()
    idx = build_lce(text)
    t_build = time.perf_counter()
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ell0, i1, i2 = lcf0(idx)
    t1 = time.perf_counter()
    s = np.asarray(text.concat)
    rev = s[::-1].copy()
    size = len(s)
    p = rng.integers(1, size + 1, QUERIES)
    q = rng.integers(1, size + 1, QUERIES)
    fwd = idx.lce_forward_batch(p, q)
    bwd = idx.lce_backward_batch(p, q)
    wrong = 0
    for a, b, f, r in zip(p.tolist(), q.tolist(), fwd.tolist(), bwd.tolist()):
        want_f = scan_forward(s, a - 1, b - 1)
        want_b = scan_forward(rev, size - a, size - b)
        got = (lce_forward(idx, a, b), f, lce_backward(idx, a, b), r)
        wrong += got != (want_f, want_f, want_b, want_b)
    t2 = time.perf_counter()
    witness_ok = ell0 > 0 and np.array_equal(text.s1[i1 - 1:i1 - 1 + ell0],
                                             text.s2[i2 - 1:i2 - 1 + ell0])
    peak = peak_rss_mb()
    print(f"symbols={size} build_s={t_build - t0:.2f} "
          f"build_peak_mb={build_peak / 2**20:.0f} "
          f"({build_peak / size:.1f} B/symbol) lcf0_s={t1 - t_build:.2f} "
          f"queries_s={t2 - t1:.2f} ell0={ell0} wrong={wrong} "
          f"peak_rss_mb={peak:.0f} limit_mb={LIMIT_MB}")
    if wrong or not witness_ok:
        print("error: LCE answers disagree with direct scans", file=sys.stderr)
        return 1
    if peak > LIMIT_MB:
        print("error: peak resident memory over the limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
