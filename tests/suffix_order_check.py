"""Suffix order and exact LCPs, checked directly, on a similar pair of
2^19 DNA symbols a side.

s2 is a copy of s1 with SIMILAR_MUTATION_RATE of its symbols substituted,
so most suffixes tie on their packed q-grams (q = 14 at this size), and
the refinement rounds and the tied pairs' descent set most of both
arrays.  Builds the forward index, then checks its suffix and LCP arrays
against the text with ``suffix_order_errors`` from conftest.py.  Exits 1
on any error.

    PYTHONPATH=src python tests/suffix_order_check.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conftest import suffix_order_errors
from klcf.core import SIMILAR_MUTATION_RATE, Text
from klcf.lce import _gram_keys, build_lce

SIDE = 1 << 19


def similar_pair(rng) -> Text:
    s1 = rng.integers(0, 4, SIDE)
    s2 = s1.copy()
    at = rng.random(SIDE) < SIMILAR_MUTATION_RATE
    s2[at] = (s2[at] + rng.integers(1, 4, np.count_nonzero(at))) % 4
    return Text.from_symbols(s1, s2)


def main() -> int:
    text = similar_pair(np.random.default_rng(1))
    s = text.concat
    q = _gram_keys(s)[1]
    t0 = time.perf_counter()
    idx = build_lce(text)
    t1 = time.perf_counter()
    errors = suffix_order_errors(s, idx.fwd.sa, idx.fwd.lcp)
    t2 = time.perf_counter()
    print(f"symbols={len(s)} q={q} build_s={t1 - t0:.2f} check_s={t2 - t1:.2f} "
          f"max_lcp={int(idx.fwd.lcp.max())} errors={len(errors)}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
