"""Suffix order and exact LCPs, checked directly, on two DNA pairs whose
first side has 2^19 symbols.

- similar: s2 is a copy of s1 with SIMILAR_MUTATION_RATE of its symbols
  substituted, so most suffixes tie on their packed q-grams (q = 14 at
  this size), and the refinement rounds and the tied pairs' descent set
  most of both arrays.  Their finish rebuilds every q-gram.
- reads: s1 is a random reference and s2 is READS reads of READ_LEN
  symbols copied from it, each with READ_SUBSTITUTIONS substitutions.
  Fewer than n / q adjacent pairs tie, but not many fewer, so their finish
  gathers q-grams at their offsets near the point where it would rebuild
  them instead.

Builds each forward index, then checks its suffix and LCP arrays against
the text with ``suffix_order_errors`` from conftest.py.  Prints which
finish ran, from the number of ``_gram_keys`` calls that conftest.py's
``counted_gram_keys`` records: one where the q-grams were gathered, two
where they were rebuilt.  Exits 1 on any error.

    PYTHONPATH=src python tests/suffix_order_check.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conftest import counted_gram_keys, suffix_order_errors
from klcf.core import SIMILAR_MUTATION_RATE, Text
from klcf.lce import _gram_keys, build_lce

SIDE = 1 << 19
READS, READ_LEN, READ_SUBSTITUTIONS = 350, 150, 4


def substitute(rng, s: np.ndarray, at: np.ndarray) -> None:
    """Replace s[at] by different DNA symbols, in place."""
    s[at] = (s[at] + rng.integers(1, 4, len(at))) % 4


def similar_pair(rng) -> Text:
    s1 = rng.integers(0, 4, SIDE)
    s2 = s1.copy()
    substitute(rng, s2, np.flatnonzero(rng.random(SIDE) < SIMILAR_MUTATION_RATE))
    return Text.from_symbols(s1, s2)


def reads_pair(rng) -> Text:
    ref = rng.integers(0, 4, SIDE)
    reads = []
    for start in rng.integers(0, SIDE - READ_LEN + 1, READS):
        read = ref[start:start + READ_LEN].copy()
        substitute(rng, read, rng.choice(READ_LEN, READ_SUBSTITUTIONS, replace=False))
        reads.append(read)
    return Text.from_symbols(ref, np.concatenate(reads))


def check(name: str, text: Text) -> list[str]:
    s = text.concat
    with counted_gram_keys() as calls:
        t0 = time.perf_counter()
        idx = build_lce(text)
        t1 = time.perf_counter()
    q = _gram_keys(s)[1]
    sa, lcp = idx.fwd.sa, idx.fwd.lcp
    errors = suffix_order_errors(s, sa, lcp)
    t2 = time.perf_counter()
    ties = int(np.count_nonzero(lcp >= q))
    finish = {1: "gathered", 2: "rebuilt"}.get(len(calls), f"{len(calls)} _gram_keys calls")
    print(f"{name}: symbols={len(s)} q={q} tied_pairs={ties} "
          f"tied_q_per_symbol={ties * q / len(s):.2f} finish={finish} "
          f"build_s={t1 - t0:.2f} check_s={t2 - t1:.2f} max_lcp={int(lcp.max())} "
          f"errors={len(errors)}")
    return [f"{name}: {error}" for error in errors]


def main() -> int:
    rng = np.random.default_rng(1)
    errors = check("similar", similar_pair(rng)) + check("reads", reads_pair(rng))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
