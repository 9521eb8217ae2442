"""Memory held by the LCE index after build_lce and after queries."""

import random
import tracemalloc

import numpy as np

from klcf.core import Stats, Text, generate_instance
from klcf.lce import build_lce, lce_backward, lce_forward, lcf0
from klcf.strided import klcf_strided


def _text():
    rng = random.Random(5)
    s1 = [rng.randrange(4) for _ in range(1 << 14)]
    s2 = [rng.randrange(4) for _ in range(1 << 14)]
    return Text.from_symbols(s1, s2)


def _held_per_symbol(make):
    """Bytes per concatenation symbol that make() leaves allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lce = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return lce, held / lce.n


def test_build_lce_holds_one_copy_of_each_array():
    # per symbol and per direction: the suffix array, the ranks and a
    # `levels`-row sparse table (row 0 is the LCP array), all int32, plus
    # one byte of slack; one query in each direction makes sure both
    # directions are built
    text = _text()

    def build_and_query():
        lce = build_lce(text)
        lce_forward(lce, 1, 2)
        lce_backward(lce, 1, 2)
        return lce

    lce, per_symbol = _held_per_symbol(build_and_query)
    assert lce.bwd is not None
    levels = lce.n.bit_length()
    assert per_symbol <= 2 * (levels + 2) * 4 + 1, per_symbol


def test_build_lce_alone_holds_the_forward_direction_only():
    text = _text()
    lce, per_symbol = _held_per_symbol(lambda: build_lce(text))
    assert lce.bwd is None
    levels = lce.n.bit_length()
    assert per_symbol <= (levels + 4) * 8, per_symbol


def test_build_lce_and_lcf0_hold_sa_lcp_and_rank_only():
    # three int32 arrays, 12 bytes per symbol, plus slack; no sparse table
    text = _text()

    def build_and_lcf0():
        lce = build_lce(text)
        lcf0(lce)
        return lce

    lce, per_symbol = _held_per_symbol(build_and_lcf0)
    assert lce.fwd.table is None and lce.bwd is None
    assert lce.fwd.sa.dtype == lce.fwd.lcp.dtype == lce.fwd.rank.dtype == np.int32
    assert per_symbol <= 16, per_symbol


def test_strided_without_a_pass_builds_no_sparse_table():
    text = generate_instance("random", 3072, 4, 4, seed=1)
    lce = build_lce(text)
    lcf0(lce)
    stats = Stats()
    klcf_strided(text, lce, 4, stats=stats)
    assert stats.passes == 0
    assert lce.fwd.table is None
    assert lce.bwd is None


def test_first_forward_query_builds_the_table():
    text = _text()
    lce = build_lce(text)
    assert lce.fwd.table is None
    s = np.asarray(text.concat).tolist()

    def scan(p, q):  # common prefix of the 1-based suffixes, directly
        t = 0
        while max(p, q) - 1 + t < len(s) and s[p - 1 + t] == s[q - 1 + t]:
            t += 1
        return t

    assert lce_forward(lce, 3, text.n1 + 8) == scan(3, text.n1 + 8)
    assert lce.fwd.table is not None and lce.fwd.table.dtype == np.int32
    assert np.shares_memory(lce.fwd.lcp, lce.fwd.table)  # no second LCP copy
    assert lce.bwd is None
    rng = random.Random(9)
    for _ in range(200):
        p, q = rng.randrange(1, lce.n + 1), rng.randrange(1, lce.n + 1)
        assert lce_forward(lce, p, q) == scan(p, q)
