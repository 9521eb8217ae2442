import random

import numpy as np
import pytest

from klcf.core import MatchSpan, Text, klcf_oracle
from klcf.diagonal import argmin_pair, batches, diagonals, klcf_diagonal_scan
from klcf.lce import build_lce
from klcf.strided import ScanStats, klcf_strided

from conftest import brute_klcf, random_text


def _structured_texts():
    ab = [0, 1] * 40
    a, b = [0], [0, 1]
    for _ in range(9):
        a, b = b, b + a
    yield Text.from_symbols(ab, ab[1:] + [0])
    yield Text.from_symbols([0] * 70, [0] * 23 + [1] + [0] * 30)
    yield Text.from_symbols([0, 1, 2] * 25, [0, 1, 2, 0, 2, 1] * 12)
    yield Text.from_symbols(b[:90], b[10:100])
    yield Text.from_symbols([0] * 60 + [1], [1] + [0] * 60)
    yield Text.from_symbols(list(range(50)), list(range(49, -1, -1)))
    yield Text.from_symbols([0], [0] * 80)
    yield Text.from_symbols([2] * 80, [2])
    yield Text.from_symbols([1, 2, 3], [4, 5, 6])


def test_diagonals_geometry():
    for n1, n2 in ((1, 1), (3, 5), (5, 3), (4, 4), (1, 7)):
        st1, st2, length = diagonals(n1, n2)
        assert len(st1) == n1 + n2 - 1
        for g in range(n1 + n2 - 1):
            a = g - (n1 - 1)  # i2 - i1 along the diagonal
            cells = [(i1, i1 + a) for i1 in range(1, n1 + 1) if 1 <= i1 + a <= n2]
            assert (st1[g], st2[g], length[g]) == (*cells[0], len(cells))
        for lo in range(n1 + n2 - 2):
            part = diagonals(n1, n2, lo, lo + 2)
            for full, sliced in zip((st1, st2, length), part):
                assert sliced.tolist() == full[lo:lo + 2].tolist()


def test_batches_respect_the_budget(rng):
    for _ in range(200):
        w = np.array([rng.randrange(0, 9) for _ in range(rng.randrange(1, 40))])
        budget = rng.randrange(1, 20)
        got = list(batches(w, budget))
        assert got[0][0] == 0 and got[-1][1] == len(w)
        for (lo, hi), (nlo, _) in zip(got, got[1:] + [(len(w), None)]):
            assert lo < hi == nlo
            assert w[lo:hi].sum() <= budget or hi == lo + 1


def test_argmin_pair_is_lexicographic_past_any_key_width(rng):
    big = 1 << 40
    for _ in range(300):
        size = rng.randrange(1, 12)
        a = np.array([rng.choice([0, 3, big, big + 1]) for _ in range(size)])
        b = np.array([rng.choice([0, 5, big, 2 * big]) for _ in range(size)])
        g = argmin_pair(a, b)
        assert (a[g], b[g]) == min(zip(a.tolist(), b.tolist()))


@pytest.mark.parametrize("budget", [1, 7, 64, 1 << 20])
def test_scan_equals_oracle_with_witness(rng, budget):
    # a budget below one diagonal's width puts every diagonal in a batch of
    # its own; the others cut batches at varying rows
    for _ in range(150):
        t = random_text(rng, rng.randrange(0, 45), rng.randrange(0, 45),
                        rng.choice([1, 2, 4, 20, 128]))
        k = rng.randrange(0, 7)
        assert klcf_diagonal_scan(t, k, budget) == klcf_oracle(t, k)


@pytest.mark.parametrize("budget", [1, 50, 1 << 20])
def test_scan_structured_shapes_with_witness(budget):
    for t in _structured_texts():
        for k in (0, 1, 3, 8, 200):
            assert klcf_diagonal_scan(t, k, budget) == klcf_oracle(t, k), (t, k)


def test_scan_against_brute_force(rng):
    for _ in range(300):
        t = random_text(rng, rng.randrange(1, 12), rng.randrange(1, 12),
                        rng.choice([2, 3]))
        k = rng.randrange(0, 4)
        span = klcf_diagonal_scan(t, k, rng.choice([1, 9, 1 << 20]))
        assert (span.length, span.i1, span.i2) == brute_klcf(t, k)


def test_scan_empty_and_large_alphabet():
    assert klcf_diagonal_scan(Text.from_symbols([], [1, 2]), 3) == MatchSpan(0, 1, 1, ())
    # symbols past int16: the scan compares them at full width
    rng = random.Random(3)
    sigma = 1 << 16
    s1 = np.array([rng.randrange(sigma) for _ in range(60)] + [7, sigma - 1, 9])
    s2 = np.array([rng.randrange(sigma) for _ in range(40)] + [7, sigma - 1, 9])
    t = Text(s1, s2, sigma)
    assert klcf_diagonal_scan(t, 0).length == 3
    assert klcf_diagonal_scan(t, 1) == klcf_oracle(t, 1)


def _similar(rng, n, rate):
    s1 = [rng.randrange(4) for _ in range(n)]
    s2 = [(c + 1) % 4 if rng.random() < rate else c for c in s1]
    return Text.from_symbols(s1, s2)


def test_strided_witness_on_both_paths(rng):
    """Witnesses equal the oracle's whether the passes settle the optimum or
    the exhaustive scan finishes the search; ScanStats tells which ran."""
    seen = {"passes": 0, "scan": 0, "passes then scan": 0}
    cases = [random_text(rng, rng.randrange(1, 60), rng.randrange(1, 60),
                         rng.choice([2, 4, 20])) for _ in range(60)]
    cases += [_similar(rng, rng.randrange(100, 400), 0.01) for _ in range(15)]
    cases += [_similar(rng, rng.randrange(150, 400), rate) for rate in (0.05, 0.1)
              for _ in range(10)]
    for t in cases:
        for k in (0, 2, 4):
            stats = ScanStats()
            span = klcf_strided(t, build_lce(t), k, stats=stats)
            assert span == klcf_oracle(t, k), (t.s1, t.s2, k, stats)
            assert stats.scan_cells in (0, t.n1 * t.n2)
            assert stats.passes == len(stats.pass_strides)
            if stats.scan_cells:
                seen["passes then scan" if stats.passes else "scan"] += 1
            elif stats.passes:
                seen["passes"] += 1
    assert all(seen.values()), seen
