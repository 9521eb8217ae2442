"""Suffix array and LCP array by prefix doubling, and the backward index
that only a backward query builds."""

import numpy as np
import pytest

from klcf import cli
from klcf.cli import RunConfig, run
from klcf.core import Text
from klcf.lce import MAX_SYMBOLS, SuffixIndex, build_lce
from klcf.strided import ScanStats, klcf_strided, scan_pass


def _naive(seq):
    """Suffixes sorted by direct comparison, and each adjacent pair's LCP."""
    sa = sorted(range(len(seq)), key=lambda i: seq[i:])
    lcp = [0] * len(sa)
    for r in range(1, len(sa)):
        a, b = seq[sa[r - 1]:], seq[sa[r]:]
        while lcp[r] < min(len(a), len(b)) and a[lcp[r]] == b[lcp[r]]:
            lcp[r] += 1
    return sa, lcp


def _check(seq):
    idx = SuffixIndex(np.array(seq, dtype=np.int64))
    sa, lcp = _naive(seq)
    assert idx.sa.tolist() == sa
    assert idx.lcp.tolist() == lcp
    assert idx.rank[idx.sa].tolist() == list(range(len(seq)))


def _fibonacci(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


@pytest.mark.parametrize("seq", [[], [3], [1, 1], [1, 0], [0, 1]])
def test_tiny_inputs(seq):
    _check(seq)


@pytest.mark.parametrize("n", [3, 4, 5, 63, 64, 65, 300])
def test_unary_string_takes_the_most_rounds(n):
    _check([7] * n)


@pytest.mark.parametrize("n", [1, 2, 17, 150, 300])
def test_periodic_strings(n):
    _check([0, 1] * n)  # ab^n, up to 600 symbols
    _check(([0, 1] * n)[:n])


@pytest.mark.parametrize("n", [2, 13, 100, 233, 300])
def test_fibonacci_strings(n):
    _check(_fibonacci(n))


def test_random_dna_concatenation_is_sorted_with_exact_lcp():
    # every adjacent pair agrees on its first lcp symbols, then either has
    # the smaller symbol first or its first suffix ends; with sa a
    # permutation, that fixes both arrays
    rng = np.random.default_rng(17)
    half = 1 << 16
    text = Text.from_symbols(rng.integers(0, 4, half), rng.integers(0, 4, half))
    s = np.asarray(text.concat, dtype=np.int64)
    n = len(s)
    idx = SuffixIndex(s)
    sa, lcp = idx.sa, idx.lcp
    assert np.array_equal(np.sort(sa), np.arange(n))
    assert lcp[0] == 0
    p, q, ext = sa[:-1], sa[1:], lcp[1:]
    assert (p + ext <= n).all() and (q + ext <= n).all()
    padded = np.append(s, -1)  # a suffix's end sorts before every symbol
    for t in range(int(ext.max())):
        live = ext > t
        assert (padded[p[live] + t] == padded[q[live] + t]).all()
    assert (padded[p + ext] < padded[q + ext]).all()


def test_refuses_more_symbols_than_int32_ranks_hold():
    class Huge:  # only its length is read before the check
        def __len__(self):
            return MAX_SYMBOLS + 1

    with pytest.raises(ValueError, match="at most"):
        SuffixIndex(Huge())


@pytest.fixture(scope="module")
def random_dna():
    rng = np.random.default_rng(3)
    n = 3072
    return Text.from_symbols(rng.integers(0, 4, n), rng.integers(0, 4, n))


def test_strided_without_a_pass_builds_no_backward_index(random_dna):
    lce = build_lce(random_dna)
    stats = ScanStats()
    klcf_strided(random_dna, lce, 4, stats=stats)
    assert stats.passes == 0
    assert lce.bwd is None


@pytest.mark.parametrize("algo", ["tabulation", "naive"])
def test_run_without_lce_queries_builds_no_backward_index(algo, tmp_path,
                                                          monkeypatch, capsys):
    built = []

    def build(text):
        built.append(build_lce(text))
        return built[-1]

    monkeypatch.setattr(cli, "build_lce", build)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("ACGTTGCAAC" * 20)
    b.write_text("TTGCAACGTA" * 20)
    assert run(RunConfig(k=2, algo=algo), str(a), str(b)) == 0
    assert "length=" in capsys.readouterr().out
    assert len(built) == 1 and built[0].bwd is None


def test_first_pass_builds_the_backward_index(random_dna):
    lce = build_lce(random_dna)
    klcf_strided(random_dna, lce, 4)
    assert lce.bwd is None
    span = scan_pass(random_dna, lce, 4, 256)
    assert lce.bwd is not None
    assert span == scan_pass(random_dna, build_lce(random_dna), 4, 256)
