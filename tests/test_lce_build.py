"""Suffix array and LCP array from a packed q-gram sort refined on tied
groups, and the backward index that only a backward query builds."""

import tracemalloc

import numpy as np
import pytest

from klcf import lce, route
from klcf.cli import RunConfig, run
from klcf.core import Stats, Text, generate_instance
from klcf.lce import MAX_SYMBOLS, SuffixIndex, _gram_keys, _grams_at, build_lce
from klcf.strided import klcf_strided, scan_pass

from conftest import counted_gram_keys, suffix_order_errors


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


def _assert_sorted_with_exact_lcp(s):
    idx = SuffixIndex(np.asarray(s, dtype=np.int64))
    assert suffix_order_errors(s, idx.sa, idx.lcp) == []


def test_random_dna_concatenation_is_sorted_with_exact_lcp():
    rng = np.random.default_rng(17)
    half = 1 << 16
    text = Text.from_symbols(rng.integers(0, 4, half), rng.integers(0, 4, half))
    _assert_sorted_with_exact_lcp(text.concat)


def _periodic_pair(p, n, rate=0.01):
    """A random motif of p DNA symbols tiled to n on each side, with a
    share `rate` of each side's symbols substituted."""
    rng = np.random.default_rng(0)
    motif = rng.integers(0, 4, p)
    sides = []
    for _ in range(2):
        s = np.resize(motif, n)
        at = rng.random(n) < rate
        s[at] = (s[at] + 1 + rng.integers(0, 3, np.count_nonzero(at))) % 4
        sides.append(s)
    return Text.from_symbols(*sides)


@pytest.mark.parametrize("kind", ["similar", "periodic"])
def test_repetitive_dna_pairs_are_sorted_with_exact_lcp(kind):
    # most suffixes tie on their q-grams here, so the refinement rounds and
    # the tied pairs' descent set most of both arrays
    n = 1 << 15
    if kind == "similar":  # s2 is a 1 % substituted copy of s1
        text = generate_instance("similar", n, 4, 0, seed=23)
    else:
        text = _periodic_pair(7, n)
    _assert_sorted_with_exact_lcp(text.concat)


def _with_copies(values, n, copies, length, rng):
    """n symbols drawn from values, with `copies` windows of `length`
    copied from the first half into the second."""
    s = values[rng.integers(0, len(values), n)]
    for _ in range(copies):
        src = int(rng.integers(0, n // 2 - length))
        dst = int(rng.integers(n // 2, n - length))
        s[dst:dst + length] = s[src:src + length]
    return s


def _build_counting(s):
    """(calls of _gram_keys, tied pairs, q) for one checked build of s."""
    with counted_gram_keys() as calls:
        idx = SuffixIndex(s)
    assert suffix_order_errors(s, idx.sa, idx.lcp) == []
    q = _gram_keys(s)[1]
    return len(calls), int(np.count_nonzero(idx.lcp >= q)), q


def test_few_tied_pairs_gather_their_q_grams():
    # planted copies tie a few hundred adjacent pairs on their q-grams, far
    # fewer than n / q, so the finish gathers q-grams at their offsets
    rng = np.random.default_rng(29)
    s = _with_copies(np.arange(4), 1 << 15, 4, 100, rng)
    calls, ties, q = _build_counting(s)
    assert 0 < ties * q < len(s)
    assert calls == 1


def test_many_tied_pairs_rebuild_every_q_gram():
    text = generate_instance("similar", 1 << 12, 4, 0, seed=31)
    calls, ties, q = _build_counting(text.concat)
    assert ties * q >= len(text.concat)
    assert calls == 2


def test_a_value_range_of_n_or_more_is_rejected():
    # a Text's concatenation spans sigma + 2 < n values, so symbols are only
    # shifted by their minimum; a range n wide would not fit its fields
    n = 300
    s = np.zeros(n, np.int64)
    s[-1] = n - 1
    SuffixIndex(s)
    s[0] = -1
    with pytest.raises(ValueError, match="range"):
        SuffixIndex(s)


@pytest.mark.parametrize("values", [[0, 1, 2, 3], [5, 6], [-3, 250, 7]])
def test_gathered_q_grams_equal_the_packed_ones(values):
    # every position, the last q - 1 padded with 0 past the end, and n;
    # negative symbols and a wide range under n are shifted by the minimum
    rng = np.random.default_rng(len(values))
    s = np.array(values, np.int64)[rng.integers(0, len(values), 300)]
    key, q, f, shift = _gram_keys(s)
    at = np.arange(len(s) + 1, dtype=np.int64)
    assert np.array_equal(_grams_at(s, at, q, f, shift), key)


def _gram_cases(sigma, lengths, rng):
    """Random and period-3 sequences over [0, sigma) holding 0 and
    sigma - 1, so that the first sort packs the q their width allows."""
    for n in lengths:
        for seq in (rng.integers(0, sigma, n), np.resize(rng.integers(0, sigma, 3), n)):
            seq = seq.tolist()
            seq[0], seq[-1] = 0, sigma - 1
            yield seq


def _around(q, base=0):
    return [base + n for n in (q - 1, q, q + 1, 2 * q - 1, 2 * q + 1) if base + n >= 2]


@pytest.mark.parametrize("sigma, q", [(1, 52), (2, 26), (4, 17), (20, 10), (200, 6)])
def test_first_sort_at_every_alphabet_width(sigma, q):
    # at least sigma symbols long, so the symbols span a range under n;
    # under 2^11 symbols, so GRAM_BITS // f sets q
    rng = np.random.default_rng(sigma)
    for seq in _gram_cases(sigma, _around(q, sigma), rng):
        assert _gram_keys(np.array(seq, dtype=np.int64))[1] == q
        _check(seq)


@pytest.mark.parametrize("q", [16, 13, 8, 5, 4, 3, 2, 1])
def test_first_sort_at_lengths_around_q(monkeypatch, q):
    # two symbols take 2 bits each, so a budget of 2q bits packs q of them
    monkeypatch.setattr(lce, "GRAM_BITS", 2 * q)
    rng = np.random.default_rng(q)
    for seq in _gram_cases(2, _around(q), rng):
        assert _gram_keys(np.array(seq, dtype=np.int64))[1] == q
        _check(seq)
    _check([1] * (4 * q + 3))


@pytest.mark.parametrize("sigma, q", [(2, 5), (4, 3), (20, 2)])
def test_first_sort_where_the_positions_set_q(monkeypatch, sigma, q):
    # 33 to 64 symbols take 6 position bits, which leave a 16-bit word 10
    # bits for the q-gram, fewer than GRAM_BITS
    monkeypatch.setattr(lce, "WORD_BITS", 16)
    rng = np.random.default_rng(sigma)
    for seq in _gram_cases(sigma, [33, 34, 47, 63, 64], rng):
        assert _gram_keys(np.array(seq, dtype=np.int64))[1] == q
        _check(seq)
    _check([1] * 64)


@pytest.mark.parametrize("n", [7, 15, 16, 17, 33, 64])
def test_sparse_alphabet_is_densified_first(n):
    # a value range at least n wide is replaced by the values' ranks before
    # the build; an order-preserving map leaves sa and lcp unchanged
    rng = np.random.default_rng(n)
    values = rng.choice(10 ** 9, 5, replace=False) - 10 ** 8
    for seq in (values[rng.integers(0, 5, n)], values[np.resize([0, 1, 1], n)]):
        idx = SuffixIndex(np.unique(seq, return_inverse=True)[1])
        assert (idx.sa.tolist(), idx.lcp.tolist()) == _naive(seq.tolist())


def test_forward_build_peak_on_random_dna():
    # 19.0 bytes per symbol, where the first sort's int64 words, sorted in
    # place, sit beside the int32 suffix and LCP arrays (16) and one chunk's
    # temporaries for the LCPs (3 at this size); the few tied pairs gather
    # their q-grams, where rebuilding every q-gram peaked at 21.0, and
    # prefix doubling peaked near 49
    rng = np.random.default_rng(19)
    half = 1 << 16
    text = Text.from_symbols(rng.integers(0, 4, half), rng.integers(0, 4, half))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = build_lce(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert idx.fwd.table is None
    assert peak <= 20 * idx.n, peak / idx.n


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
    stats = Stats()
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

    monkeypatch.setattr(route, "build_lce", build)
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
