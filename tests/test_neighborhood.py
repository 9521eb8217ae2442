import random
import tracemalloc
from math import comb

import pytest

from klcf.core import (MatchSpan, ResourceLimitError, Text, generate_instance,
                       klcf_oracle, verify_match)
from klcf.lce import build_lce, lcf0
from klcf.neighborhood import (_delete_tuples, exists_match_of_length,
                               klcf_neighborhood)

from conftest import random_text


def _materialize(text, deletes):
    """s1 with the 1-based positions in deletes removed."""
    return tuple(sym for pos, sym in enumerate(text.s1.tolist(), start=1)
                 if pos not in deletes)


def test_enumeration_canonical_order():
    # source "abbac", k=2: keywords abb(4,5) aba(3,5) abc(3,4) aba(2,5)
    # abc(2,4) aac(2,3) bba(1,5) bbc(1,4) bac(1,3) bac(1,2)
    text = Text.from_strings("abbac", "abbac")
    got = [("".join(chr(ord("a") + s) for s in _materialize(text, d)), d)
           for d in _delete_tuples(1, 5, 2)]
    assert got == [
        ("abb", (4, 5)), ("aba", (3, 5)), ("abc", (3, 4)), ("aba", (2, 5)),
        ("abc", (2, 4)), ("aac", (2, 3)), ("bba", (1, 5)), ("bbc", (1, 4)),
        ("bac", (1, 3)), ("bac", (1, 2)),
    ]


def test_enumeration_cardinality_and_uniqueness():
    for j in range(0, 10):
        for k in range(0, min(j, 4) + 1):
            tuples = list(_delete_tuples(1, j, k))
            assert len(tuples) == comb(j, k)
            assert len(set(tuples)) == len(tuples)
            assert all(len(d) == k and all(1 <= x <= j for x in d)
                       and list(d) == sorted(d) for d in tuples)


def test_enumeration_k0_single_keyword():
    assert list(_delete_tuples(1, 4, 0)) == [()]


def test_enumeration_of_k_above_j_is_empty():
    # exists_match_of_length answers j <= k before it enumerates
    assert list(_delete_tuples(1, 2, 3)) == []


def test_build_index_budget_error():
    t = Text.from_strings("abcabcabcabc", "abcabcabcabc")
    lce = build_lce(t)
    with pytest.raises(ResourceLimitError):
        exists_match_of_length(t, lce, 6, 2, mem_budget_words=10)


def test_probe_budget_boundary():
    rng = random.Random(11)
    t = random_text(rng, 40, 33, 3)
    lce = build_lce(t)
    for j, k in ((6, 2), (9, 1), (5, 0)):
        charge = comb(j, k) * (t.n1 - j + 1) * (k + 2)
        exists_match_of_length(t, lce, j, k, mem_budget_words=charge)
        with pytest.raises(ResourceLimitError):
            exists_match_of_length(t, lce, j, k, mem_budget_words=charge - 1)


def test_query_hit_and_miss():
    # deleting (1, 2) from both windows leaves "bac" = "bac"
    t = Text.from_strings("abbac", "xbbac")
    lce = build_lce(t)
    assert exists_match_of_length(t, lce, 5, 2) == MatchSpan(5, 1, 1, (0,))
    # two mismatches "ab"/"xy" cannot be deleted with one position
    t = Text.from_strings("abbac", "xybac")
    lce = build_lce(t)
    assert exists_match_of_length(t, lce, 5, 2) is not None
    assert exists_match_of_length(t, lce, 5, 1) is None


def test_exists_match_examples():
    t = Text.from_strings("abba", "aaba")
    lce = build_lce(t)
    span = exists_match_of_length(t, lce, 4, 1)
    assert span is not None and span.length == 4 and (span.i1, span.i2) == (1, 1)
    assert exists_match_of_length(t, lce, 5, 1) is None
    assert exists_match_of_length(t, lce, 2, 1) is not None


def test_exists_match_trivial_when_j_at_most_k():
    t = Text.from_strings("abc", "xyz")
    lce = build_lce(t)
    span = exists_match_of_length(t, lce, 2, 3)
    assert span is not None and span.length == 2
    assert verify_match(t, span, 3)


def _smallest_pair(text, j, k):
    """Brute force: the smallest (i1, i2) of a length-j window pair with at
    most k mismatches, or None."""
    s1, s2 = text.s1.tolist(), text.s2.tolist()
    for i1 in range(text.n1 - j + 1):
        for i2 in range(text.n2 - j + 1):
            if sum(a != b for a, b in zip(s1[i1:i1 + j], s2[i2:i2 + j])) <= k:
                return i1 + 1, i2 + 1
    return None


def test_exists_match_is_monotone(rng):
    for _ in range(25):
        t = random_text(rng, rng.randrange(4, 28), rng.randrange(4, 28), 2)
        lce = build_lce(t)
        k = rng.randrange(0, 3)
        ellk = klcf_oracle(t, k).length
        results = []
        for j in range(1, min(t.n1, t.n2) + 1):
            span = exists_match_of_length(t, lce, j, k)
            results.append(span is not None)
            if span is not None:
                assert span.length == j and verify_match(t, span, k)
        # true for j <= ellk, false beyond
        assert results == [j <= ellk for j in range(1, min(t.n1, t.n2) + 1)]


def test_exists_match_witness_is_smallest_at_every_length():
    rng = random.Random(23)
    for _ in range(60):
        t = random_text(rng, rng.randrange(1, 30), rng.randrange(1, 30),
                        rng.choice([2, 3, 8]))
        lce = build_lce(t)
        k = rng.randrange(0, 4)
        for j in range(1, klcf_oracle(t, k).length + 1):
            span = exists_match_of_length(t, lce, j, k)
            assert (span.i1, span.i2) == _smallest_pair(t, j, k), (j, k)


def test_exists_match_peak_memory_is_linear_in_the_text():
    k = 3
    t = generate_instance("random", 1024, 4, k, seed=5)
    lce = build_lce(t)
    j = lcf0(lce)[0] + k
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        exists_match_of_length(t, lce, j, k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * (k + 2) * 8 * len(t.concat)


def test_klcf_neighborhood_equals_oracle(rng):
    for _ in range(40):
        t = random_text(rng, rng.randrange(0, 40), rng.randrange(0, 40),
                        rng.choice([2, 4, 20]))
        k = rng.randrange(0, 3)
        span = klcf_neighborhood(t, lce=build_lce(t), k=k)
        assert span == klcf_oracle(t, k)
        assert verify_match(t, span, k)


def test_klcf_neighborhood_witness_is_smallest_not_first_hit():
    # the length-3 windows within one mismatch are (2, 1) and (1, 2); the
    # scan over s2 meets (2, 1) first, at q2 = 1
    t = Text.from_strings("bcab", "caca")
    lce = build_lce(t)
    assert klcf_neighborhood(t, lce, 1) == MatchSpan(3, 1, 2, (0,))
    assert klcf_oracle(t, 1) == MatchSpan(3, 1, 2, (0,))


def test_klcf_neighborhood_witness_at_ell0_is_not_the_exact_seed():
    # l1 = l0 = 2: lcf0's exact seed "ab" is at (3, 1), but "ac" against
    # "ab" at (1, 1) is a smaller optimal window with one mismatch
    t = Text.from_strings("acab", "abbb")
    lce = build_lce(t)
    assert klcf_neighborhood(t, lce, 1) == MatchSpan(2, 1, 1, (1,))
    assert klcf_oracle(t, 1) == MatchSpan(2, 1, 1, (1,))


def test_klcf_neighborhood_medium_instance():
    rng = random.Random(42)
    t = random_text(rng, 64, 64, 4)
    lce = build_lce(t)
    span = klcf_neighborhood(t, lce, 2)
    assert span.length == klcf_oracle(t, 2).length
    assert verify_match(t, span, 2)


def test_klcf_neighborhood_identical_strings():
    t = Text.from_strings("abcabcab", "abcabcab")
    span = klcf_neighborhood(t, build_lce(t), 0)
    assert span.length == 8


def test_klcf_neighborhood_budget_propagates():
    rng = random.Random(9)
    t = random_text(rng, 220, 220, 2)
    lce = build_lce(t)
    with pytest.raises(ResourceLimitError):
        klcf_neighborhood(t, lce, 6, mem_budget_words=1 << 10)
