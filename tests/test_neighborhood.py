import random
from math import comb

import pytest

from klcf.core import (MatchSpan, ResourceLimitError, Text, klcf_oracle,
                       verify_match)
from klcf.lce import build_lce
from klcf.neighborhood import (Keyword, build_index, enumerate_neighborhood,
                               exists_match_of_length, keyword_order,
                               klcf_neighborhood, query_index)

from conftest import random_text


def _materialize(text, kw):
    seq = text.s1 if kw.src_seq == 1 else text.s2
    window = seq[kw.src_start - 1:kw.src_start - 1 + kw.j].tolist()
    return tuple(sym for pos, sym in enumerate(window, start=1)
                 if pos not in kw.deletes)


def test_enumeration_canonical_order():
    # source "abbac", k=2: keywords abb(4,5) aba(3,5) abc(3,4) aba(2,5)
    # abc(2,4) aac(2,3) bba(1,5) bbc(1,4) bac(1,3) bac(1,2)
    text = Text.from_strings("abbac", "abbac")
    kws = list(enumerate_neighborhood(1, 1, 5, 2))
    got = [("".join(chr(ord("a") + s) for s in _materialize(text, kw)), kw.deletes)
           for kw in kws]
    assert got == [
        ("abb", (4, 5)), ("aba", (3, 5)), ("abc", (3, 4)), ("aba", (2, 5)),
        ("abc", (2, 4)), ("aac", (2, 3)), ("bba", (1, 5)), ("bbc", (1, 4)),
        ("bac", (1, 3)), ("bac", (1, 2)),
    ]


def test_enumeration_cardinality_and_uniqueness():
    for j in range(0, 10):
        for k in range(0, min(j, 4) + 1):
            tuples = [kw.deletes for kw in enumerate_neighborhood(1, 1, j, k)]
            assert len(tuples) == comb(j, k)
            assert len(set(tuples)) == len(tuples)
            assert all(len(d) == k and all(1 <= x <= j for x in d)
                       and list(d) == sorted(d) for d in tuples)


def test_enumeration_k0_single_keyword():
    kws = list(enumerate_neighborhood(2, 3, 4, 0))
    assert len(kws) == 1 and kws[0].deletes == ()


def test_enumeration_rejects_k_above_j():
    with pytest.raises(ValueError):
        list(enumerate_neighborhood(1, 1, 2, 3))


def test_keyword_order_is_total_and_matches_materialization(rng):
    t = random_text(rng, 30, 30, 2)
    lce = build_lce(t)
    j, k = 6, 2
    kws = []
    for seq_id, n in ((1, t.n1), (2, t.n2)):
        for start in range(1, n - j + 2):
            kws.extend(enumerate_neighborhood(seq_id, start, j, k))
    sample = rng.sample(kws, 60)
    for a in sample[:25]:
        for b in sample[:25]:
            got = keyword_order(lce, a, b)
            want_a = (a.deletes, _materialize(t, a))
            want_b = (b.deletes, _materialize(t, b))
            want = -1 if want_a < want_b else (0 if want_a == want_b else 1)
            assert got == want
            assert keyword_order(lce, b, a) == -got
    # transitivity spot check
    for _ in range(300):
        a, b, c = rng.sample(kws, 3)
        if keyword_order(lce, a, b) <= 0 and keyword_order(lce, b, c) <= 0:
            assert keyword_order(lce, a, c) <= 0


def test_keyword_order_rejects_mixed_regimes():
    t = Text.from_strings("abcabc", "abcabc")
    lce = build_lce(t)
    a = Keyword(1, 1, 4, (1,))
    b = Keyword(1, 1, 5, (1,))
    with pytest.raises(ValueError):
        keyword_order(lce, a, b)


def test_build_index_sorted_and_complete(rng):
    t = random_text(rng, 24, 24, 2)
    lce = build_lce(t)
    j, k = 5, 2
    idx = build_index(t, lce, (1, t.n1), j, k)
    assert idx.count == (t.n1 - j + 1) * comb(j, k)
    for a, b in zip(idx.entries, idx.entries[1:]):
        assert keyword_order(lce, a, b) <= 0


def test_build_index_budget_error():
    t = Text.from_strings("abcabcabcabc", "abcabcabcabc")
    lce = build_lce(t)
    with pytest.raises(ResourceLimitError):
        build_index(t, lce, (1, t.n1), 6, 2, mem_budget_words=10)


def test_query_hit_and_miss():
    t = Text.from_strings("abbac", "xbbac")
    lce = build_lce(t)
    idx = build_index(t, lce, (1, t.n1), 5, 2)
    # deleting (1, 2) from both windows leaves "bac" = "bac"
    hit = query_index(idx, lce, Keyword(2, 1, 5, (1, 2)))
    assert hit is not None and hit.src_start == 1
    # deleting (4, 5) leaves "abb" vs "xbb"
    assert query_index(idx, lce, Keyword(2, 1, 5, (4, 5))) is None
    with pytest.raises(ValueError):
        query_index(idx, lce, Keyword(2, 1, 4, (1, 2)))


def test_query_empty_index_misses():
    t = Text.from_strings("ab", "ab")
    lce = build_lce(t)
    idx = build_index(t, lce, (1, 2), 2, 1)  # piece long enough for one start
    assert idx.count == 2
    short = build_index(t, lce, (2, 2), 2, 1)  # clamped piece: no starts
    assert short.count == 0
    assert query_index(short, lce, Keyword(2, 1, 2, (1,))) is None


def test_exists_match_examples():
    t = Text.from_strings("abba", "aaba")
    lce = build_lce(t)
    span = exists_match_of_length(t, lce, 4, 1, 1)
    assert span is not None and span.length == 4 and (span.i1, span.i2) == (1, 1)
    assert exists_match_of_length(t, lce, 5, 1, 1) is None
    assert exists_match_of_length(t, lce, 2, 1, 2) is not None


def test_exists_match_trivial_when_j_at_most_k():
    t = Text.from_strings("abc", "xyz")
    lce = build_lce(t)
    span = exists_match_of_length(t, lce, 2, 3, 1)
    assert span is not None and span.length == 2
    assert verify_match(t, span, 3)


def test_exists_match_monotone_and_piece_invariant(rng):
    for _ in range(25):
        t = random_text(rng, rng.randrange(4, 28), rng.randrange(4, 28), 2)
        lce = build_lce(t)
        k = rng.randrange(0, 3)
        ellk = klcf_oracle(t, k).length
        results = []
        for j in range(1, min(t.n1, t.n2) + 1):
            spans = [exists_match_of_length(t, lce, j, k, h) for h in (1, 2, 5)]
            assert len({s is None for s in spans}) == 1  # h never changes the verdict
            results.append(spans[0] is not None)
            for s in spans:
                if s is not None:
                    assert s.length == j and verify_match(t, s, k)
        # true for j <= ellk, false beyond
        assert results == [j <= ellk for j in range(1, min(t.n1, t.n2) + 1)]


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
    for h in (1, 2, 4):
        assert klcf_neighborhood(t, lce, 1, h=h) == MatchSpan(3, 1, 2, (0,))
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
