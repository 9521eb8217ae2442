import random

import numpy as np
import pytest

import klcf
from klcf.core import (MatchSpan, Text, klcf_bounds, klcf_oracle,
                       mismatch_offsets, trivial_span, verify_match)

from conftest import brute_klcf, random_text


def test_text_densification_and_concat():
    t = Text.from_strings("abba", "aaba")
    assert t.n1 == t.n2 == 4
    assert t.sigma == 2
    assert t.s1.tolist() == [0, 1, 1, 0]
    assert t.s2.tolist() == [0, 0, 1, 0]
    # concat = s1 . SEP1 . s2 . SEP2 with sentinels above the alphabet
    assert len(t.concat) == t.n1 + t.n2 + 2
    assert t.concat[t.n1] == t.sigma
    assert t.concat[-1] == t.sigma + 1


@pytest.mark.parametrize("s1, s2", [
    (b"", b""), (b"ACGT", b""), (b"", b"zyx"), (b"GATTACA", b"TACGAT"),
    (bytes(range(256)), b"\x00\xff\x80"), (b"aaaa", b"aaaa")])
def test_byte_inputs_densify_as_integer_lists(s1, s2):
    fast = Text.from_symbols(s1, s2)
    plain = Text.from_symbols(list(s1), list(s2))
    assert fast.sigma == plain.sigma
    for name in ("s1", "s2", "alphabet", "concat"):
        got, want = getattr(fast, name), getattr(plain, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


@pytest.mark.parametrize("sigma, dtype", [
    (254, np.uint8), (255, np.uint16), (256, np.uint16), (65534, np.uint16),
    (65535, np.uint32)])
def test_text_holds_symbols_once_in_the_narrowest_dtype(sigma, dtype):
    if sigma == 256:  # every byte value, through the bytes path
        s1, s2 = bytes(range(256)), bytes(range(255, -1, -3))
    else:
        s1, s2 = list(range(sigma)), [sigma - 1, 0, 1]
    t = Text.from_symbols(s1, s2)
    assert t.sigma == sigma
    assert t.concat.dtype == dtype
    assert np.shares_memory(t.s1, t.concat) and np.shares_memory(t.s2, t.concat)
    assert t.concat[t.n1] == sigma and t.concat[-1] == sigma + 1
    assert t.s1.tolist() == list(s1) and t.s2.tolist() == list(s2)


def test_text_empty_sides():
    t = Text.from_symbols([], [])
    assert t.n1 == t.n2 == 0 and t.sigma == 0
    assert len(t.concat) == 2
    t = Text.from_symbols([5, 9], [])
    assert t.sigma == 2
    assert t.s1.tolist() == [0, 1]


def test_oracle_known_pair():
    # brute force over all window pairs fixes the expected value
    t = Text.from_strings("abba", "aaba")
    assert brute_klcf(t, 1) == (4, 1, 1)
    span = klcf_oracle(t, 1)
    assert (span.length, span.i1, span.i2) == (4, 1, 1)
    assert span.mismatches == (1,)


def test_oracle_identical_strings():
    t = Text.from_strings("abcde", "abcde")
    assert klcf_oracle(t, 0).length == 5


def test_oracle_budget_covers_short_strings():
    t = Text.from_strings("ab", "cd")
    assert klcf_oracle(t, 2).length == 2


def test_oracle_empty_input():
    t = Text.from_symbols([], [1, 2, 3])
    span = klcf_oracle(t, 3)
    assert span == MatchSpan(0, 1, 1, ())


def test_oracle_vs_brute_random(rng):
    for _ in range(300):
        t = random_text(rng, rng.randrange(0, 13), rng.randrange(0, 13),
                        rng.choice([1, 2, 3, 5]))
        k = rng.randrange(0, 4)
        want = brute_klcf(t, k)
        span = klcf_oracle(t, k)
        assert (span.length, span.i1, span.i2) == want
        assert verify_match(t, span, k)


def test_oracle_monotone_in_k_and_symmetric(rng):
    for _ in range(60):
        t = random_text(rng, rng.randrange(0, 40), rng.randrange(0, 40),
                        rng.choice([2, 4, 20]))
        lengths = [klcf_oracle(t, k).length for k in range(5)]
        assert lengths == sorted(lengths)
        swapped = Text.from_symbols(t.s2.tolist(), t.s1.tolist())
        for k in (0, 2):
            assert klcf_oracle(t, k).length == klcf_oracle(swapped, k).length


def test_verify_match_cases():
    t = Text.from_strings("abba", "aaba")
    assert verify_match(t, MatchSpan(4, 1, 1, (1,)), 1)
    assert not verify_match(t, MatchSpan(4, 1, 1, (1,)), 0)  # over budget
    assert not verify_match(t, MatchSpan(4, 1, 1, ()), 1)    # wrong list
    assert verify_match(t, MatchSpan(0, 1, 1, ()), 0)        # empty span legal
    with pytest.raises(ValueError):
        verify_match(t, MatchSpan(4, 2, 1, ()), 1)            # runs past end
    with pytest.raises(ValueError):
        verify_match(t, MatchSpan(1, 0, 1, ()), 1)            # 0 is not 1-based


def test_bounds_examples():
    assert klcf_bounds(2, 1, 4, 4) == (2, 4)
    assert klcf_bounds(0, 3, 10, 10) == (3, 3)   # no exact match: optimum = k
    assert klcf_bounds(5, 0, 9, 9) == (5, 5)     # k = 0 collapses to ell0
    assert klcf_bounds(0, 5, 2, 9) == (2, 2)     # clamped by the short side


def test_bounds_hold_on_randoms(rng):
    for _ in range(150):
        t = random_text(rng, rng.randrange(0, 33), rng.randrange(0, 33),
                        rng.choice([1, 2, 4, 20]))
        ell0 = klcf_oracle(t, 0).length
        for k in (0, 1, 3, 6):
            lo, hi = klcf_bounds(ell0, k, t.n1, t.n2)
            ellk = klcf_oracle(t, k).length
            assert lo <= ellk <= hi


def test_trivial_span_no_common_symbol():
    t = Text.from_strings("abc", "xyz")
    assert klcf_oracle(t, 0).length == 0
    span = trivial_span(t, 2)
    assert span.length == 2 and verify_match(t, span, 2)
    assert klcf_oracle(t, 2).length == 2


def test_oracle_exhaustive_tiny_binary():
    # every binary pair up to 4x4 against the independent brute force
    from itertools import product
    for n1 in range(5):
        for n2 in range(5):
            for s1 in product((0, 1), repeat=n1):
                for s2 in product((0, 1), repeat=n2):
                    t = Text.from_symbols(list(s1), list(s2))
                    for k in (0, 1, 3):
                        want = brute_klcf(t, k)
                        span = klcf_oracle(t, k)
                        assert (span.length, span.i1, span.i2) == want, (s1, s2, k)


def test_mismatch_offsets_recompute():
    t = Text.from_strings("abba", "aaba")
    assert mismatch_offsets(t, 1, 1, 4) == (1,)
    assert mismatch_offsets(t, 3, 3, 2) == ()
    assert mismatch_offsets(t, 1, 1, 0) == ()


def test_package_exports_resolve_once():
    """Every name in ``klcf.__all__`` is on the package, and none repeats,
    so an export a deletion left behind fails here."""
    assert [name for name in klcf.__all__ if not hasattr(klcf, name)] == []
    assert len(set(klcf.__all__)) == len(klcf.__all__)
