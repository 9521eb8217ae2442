"""Systematic cross-algorithm agreement on degenerate and structured inputs."""

from itertools import product

import numpy as np

from klcf.core import ResourceLimitError, Text, klcf_oracle, verify_match
from klcf.lce import build_lce
from klcf.neighborhood import klcf_neighborhood
from klcf.seeds import klcf_seeds
from klcf.strided import klcf_strided
from klcf.tabulation import klcf_tabulation


def _all_agree(t: Text, ks, budget=1 << 16):
    lce = build_lce(t)
    for k in ks:
        ref = klcf_oracle(t, k)
        assert verify_match(t, ref, k)
        spans = [klcf_strided(t, lce, k), klcf_seeds(t, lce, k),
                 klcf_tabulation(t, k)]
        try:
            spans.append(klcf_neighborhood(t, lce, k, mem_budget_words=budget))
        except ResourceLimitError:
            pass
        for span in spans:
            assert span == ref, (k, span, ref)
            assert verify_match(t, span, k)


def test_periodic_and_run_shapes():
    ab = [0, 1] * 64
    _all_agree(Text.from_symbols(ab, ab[1:] + [0]), (0, 2, 4, 8))
    _all_agree(Text.from_symbols([0] * 100, [0] * 37 + [1] + [0] * 30), (0, 1, 3))
    _all_agree(Text.from_symbols([0, 1, 2] * 40, [0, 1, 2, 0, 2, 1] * 20), (0, 2, 5))


def test_fibonacci_word():
    a, b = [0], [0, 1]
    for _ in range(10):
        a, b = b, b + a
    _all_agree(Text.from_symbols(b[:120], b[10:130]), (0, 1, 4))


def test_extreme_shapes():
    _all_agree(Text.from_symbols([0], [0] * 500), (0, 1))
    _all_agree(Text.from_symbols([3], [4]), (0, 1, 2))
    _all_agree(Text.from_symbols(list(range(200)), list(range(199, -1, -1))), (0, 3))
    # optimum pinned to opposite borders
    _all_agree(Text.from_symbols([0] * 255 + [1], [1] + [0] * 255), (0, 1))
    # budget beyond both lengths
    _all_agree(Text.from_symbols([1, 2, 3], [4, 5, 6]), (5, 50))
    # 2^15 symbols or more: the uint16 symbols of the scan and of seeds
    s1 = np.random.default_rng(5).permutation(33_000).tolist()
    s2 = s1[20_000:20_060] + s1[7_000:7_010]
    s2[13], s2[41] = s1[100], s1[200]
    _all_agree(Text.from_symbols(s1, s2), (2,))
    # 255 symbols: the second separator, 256, is the first to need uint16
    s1 = np.tile(np.random.default_rng(6).permutation(255), 3).tolist()
    s2 = s1[100:400]
    s2[50], s2[210] = s1[7], s1[9]
    _all_agree(Text.from_symbols(s1, s2), (0, 2))


def test_exhaustive_binary_4x4_all_algorithms():
    for n1 in range(5):
        for n2 in range(5):
            for s1 in product((0, 1), repeat=n1):
                for s2 in product((0, 1), repeat=n2):
                    _all_agree(Text.from_symbols(list(s1), list(s2)), (0, 1, 3),
                               budget=1 << 20)
