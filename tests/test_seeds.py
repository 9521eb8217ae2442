import numpy as np
import pytest

from klcf import seeds, strided
from klcf.core import Stats, Text, generate_instance, klcf_bounds, klcf_oracle
from klcf.diagonal import klcf_diagonal_scan
from klcf.lce import build_lce, cross_runs, lcf0
from klcf.seeds import (klcf_seeds, purchase, run_length, seed_floor, seed_price,
                        seed_search)
from klcf.strided import klcf_strided, pass_cells

from conftest import random_text


def _common_prefix(text, i1, i2):
    """Common prefix of s1 from i1 and s2 from i2 (0-based), directly."""
    t = 0
    while (i1 + t < text.n1 and i2 + t < text.n2
           and text.s1[i1 + t] == text.s2[i2 + t]):
        t += 1
    return t


def _left_maximal_pairs(text, m):
    """Every (i1, i2), 0-based, whose suffixes share m symbols and that is
    left-maximal: a sequence start, or preceded by different symbols."""
    return {(i1, i2) for i1 in range(text.n1) for i2 in range(text.n2)
            if _common_prefix(text, i1, i2) >= m
            and (i1 == 0 or i2 == 0 or text.s1[i1 - 1] != text.s2[i2 - 1])}


def test_cross_runs_are_the_shared_prefix_classes(rng):
    for _ in range(60):
        t = random_text(rng, rng.randrange(1, 30), rng.randrange(1, 30),
                        rng.choice([1, 2, 4]))
        lce = build_lce(t)
        sa = lce.fwd.sa.tolist()
        for m in (1, 2, 3, 5):
            lo, hi = cross_runs(lce, m)
            got = {frozenset(sa[a:b]) for a, b in zip(lo.tolist(), hi.tolist())}
            # the classes of suffixes sharing m symbols, held by both sides
            classes = {}
            for p in range(len(sa)):
                prefix = tuple(t.concat[p:p + m].tolist())
                if len(prefix) == m and max(prefix) < t.sigma:
                    classes.setdefault(prefix, set()).add(p)
            want = {frozenset(c) for c in classes.values()
                    if min(c) < t.n1 < max(c)}
            assert got == want, (t.s1, t.s2, m)


def test_seed_price_counts_left_maximal_pairs(rng, monkeypatch):
    monkeypatch.setattr(seeds, "SEED_BUDGET", 5)
    for _ in range(150):
        t = random_text(rng, rng.randrange(0, 25), rng.randrange(0, 25),
                        rng.choice([1, 2, 3, 4, 20]))
        lce = build_lce(t)
        for m in (1, 2, 3, 6):
            pairs = _left_maximal_pairs(t, m)
            assert seed_price(t, lce, m) == len(pairs), (t.s1, t.s2, m)
            got = [(int(a), int(b)) for p1, p2 in seeds._pairs(t, lce, m)
                   for a, b in zip(p1, p2)]
            assert len(got) == len(set(got)) and set(got) == pairs


def test_seed_price_stops_past_its_limit():
    t = Text.from_symbols([0, 1] * 30, [1, 0] * 30)
    lce = build_lce(t)
    full = seed_price(t, lce, 1)
    assert full > 10
    assert 10 < seed_price(t, lce, 1, limit=10) <= full


def test_seed_price_stops_near_its_limit(rng, monkeypatch):
    """A limited count's first batch ends where the runs' pairs could first
    pass the limit, and its budget doubles from there: on 6,144 random DNA
    suffixes at m = 3 (one batch of 110,425 pairs unlimited) a limit of
    10,000 stops it under 30,000, and on any text it passes its limit
    exactly when the full count does."""
    t = generate_instance("random", 3072, 4, 4, seed=1)
    lce = build_lce(t)
    assert seed_price(t, lce, 3) == 110_425
    assert 10_000 < seed_price(t, lce, 3, limit=10_000) < 30_000
    monkeypatch.setattr(seeds, "SEED_BUDGET", 16)
    for _ in range(100):
        t = random_text(rng, rng.randrange(0, 60), rng.randrange(0, 60),
                        rng.choice([1, 2, 4]))
        lce = build_lce(t)
        for m in (1, 2, 3):
            full = seed_price(t, lce, m)
            for limit in (0, 3, 20, 100):
                got = seed_price(t, lce, m, limit)
                assert got == full if full <= limit else limit < got <= full
            # a batch holds at most the budget's suffixes, or one run
            for key, _, _ in seeds._groups(t, lce, m, 20):
                runs = key // (t.sigma + 2)
                assert len(key) <= 16 or runs[0] == runs[-1]


def test_klcf_seeds_equals_oracle(rng, monkeypatch):
    # most of these small pairs price seeds above the scan and buy it, so
    # each is solved again with seeds priced below it
    costs = (seeds.SEED_CELL_COST, 1e-9)
    for _ in range(400):
        t = random_text(rng, rng.randrange(0, 50), rng.randrange(0, 50),
                        rng.choice([1, 2, 3, 4, 20, 128]))
        k = rng.randrange(0, 7)
        lce = build_lce(t)
        for cost in costs:
            monkeypatch.setattr(seeds, "SEED_CELL_COST", cost)
            assert klcf_seeds(t, lce, k) == klcf_oracle(t, k), (t.s1, t.s2, k)
        assert lce.fwd.table is None and lce.bwd is None


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_seed_chunk_boundaries(rng, monkeypatch, budget):
    # runs, and the pairs of one s1 suffix, straddle chunks; a budget of 1
    # also puts every run in a batch of its own.  Seeds priced below the
    # scan are bought on every text
    monkeypatch.setattr(seeds, "SEED_BUDGET", budget)
    monkeypatch.setattr(seeds, "SEED_CELL_COST", 1e-9)
    for _ in range(80):
        t = random_text(rng, rng.randrange(1, 60), rng.randrange(1, 60),
                        rng.choice([2, 4]))
        k = rng.randrange(0, 5)
        lce = build_lce(t)
        stats = Stats()
        assert klcf_seeds(t, lce, k, stats=stats) == klcf_oracle(t, k)
        ell0, w1, w2 = lcf0(lce)
        if ell0 and k:
            m = run_length(seed_floor(t, k, ell0, w1, w2), k)
            assert stats.seed_pairs == seed_price(t, lce, m)
            # a batch holds at most the budget's suffixes, or one run
            for key, _, _ in seeds._groups(t, lce, m):
                runs = key // (t.sigma + 2)
                assert len(key) <= budget or runs[0] == runs[-1]


def test_strided_seed_arm_equals_oracle(rng, monkeypatch):
    # seeds priced below any pass and the scan: strided buys them at once
    monkeypatch.setattr(seeds, "SEED_CELL_COST", 1e-9)
    for s1, s2, k in [("ab", "ba", 2), ("abab", "bbbb", 3), ("baaba", "abbaab", 1)]:
        t = Text.from_strings(s1, s2)
        assert klcf_strided(t, build_lce(t), k) == klcf_oracle(t, k)
    for _ in range(300):
        t = random_text(rng, rng.randrange(0, 50), rng.randrange(0, 50),
                        rng.choice([1, 2, 4, 20]))
        k = rng.randrange(0, 6)
        stats = Stats()
        assert klcf_strided(t, build_lce(t), k, stats=stats) == klcf_oracle(t, k)
        assert stats.passes == 0 and stats.scan_cells == 0
        if k and lcf0(build_lce(t))[0]:
            assert stats.seed_pairs > 0


def test_seeds_buy_the_scan_when_it_is_cheaper():
    """On random DNA, n = 4096, k = 12, B = 23 makes seeds of one symbol:
    3,148,183 pairs, each a 2U - 1 = 309-cell strip, so seeds price
    themselves above the n1*n2 cells of the scan and buy it."""
    t = generate_instance("random", 4096, 4, 12, seed=3)
    stats = Stats()
    span = klcf_seeds(t, build_lce(t), 12, stats=stats)
    assert stats.scan_cells == t.n1 * t.n2 and stats.seed_pairs == 0
    assert span == klcf_diagonal_scan(t, 12)


def test_floor_is_a_window_known_to_exist():
    # l0 = l1 = 4 < 5 = min(l0 + k, n1, n2): a floor of 5 would find nothing
    t = Text.from_strings("baaba", "abbaab")
    lce = build_lce(t)
    ell0, w1, w2 = lcf0(lce)
    assert (ell0, klcf_oracle(t, 1).length) == (4, 4)
    assert seed_floor(t, 1, ell0, w1, w2) == 4
    assert klcf_seeds(t, lce, 1) == klcf_oracle(t, 1)


@pytest.mark.parametrize("s1, s2, k", [
    ("ab", "ba", 2),        # l0 = 1 <= k: the optimum holds no exact run
    ("abab", "bbbb", 3),
    ("abc", "cab", 2),
    ("abc", "xyz", 1),      # l0 = 0
    ("abc", "xyz", 5),
    ("a", "b", 0),
])
def test_small_exact_optima(s1, s2, k):
    t = Text.from_strings(s1, s2)
    assert klcf_seeds(t, build_lce(t), k) == klcf_oracle(t, k)


def test_seed_floor_raised_by_the_caller(rng):
    # strided raises seed_floor to the longest window its passes found
    for _ in range(60):
        t = random_text(rng, rng.randrange(1, 40), rng.randrange(1, 40), 2)
        k = rng.randrange(1, 4)
        want = klcf_oracle(t, k)
        lce = build_lce(t)
        ell0, w1, w2 = lcf0(lce)
        least = seed_floor(t, k, ell0, w1, w2)
        for floor in (want.length - 1, want.length):
            assert seed_search(t, lce, k, ell0, max(floor, least)) == want


def _read_in_reference(ref_len, at_ref, seed):
    """A 150-symbol DNA read with 4 substitutions, copied from a random
    reference of ``ref_len`` symbols at 0-based ``at_ref``."""
    r = np.random.default_rng(seed)
    ref = r.integers(0, 4, ref_len)
    read = ref[at_ref:at_ref + 150].copy()
    at = r.choice(150, 4, replace=False)
    read[at] = (read[at] + 1 + r.integers(0, 3, 4)) % 4
    return Text(ref, read, 4)


def test_read_in_a_reference_solves_by_seeds():
    """A 150-symbol read with 4 substitutions, copied from a 20k-symbol DNA
    reference: strided buys seeds before any pass, never scans, and makes
    no LCE query."""
    t = _read_in_reference(20_000, 12_345, 11)
    lce = build_lce(t)
    stats = Stats()
    span = klcf_strided(t, lce, 4, stats=stats)
    assert stats.seed_pairs > 0 and stats.passes == 0 and stats.scan_cells == 0
    assert lce.fwd.table is None and lce.bwd is None
    assert (span.length, span.i1, span.i2) == (150, 12_346, 1)
    assert span == klcf_diagonal_scan(t, 4)


def _count_cross_runs(monkeypatch):
    """A list that grows by one entry per call of ``seeds.cross_runs``."""
    calls = []

    def spy(lce, t):
        calls.append(t)
        return cross_runs(lce, t)

    monkeypatch.setattr(seeds, "cross_runs", spy)
    return calls


@pytest.mark.parametrize("case", ["read", "sigma20", "dna"])
def test_purchase_walks_the_runs_once(monkeypatch, case):
    """One ``cross_runs`` walk per purchase, priced and bought, whether it
    buys seeds (a read in a 2^16 reference; sigma 20, n 1024, k 1) or the
    scan (random DNA, n 3072, k 4), and again on the next solve of the same
    index: the index keeps no runs between solves."""
    t, k = {"read": (_read_in_reference(1 << 16, 40_000, 5), 4),
            "sigma20": (generate_instance("random", 1024, 20, 1, seed=3), 1),
            "dna": (generate_instance("random", 3072, 4, 4, seed=1), 4)}[case]
    lce = build_lce(t)
    calls = _count_cross_runs(monkeypatch)
    for solve in (klcf_seeds, klcf_strided, klcf_strided):
        calls.clear()
        stats = Stats()
        assert solve(t, lce, k, stats=stats) == klcf_diagonal_scan(t, k)
        bought = (stats.seed_pairs > 0, stats.scan_cells > 0)
        assert bought == ((False, True) if case == "dna" else (True, False))
        assert len(calls) == 1
    # buy(floor) reads the runs priced, at whatever floor it is handed
    calls.clear()
    best, _, buy = purchase(t, lce, k)
    buy(best.length, Stats())
    buy(best.length + 1, Stats())
    assert len(calls) == 1


def test_rented_passes_then_seeds_expand_the_priced_runs(monkeypatch):
    """On a 1 % similar pair (n 600, k 2) an extension priced so that the
    first pass is rented and the second is not makes strided buy seeds
    after a pass has raised the floor past B (m 40 to 94 here).  The
    search still expands the pairs priced at B's m, a superset of those at
    the higher floor's, and gives the oracle's span."""
    t, k = generate_instance("similar", 600, 4, 2, seed=0), 2
    lce = build_lce(t)
    best, price, _ = purchase(t, lce, k)
    h = klcf_bounds(best.length, k, t.n1, t.n2)[1]
    first, second = ((k + 1) * pass_cells(t.n1, t.n2, s) for s in (h, h // 2))
    monkeypatch.setattr(strided, "SCAN_CELLS_PER_EXTENSION", price / (first + second / 2))
    stats = Stats()
    span = klcf_strided(t, lce, k, stats=stats)
    assert span == klcf_oracle(t, k)
    assert stats.pass_strides == [h] and stats.scan_cells == 0
    m = run_length(seed_floor(t, k, *lcf0(lce)), k)
    assert run_length(span.length, k) > m
    assert stats.seed_pairs == seed_price(t, lce, m) > seed_price(t, lce, run_length(span.length, k))
