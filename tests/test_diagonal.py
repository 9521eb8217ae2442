import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from klcf import diagonal, seeds, strided
from klcf.core import (MatchSpan, Stats, Text, generate_instance, klcf_oracle,
                       make_span, verify_match)
from klcf.diagonal import (argmin_pair, best_window, geometry, klcf_diagonal_scan,
                           packed_batches)
from klcf.lce import build_lce
from klcf.strided import _pass_cells, klcf_strided, pass_cells
from klcf.tabulation import klcf_tabulation

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
        st1, st2, length = geometry(n1, n2, np.arange(n1 + n2 - 1))
        assert len(st1) == n1 + n2 - 1
        for g in range(n1 + n2 - 1):
            a = g - (n1 - 1)  # i2 - i1 along the diagonal
            cells = [(i1, i1 + a) for i1 in range(1, n1 + 1) if 1 <= i1 + a <= n2]
            assert (st1[g], st2[g], length[g]) == (*cells[0], len(cells))


def test_geometry_of_any_diagonals(rng):
    for _ in range(50):
        n1, n2 = rng.randrange(1, 30), rng.randrange(1, 30)
        full = geometry(n1, n2, np.arange(n1 + n2 - 1))
        g = np.array([rng.randrange(n1 + n2 - 1) for _ in range(rng.randrange(1, 9))])
        for got, want in zip(geometry(n1, n2, g), full):
            assert got.tolist() == want[g].tolist()


def test_pass_cells_sum_length_over_stride(rng):
    for _ in range(300):
        n1, n2, h = rng.randrange(1, 40), rng.randrange(1, 40), rng.randrange(1, 50)
        counts = geometry(n1, n2, np.arange(n1 + n2 - 1))[2] // h
        assert pass_cells(n1, n2, h) == int(counts.sum()), (n1, n2, h)


def test_batches_respect_the_budget(rng, monkeypatch):
    for budget in [1, 3, 7] * 200:
        n1, n2, h = rng.randrange(1, 40), rng.randrange(1, 40), rng.randrange(1, 45)
        monkeypatch.setattr(strided, "PASS_CELLS", budget)
        chunks = list(_pass_cells(n1, n2, h))
        assert all(len(i1s) == len(i2s) <= budget for i1s, i2s in chunks)
        got = [cell for i1s, i2s in chunks
               for cell in zip(i1s.tolist(), i2s.tolist())]
        want = {(i1, i2) for i1 in range(1, n1 + 1) for i2 in range(1, n2 + 1)
                if min(i1, i2) % h == 0}
        assert len(got) == len(set(got)) == pass_cells(n1, n2, h)
        assert set(got) == want, (n1, n2, h)


def test_argmin_pair_is_lexicographic_past_any_key_width(rng):
    big = 1 << 40
    for _ in range(300):
        size = rng.randrange(1, 12)
        a = np.array([rng.choice([0, 3, big, big + 1]) for _ in range(size)])
        b = np.array([rng.choice([0, 5, big, 2 * big]) for _ in range(size)])
        g = argmin_pair(a, b)
        assert (a[g], b[g]) == min(zip(a.tolist(), b.tolist()))


def test_best_window_scalar_length_picks_the_array_span(rng):
    """One length for all windows, as ``best_in_rows`` passes it, selects
    the same span as that length repeated in an array, ties included."""
    for _ in range(300):
        size = rng.randrange(1, 12)
        i1 = np.array([rng.choice([1, 2, 7, 1 << 40]) for _ in range(size)])
        i2 = np.array([rng.choice([1, 3, 9, 1 << 41]) for _ in range(size)])
        ln = rng.randrange(0, 6)
        best = MatchSpan(rng.randrange(0, 6), rng.choice([1, 2, 8]), rng.choice([1, 4]))
        got = best_window(best, ln, i1, i2)
        assert got == best_window(best, np.full(size, ln), i1, i2)
        assert got == best_window(best, np.int64(ln), i1, i2)
        if ln > best.length:
            assert (got.i1, got.i2) == min(zip(i1.tolist(), i2.tolist()))


def _seed_floor(t: Text, k: int) -> int:
    """min(l0 + k, length of the seed's diagonal): the floor strided passes."""
    seed = klcf_oracle(t, 0)
    if seed.length == 0:
        return 0
    i1, i2 = seed.i1, seed.i2
    return min(seed.length + k, min(i1, i2) + min(t.n1 - i1, t.n2 - i2))


@pytest.mark.parametrize("budget", [1, 7, 64, 1 << 20])
def test_scan_equals_oracle_with_witness(rng, monkeypatch, budget):
    # a budget below one diagonal's width puts every diagonal in a batch of
    # its own; the others cut batches at varying rows.  The longer pairs
    # reach the block filter's granularities, with and without a floor.
    monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
    for i in range(150):
        n = 45 if i % 3 else 160
        t = random_text(rng, rng.randrange(0, n), rng.randrange(0, n),
                        rng.choice([1, 2, 4, 20, 128]))
        k = rng.randrange(0, 7)
        want = klcf_oracle(t, k)
        for floor in (0, _seed_floor(t, k)):
            assert klcf_diagonal_scan(t, k, floor) == want, (t.s1, t.s2, k, floor)


@pytest.mark.parametrize("budget", [1, 50, 1 << 20])
def test_scan_structured_shapes_with_witness(monkeypatch, budget):
    monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
    for t in _structured_texts():
        for k in (0, 1, 3, 8, 200):
            assert klcf_diagonal_scan(t, k) == klcf_oracle(t, k), (t, k)


def test_scan_against_brute_force(rng, monkeypatch):
    for _ in range(300):
        t = random_text(rng, rng.randrange(1, 12), rng.randrange(1, 12),
                        rng.choice([2, 3]))
        k = rng.randrange(0, 4)
        monkeypatch.setattr(diagonal, "SCAN_CELLS", rng.choice([1, 9, 1 << 20]))
        span = klcf_diagonal_scan(t, k)
        assert (span.length, span.i1, span.i2) == brute_klcf(t, k)


def test_scan_empty_and_large_alphabet():
    assert klcf_diagonal_scan(Text.from_symbols([], [1, 2]), 3) == MatchSpan(0, 1, 1, ())
    # symbols past uint16: the scan compares them as uint32
    rng = random.Random(3)
    sigma = 1 << 16
    s1 = np.array([rng.randrange(sigma) for _ in range(60)] + [7, sigma - 1, 9])
    s2 = np.array([rng.randrange(sigma) for _ in range(40)] + [7, sigma - 1, 9])
    t = Text(s1, s2, sigma)
    assert klcf_diagonal_scan(t, 0).length == 3
    assert klcf_diagonal_scan(t, 1) == klcf_oracle(t, 1)


def _direct_rows(t: Text, st1, st2, length, nbytes):
    """Packed rows of a direct comparison: cell i of row r is s1[st1[r] - 1
    + i] != s2[st2[r] - 1 + i] within its diagonal, and set past its end."""
    i = np.arange(8 * nbytes)
    inside = i < length[:, None]
    a = np.where(inside, st1[:, None] - 1 + i, 0)
    b = np.where(inside, st2[:, None] - 1 + i, 0)
    return np.packbits((t.s1[a] != t.s2[b]) | ~inside, axis=1, bitorder="little")


def _slice_offset(phased: np.ndarray) -> int:
    """The byte offset of a batch's view of its slice's phase planes."""
    return phased.ctypes.data - phased.base.ctypes.data


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 7, 14, 15, 20, 255, 300])
def test_batches_equal_a_direct_comparison(rng, monkeypatch, sigma):
    """Every batch of ``packed_batches``, the first one's row chunks too, is
    byte for byte a direct comparison packed with ``np.packbits``, each
    byte's first cell in bit 0, read a row at a time from its (bytes, rows)
    layout, and every batch comes from the symbols' bit planes, whatever
    the alphabet: sigma = 14 takes 4 planes, 15 and 20 take 5, and 255 and
    300 take 9 planes of uint16 symbols.  Shapes with n1 < n2 and n1 > n2,
    1 x n and n x 1 texts, and diagonals whose lengths are not multiples of
    8.  A budget of 1,024 cells gives 2 to 15 rows a batch on the 100- to
    400-cell rows, so one slice of planes feeds several batches, most at a
    non-zero offset into it."""
    planes, offsets = [], []
    plane_rows = diagonal._plane_rows

    def spy(phased, want, rows):
        planes.append(len(want))
        offsets.append(_slice_offset(phased))
        return plane_rows(phased, want, rows)

    monkeypatch.setattr(diagonal, "_plane_rows", spy)
    shapes = [(rng.randrange(1, 120), rng.randrange(1, 120)) for _ in range(6)]
    shapes += [(1, 37), (37, 1), (1, 1), (13, 150), (150, 13), (70, 70), (9, 200)]
    shapes += [(rng.randrange(100, 400), rng.randrange(100, 400)) for _ in range(2)]
    for n1, n2 in shapes:
        # the whole alphabet sits in the longer side, so the text has sigma
        # symbols
        s = [[rng.randrange(sigma) for _ in range(n)] for n in (n1, n2)]
        longer = s[n2 > n1]
        longer[:min(sigma, len(longer))] = range(min(sigma, len(longer)))
        t = Text.from_symbols(*s)
        for budget in (1, 64, 1024, 1 << 20):
            monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
            planes.clear()
            offsets.clear()
            seen, batches = [], 0
            for packed, st1, st2, length in packed_batches(t, rng.randrange(0, 5)):
                assert np.ascontiguousarray(packed.T).tobytes() == _direct_rows(
                    t, st1, st2, length, packed.shape[0]).tobytes(), (n1, n2, budget)
                seen += (st2 - st1 + n1 - 1).tolist()
                batches += 1
            assert sorted(seen) == list(range(n1 + n2 - 1))
            assert set(planes) == {(t.sigma + 1).bit_length()}
            assert len(planes) <= batches
            if budget == 1024 and min(n1, n2) >= 100:
                assert len(planes) > 4 and sum(map(bool, offsets)) > len(planes) // 2
    assert t.sigma == sigma


def test_every_plane_slice_holds_its_symbols(rng, monkeypatch):
    """Both sides are padded by min(n1, n2) + 16 symbols.  Every slice whose
    planes ``packed_batches`` packs ends at least 3 symbols short of its
    padded sequence's end, and every batch reads only bytes inside its
    slice's planes: rows + 8 * bytes - 8 of them from its offset on.  1 x n
    and n x 1 texts reach the bound, n_slide + min(n1, n2) + 13, with w = 8
    against one symbol."""
    ends, reads = [], []
    phase_planes, plane_rows = diagonal._phase_planes, diagonal._plane_rows

    def phase_spy(seg, count):
        start = (seg.ctypes.data - seg.base.ctypes.data) // seg.itemsize
        ends.append((start + len(seg), len(seg.base) - 3))
        return phase_planes(seg, count)

    def rows_spy(phased, want, rows):
        reads.append((rows + 8 * want.shape[1] - 8, phased.shape[1]))
        return plane_rows(phased, want, rows)

    monkeypatch.setattr(diagonal, "_phase_planes", phase_spy)
    monkeypatch.setattr(diagonal, "_plane_rows", rows_spy)
    for n1, n2 in [(1, 37), (37, 1), (13, 150), (150, 13), (1, 1), (300, 260)]:
        t = Text.from_symbols([rng.randrange(4) for _ in range(n1)],
                              [rng.randrange(4) for _ in range(n2)])
        for budget in (1, 64, 1024, 1 << 20):
            monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
            ends.clear()
            reads.clear()
            assert klcf_diagonal_scan(t, 1) == klcf_oracle(t, 1)
            assert reads and all(got <= have for got, have in reads), (n1, n2, budget)
            assert all(end <= bound for end, bound in ends), (n1, n2, budget)
            if min(n1, n2) == 1:
                assert any(end == bound for end, bound in ends), (n1, n2, budget)


def _strip_seeds(cells, size):
    """The 0-based seed cells as (p1, p2) chunks of ``size`` cells."""
    p1 = np.array([c[0] for c in cells], dtype=np.int64)
    p2 = np.array([c[1] for c in cells], dtype=np.int64)
    return [(p1[lo:lo + size], p2[lo:lo + size]) for lo in range(0, len(p1), size)]


@pytest.mark.parametrize("scan_cells", [1 << 20, 64, 1])
def test_strips_around_every_cell_give_the_scan(rng, monkeypatch, scan_cells):
    # strips around every cell cover every window of at most U cells, so
    # they give the scan's span; U runs past the shortest diagonals and up
    # to past both lengths, and a small SCAN_CELLS cuts a chunk's strips
    # into several batches
    monkeypatch.setattr(diagonal, "SCAN_CELLS", scan_cells)
    for _ in range(60):
        t = random_text(rng, rng.randrange(1, 25), rng.randrange(1, 25),
                        rng.choice([1, 2, 4, 20]))
        k = rng.randrange(0, 5)
        want = klcf_diagonal_scan(t, k)
        u = rng.randrange(max(1, want.length), min(t.n1, t.n2) + 4)
        cells = list(product(range(t.n1), range(t.n2)))
        rng.shuffle(cells)
        for floor in (0, want.length):
            stats = Stats()
            got = diagonal.best_in_strips(MatchSpan(0, 1, 1), t,
                                          _strip_seeds(cells, rng.randrange(1, 50)),
                                          u, k, floor, stats)
            assert (got.length, got.i1, got.i2) == (want.length, want.i1, want.i2), \
                (t.s1, t.s2, k, u, floor)
            assert stats.seed_pairs == len(cells)
            assert stats.seed_cells >= len(cells) * (2 * u - 1)


@pytest.mark.parametrize("scan_cells", [1 << 20, 64, 1])
def test_strips_through_one_optimal_cell_give_the_optimum(rng, monkeypatch, scan_cells):
    # any cell of an optimal window, its first or last among them, seeds a
    # strip that holds the whole window; the other seeds are random
    monkeypatch.setattr(diagonal, "SCAN_CELLS", scan_cells)
    for _ in range(300):
        t = random_text(rng, rng.randrange(1, 45), rng.randrange(1, 45),
                        rng.choice([2, 4]))
        k = rng.randrange(1, 5)
        want = klcf_oracle(t, k)
        at = rng.choice([0, want.length - 1, rng.randrange(want.length)])
        cells = [(want.i1 - 1 + at, want.i2 - 1 + at)]
        cells += [(rng.randrange(t.n1), rng.randrange(t.n2))
                  for _ in range(rng.randrange(0, 40))]
        rng.shuffle(cells)
        u = rng.randrange(want.length, min(t.n1, t.n2) + 4)
        got = diagonal.best_in_strips(MatchSpan(0, 1, 1), t,
                                      _strip_seeds(cells, rng.randrange(1, 9)),
                                      u, k, rng.choice([0, want.length]))
        assert got.length == want.length, (t.s1, t.s2, k, u, cells)
        assert verify_match(t, make_span(t, got.length, got.i1, got.i2), k)


def _similar(rng, n, rate):
    s1 = [rng.randrange(4) for _ in range(n)]
    s2 = [(c + 1) % 4 if rng.random() < rate else c for c in s1]
    return Text.from_symbols(s1, s2)


def test_strided_witness_on_both_paths(rng, monkeypatch):
    """Witnesses equal the oracle's whether the passes settle the optimum,
    the exhaustive scan finishes the search or seeds do; Stats tells
    which ran.  Each case runs at the default seed price, then with seeds
    priced out, which leaves the passes and the scan to settle it."""
    seen = {"passes": 0, "scan": 0, "passes then scan": 0, "seeds": 0}
    cases = [random_text(rng, rng.randrange(1, 60), rng.randrange(1, 60),
                         rng.choice([2, 4, 20])) for _ in range(60)]
    cases += [_similar(rng, rng.randrange(100, 400), 0.01) for _ in range(15)]
    cases += [_similar(rng, rng.randrange(150, 400), rate) for rate in (0.05, 0.1)
              for _ in range(10)]
    for t, k, cost in product(cases, (0, 2, 4), (seeds.SEED_CELL_COST, 1 << 40)):
        monkeypatch.setattr(seeds, "SEED_CELL_COST", cost)
        stats = Stats()
        span = klcf_strided(t, build_lce(t), k, stats=stats)
        assert span == klcf_oracle(t, k), (t.s1, t.s2, k, stats)
        assert stats.scan_cells in (0, t.n1 * t.n2)
        assert not (stats.scan_cells and stats.seed_pairs)
        if stats.seed_pairs:
            seen["seeds"] += 1
        elif stats.scan_cells:
            seen["passes then scan" if stats.passes else "scan"] += 1
        elif stats.passes:
            seen["passes"] += 1
    assert all(seen.values()), seen


def _planted(rng, n, length, k, sigma=20, copies=1):
    """Random pair with ``copies`` copies in s2 of one window of s1, each
    with k substitutions at the same offsets."""
    s1 = [rng.randrange(sigma) for _ in range(n)]
    s2 = [rng.randrange(sigma) for _ in range(n)]
    a = rng.randrange(n - length + 1)
    window = s1[a:a + length]
    for t in rng.sample(range(length), min(k, length)):
        window[t] = (window[t] + 1) % sigma
    for _ in range(copies):
        b = rng.randrange(n - length + 1)
        s2[b:b + length] = window
    return Text.from_symbols(s1, s2)


@pytest.mark.parametrize("target", [4, 5, 10, 11, 38, 39])
def test_scan_at_each_block_width_boundary(monkeypatch, target):
    """L = 4/5, 10/11 and 38/39 switch the filter off, to g = 2, to g = 4
    and to g = 8; the optimum sits on the boundary, twice where copies
    tie, and the floor is the optimum, one less, or the seed's."""
    rng = random.Random(target)
    seen = 0
    while seen < 12:
        k = rng.choice([0, 1, 2, 4])
        t = _planted(rng, 90, target, k, copies=rng.choice([1, 2]))
        want = klcf_oracle(t, k)
        if want.length != target:
            continue
        seen += 1
        for floor in (0, target - 1, target, _seed_floor(t, k)):
            for budget in (64, 1 << 20):
                monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
                assert klcf_diagonal_scan(t, k, floor) == want, (k, floor)


def test_window_stops_at_a_diagonal_end_inside_its_last_byte(rng):
    """Cells past a diagonal's end fill its last packed byte as mismatches;
    they end a window without spending its budget (a 12-cell diagonal once
    gave a 14-cell window)."""
    for _ in range(60):
        s2 = [rng.randrange(4) for _ in range(12)]
        s1 = [rng.randrange(4) for _ in range(rng.randrange(12, 30))]
        at = rng.randrange(len(s1) - 11)
        s1[at:at + 12] = s2
        s1 += [rng.randrange(4) for _ in range(36 - len(s1))]
        for t in rng.sample(range(12), 2):
            s1[at + t] = (s1[at + t] + 1) % 4
        text = Text.from_symbols(s1, s2)
        for k in (1, 2, 3):
            want = klcf_oracle(text, k)
            assert want.length <= 12
            for floor in (0, _seed_floor(text, k)):
                assert klcf_diagonal_scan(text, k, floor) == want


def _brute_in_segments(bits, lens, k, segments):
    """Longest windows with <= k set bits inside one of the byte runs,
    clipped to the diagonal: (length, sorted (row, offset) list)."""
    best, found = 0, []
    for row, lo, hi in zip(*segments):
        cells = range(8 * lo, min(8 * hi, lens[row]))
        for a in cells:
            mism = 0
            for b in range(a, cells.stop):
                mism += int(bits[row, b])
                if mism > k:
                    break
                if b + 1 - a > best:
                    best, found = b + 1 - a, []
                if b + 1 - a == best:
                    found.append((row, a))
    return best, sorted(set(found))


def _exact_stage(monkeypatch, packed, lens, k, segments):
    """``_best_in_batch`` on the byte runs ``segments`` as ``_kept_runs``
    clips them: (length, sorted (row, offset) list), or None."""
    monkeypatch.setattr(diagonal, "_kept_segments", lambda *args: segments)
    row, first, _ = runs = diagonal._kept_runs(packed, lens, k, 1)
    got = diagonal._best_in_batch(packed, k, 1, runs)
    if got is None:
        return None
    mx, run, t = got
    return mx, sorted(zip(row[run].tolist(), (8 * first[run] + t).tolist()))


def test_windows_never_cross_a_separator(rng, monkeypatch):
    """Runs are laid end to end with k+1 set bits between them: a window
    that starts in a separator is dropped, one that runs into it clipped."""
    # two one-byte runs with no mismatch, at k = 8: a separator of only k
    # set bits lets the first run's window reach into the second
    packed = np.array([[0, 12, 2, 132, 0, 255]], np.uint8).T
    runs = (np.array([0, 0]), np.array([0, 4]), np.array([8, 8]))
    got = diagonal._best_in_batch(packed, 8, 1, runs)
    assert got[0] == 8 and got[1].tolist() == [0, 1] and got[2].tolist() == [0, 0]
    # runs that end mid-byte at their diagonal's end, of 13 and 5 cells:
    # the set bits past it must not count towards a window's k mismatches;
    # and a run that starts past its diagonal's end is dropped
    packed = np.packbits(np.arange(24) >= np.array([[13], [5]]), axis=1, bitorder="little")
    packed[0, 0] = 255
    packed = np.ascontiguousarray(packed.T)
    segments = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 2]), np.array([1, 2, 1, 3]))
    for k in (0, 1, 2, 4):
        got = _exact_stage(monkeypatch, packed, np.array([13, 5]), k, segments)
        assert got == (5, [(0, 8), (1, 0)]), k
    for _ in range(300):
        rows, nbytes = rng.randrange(1, 4), rng.randrange(1, 6)
        k = rng.choice([0, 1, 2, 3, 5, 7, 8, 9, 11, 16])
        bits = np.array([[rng.random() < rng.choice([0.05, 0.3, 0.7])
                          for _ in range(8 * nbytes)] for _ in range(rows)])
        lens = np.array([rng.randrange(1, 8 * nbytes + 1) for _ in range(rows)])
        bits |= np.arange(8 * nbytes) >= lens[:, None]  # past the end
        runs = []
        for row in range(rows):
            cuts = sorted(rng.sample(range(nbytes + 1), 4 if nbytes > 2 and rng.random() < 0.5 else 2))
            runs += [(row, a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
        segments = tuple(np.array(col, np.int64) for col in zip(*runs)) if runs \
            else (np.empty(0, np.int64),) * 3
        best, found = _brute_in_segments(bits, lens, k, segments)
        packed = np.packbits(bits, axis=1, bitorder="little")
        got = _exact_stage(monkeypatch, np.ascontiguousarray(packed.T), lens, k, segments)
        if best == 0:
            assert got is None
            continue
        assert got == (best, found)


def test_kept_runs_drop_runs_past_their_diagonal(monkeypatch):
    packed = np.zeros((4, 3), np.uint8)  # 4 bytes of 3 rows
    length = np.array([16, 21, 30])
    segments = (np.array([0, 0, 1, 1, 2]), np.array([0, 2, 1, 3, 3]),
                np.array([1, 4, 4, 4, 4]))
    monkeypatch.setattr(diagonal, "_kept_segments", lambda *args: segments)
    row, first, cells = diagonal._kept_runs(packed, length, 1, 40)
    # (0, 2, 4) starts at cell 16, the end of row 0, and (1, 3, 4) at cell
    # 24, past the end of row 1: both hold no cell; (1, 1, 4) and (2, 3, 4)
    # are clipped at their diagonals' ends
    assert row.tolist() == [0, 1, 2]
    assert first.tolist() == [0, 1, 3]
    assert cells.tolist() == [8, 13, 6]
    # a filter that keeps too much gives no runs, and every row is read whole
    monkeypatch.setattr(diagonal, "_kept_segments", lambda *args: None)
    assert diagonal._kept_runs(packed, length, 1, 40) is None
    got = diagonal._whole_rows(length)
    assert [a.tolist() for a in got] == [[0, 1, 2], [0, 0, 0], [16, 21, 30]]


def test_gather_reads_column_chunks_in_place(rng):
    """``_gather`` on the row chunks of a batch, views of its columns as
    ``packed_batches`` yields them, lays out the runs it lays out from
    contiguous copies, and their bytes, whether a byte's rows or a row's
    bytes are adjacent in the batch."""
    for _ in range(40):
        rows, nbytes = rng.randrange(1, 40), rng.randrange(1, 12)
        packed = np.array([[rng.randrange(256) for _ in range(nbytes)]
                           for _ in range(rows)], np.uint8)
        cuts = [min(2 ** j - 1, rows) for j in range(rows.bit_length() + 1)]
        for batch in _layouts(packed):
            for lo, hi in zip(cuts, cuts[1:]):
                chunk = batch[:, lo:hi]
                runs = []
                for row in range(hi - lo):
                    a = rng.randrange(nbytes)
                    runs.append((row, a, rng.randrange(1, 8 * (nbytes - a) + 1)))
                runs = tuple(np.array(col, np.int64) for col in zip(*runs))
                want = np.concatenate([packed[lo + row, a:a + -(-cells // 8)]
                                       for row, a, cells in zip(*runs)])
                for sep in (0, 2):
                    got = diagonal._gather(chunk, runs, sep)
                    copy = diagonal._gather(np.ascontiguousarray(chunk), runs, sep)
                    assert all((x == y).all() for x, y in zip(got, copy))
                data, m, off = got
                assert np.concatenate([data[o:o + n] for o, n in zip(off, m)]).tolist() \
                    == want.tolist()


def _kept_reference(packed, k, floor):
    """Byte mask of the filter, from each start's r-block sum in Python
    integers, or None when more than half the bytes are kept."""
    g = diagonal._block_width(floor)
    r = (floor - g + 1) // g
    rows, nbytes = packed.shape
    bits = np.unpackbits(packed, axis=1, bitorder="little").astype(int)
    counts = bits.reshape(rows, -1, g).sum(axis=2)
    nb = counts.shape[1]
    keep = np.zeros((rows, nbytes), bool)
    for row in range(rows):
        for j in range(nb - r + 1):
            if int(counts[row, j:j + r].sum()) <= k:
                lo, hi = max(j - 1, 0), min(j + r + 1, nb)
                keep[row, lo * g // 8:-(-hi * g // 8)] = True
    return None if 2 * keep.sum() > keep.size else keep


def _mask(segments, shape):
    keep = np.zeros(shape, bool)
    for row, lo, hi in zip(*segments):
        keep[row, lo:hi] = True
    return keep


def _layouts(packed):
    """Packed rows as (bytes, rows) batches in both memory orders: a byte's
    rows adjacent, as every batch is laid out, and a row's bytes adjacent,
    a view that the filter's one path must read as correctly, since a
    layout that follows a batch's shape may produce it."""
    return np.ascontiguousarray(packed.T), packed.T


def test_run_sums_wider_than_a_byte(rng):
    """r*g >= 256 needs sums wider than uint8: at floor 303 (g = 8, r = 37)
    a run of 296 cells with 257 mismatches must not wrap to 1 and pass."""
    for floor, k, density in ((303, 3, 0.87), (303, 1, 0.87), (40, 4, 0.3),
                              (20, 2, 0.3), (7, 1, 0.2), (5, 0, 0.2)):
        for _ in range(8):
            rows, nbytes = rng.randrange(1, 4), rng.randrange(1, 70)
            bits = np.array([[rng.random() < density for _ in range(8 * nbytes)]
                             for _ in range(rows)])
            packed = np.packbits(bits, axis=1, bitorder="little")
            want = _kept_reference(packed, k, floor)
            for batch in _layouts(packed):
                got = diagonal._kept_segments(batch, k, floor)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and (_mask(got, packed.shape) == want).all()
    # a 300-symbol exact match: l0 + k = 303, so the scan's filter runs at r*g = 296
    s1 = [rng.randrange(4) for _ in range(700)]
    s2 = [rng.randrange(4) for _ in range(700)]
    s2[250:550] = s1[100:400]
    t = Text.from_symbols(s1, s2)
    assert _seed_floor(t, 3) >= 303
    assert klcf_diagonal_scan(t, 3, floor=_seed_floor(t, 3)) == klcf_oracle(t, 3)


@pytest.mark.parametrize("floor, k", [(9, 1), (27, 2), (303, 3)])
def test_sums_across_a_row_end_are_dropped(rng, floor, k):
    """The filter sums r blocks down each row's blocks, never across a
    row's end, whatever the memory order of the view it reads: the one
    count path lays the counts out with a block's rows adjacent, so a
    row-major view, which a layout that follows a batch's shape may
    produce, is read as correctly as a batch.  Rows of whole bytes (no pad
    bits) whose heads and tails hold h < r <= 2h mismatch-free blocks, with
    set bits between, would pass an r-block sum only across a row's end,
    and no byte of theirs may be kept; a few rows with no mismatch keep
    theirs.  g = 2, 4 and 8, the last at r*g = 296, in both memory
    orders."""
    g = diagonal._block_width(floor)
    r = (floor - g + 1) // g
    h = r // 2 + 1
    assert h < r <= 2 * h and g > k
    least = -(-(2 * h + 1) * g // 8)  # bytes for both ends and a set block
    for _ in range(5):
        rows, nbytes = rng.randrange(20, 41), rng.randrange(least, least + 6)
        bits = np.ones((rows, 8 * nbytes), bool)
        bits[:, :h * g] = bits[:, -h * g:] = False
        bits[rng.sample(range(rows), 2)] = False
        packed = np.packbits(bits, axis=1, bitorder="little")
        want = _kept_reference(packed, k, floor)
        assert want is not None and want.any()
        for batch in _layouts(packed):
            got = diagonal._kept_segments(batch, k, floor)
            assert got is not None and (_mask(got, packed.shape) == want).all()


def test_coverage_costs_bytes_not_runs():
    """Coverage is merged from the passing starts, never expanded over r
    blocks each: 4 rows of 2^18 cells whose first 40 % match, at r = 4096
    byte blocks, would expand 36k starts into 150M block indexes."""
    packed = np.full((4, 1 << 15), 255, np.uint8)
    packed[:, :13107] = 0
    floor = 8 * 4096 + 7
    for batch in _layouts(packed):
        tracemalloc.start()
        try:
            got = diagonal._kept_segments(batch, 2, floor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [a.tolist() for a in got] == [[0, 1, 2, 3], [0] * 4, [13108] * 4]
        assert peak < 64 * packed.size


@pytest.mark.parametrize("rows", [1 << 16, 70_000])
def test_row_order_of_tall_batches(rows):
    """The passing starts are ordered by row with a key of the narrowest
    unsigned type that holds rows - 1: 16 bits at 65,536 rows, more at
    70,000.  On such batches, a byte's rows adjacent, with a few clean rows
    and clean stretches among set bits (g = 8), the runs keep the bytes
    ``_kept_reference`` keeps, in row and then byte order; a batch whose
    clean rows are most of it falls back on its count of passing starts."""
    r = np.random.default_rng(rows)
    nbytes = 6
    packed = np.full((rows, nbytes), 255, np.uint8)
    packed[r.random(rows) < 0.05] = 0
    dirty = np.flatnonzero(r.random(rows) < 0.1)
    packed[dirty[:, None], r.integers(0, 3, (len(dirty), 1)) + np.arange(4)] = 0
    want = _kept_reference(packed, 1, 39)
    got = diagonal._kept_segments(np.ascontiguousarray(packed.T), 1, 39)
    assert want is not None and got is not None
    assert (_mask(got, packed.shape) == want).all()
    key = got[0] * nbytes + got[1]
    assert (key[1:] > key[:-1]).all()
    packed[r.random(rows) < 0.6] = 0
    assert _kept_reference(packed, 1, 39) is None
    assert diagonal._kept_segments(np.ascontiguousarray(packed.T), 1, 39) is None


def _row_end_text(floor: int, sigma: int) -> Text:
    """s2 of whole bytes whose first and last h blocks (h < r <= 2h) match
    the all-zero head of s1 and whose middle mismatches it, so the first
    rows of the first batch (and the strips of seeds (x, 0) at U = n2 / 2)
    pass an r-block sum at k < g only across a row's end; the rest of s1
    holds the alphabet's other symbols."""
    g = diagonal._block_width(floor)
    r = (floor - g + 1) // g
    h = r // 2 + 1
    n2 = -(-(2 * h + 1) * g // 8) * 8
    s2 = [0] * (h * g) + [1] * (n2 - 2 * h * g) + [0] * (h * g)
    return Text.from_symbols([0] * (n2 + 4) + list(range(sigma)) * 2, s2)


def _strip_batches(monkeypatch, t: Text, cells, u: int):
    """The (packed, st1, st2, length) batches ``best_in_strips`` scans for
    the 0-based seed cells."""
    got = []

    def spy(best, packed, length, st1, st2, k, floor):
        got.append((packed, st1, st2, length))
        return best

    with monkeypatch.context() as m:
        m.setattr(diagonal, "best_in_rows", spy)
        diagonal.best_in_strips(MatchSpan(0, 1, 1), t, _strip_seeds(cells, 5), u, 1, 0)
    return got


@pytest.mark.parametrize("sigma", [2, 4, 7, 14, 15, 20])
def test_filter_keeps_the_reference_bytes_of_real_batches(rng, monkeypatch, sigma):
    """Every batch of ``packed_batches`` and of ``best_in_strips`` has a
    byte's rows adjacent in memory (the bit planes' batches for every
    alphabet, the first batch's row chunks and the strips alike) and keeps
    the bytes ``_kept_reference`` keeps on its rows compared directly, at
    g = 2, 4 and 8 and at r*g = 296 (floor 303).  Shapes have n1 < n2 and
    n1 > n2 and rows whose lengths are not multiples of 8; the row-end
    texts have rows whose head and tail blocks match, which a sum across a
    row's end would keep."""
    for floor, k in ((5, 1), (19, 2), (39, 3), (303, 3)):
        texts = [_row_end_text(floor, sigma)]
        if floor < 303:
            texts += [random_text(rng, n1, n2, sigma) for n1, n2 in
                      ((rng.randrange(30, 60), rng.randrange(61, 90)),
                       (rng.randrange(61, 90), rng.randrange(30, 60)))]
        for t in texts:
            cells = [(x, 0) for x in range(5)] + [
                (rng.randrange(t.n1), rng.randrange(t.n2)) for _ in range(10)]
            batches = list(packed_batches(t, k))
            batches += _strip_batches(monkeypatch, t, cells, max(1, t.n2 // 2))
            for packed, st1, st2, length in batches:
                rows = _direct_rows(t, st1, st2, length, packed.shape[0])
                want = _kept_reference(rows, k, floor)
                got = diagonal._kept_segments(packed, k, floor)
                assert (got is None) == (want is None), (t.n1, t.n2, floor)
                if want is not None:
                    assert (_mask(got, rows.shape) == want).all(), (t.n1, t.n2, floor)
                assert packed.strides[1] == 1, (t.n1, t.n2, floor, packed.strides)


def test_batch_that_cannot_be_pruned_falls_back(monkeypatch):
    """Identical unary strings keep every byte, so every batch runs the
    exact window over whole rows; the answer is still exact."""
    calls = []
    kept = diagonal._kept_segments

    def spy(packed, k, floor):
        got = kept(packed, k, floor)
        calls.append((floor, got is None))
        return got

    monkeypatch.setattr(diagonal, "_kept_segments", spy)
    monkeypatch.setattr(diagonal, "SCAN_CELLS", 1 << 12)
    t = Text.from_symbols([0] * 200, [0] * 200)
    for floor in (0, _seed_floor(t, 3)):
        assert klcf_diagonal_scan(t, 3, floor) == klcf_oracle(t, 3)
    assert any(floor >= 5 and fell for floor, fell in calls)


def _cells_reaching_the_exact_stage(monkeypatch):
    """A list that gets the cells of the runs of each ``_best_in_batch``
    call."""
    reached = []
    exact = diagonal._best_in_batch

    def counted(packed, k, floor, runs):
        reached.append(int(runs[2].sum()))
        return exact(packed, k, floor, runs)

    monkeypatch.setattr(diagonal, "_best_in_batch", counted)
    return reached


def test_filter_engages_on_random_dna(monkeypatch):
    """Random sigma = 4, k = 4, n = 3072: strided hands the search to the
    scan with its floor, and fewer than 5 % of the cells reach the exact
    window stage."""
    reached = _cells_reaching_the_exact_stage(monkeypatch)
    r = np.random.default_rng(7)
    t = Text.from_symbols(r.integers(0, 4, 3072).tolist(), r.integers(0, 4, 3072).tolist())
    stats = Stats()
    span = klcf_strided(t, build_lce(t), 4, stats=stats)
    assert stats.passes == 0 and stats.scan_cells == t.n1 * t.n2
    assert sum(reached) < 0.05 * t.n1 * t.n2, sum(reached) / (t.n1 * t.n2)
    monkeypatch.undo()
    assert span == klcf_diagonal_scan(t, 4)


def test_first_batch_runs_behind_the_filter_at_floor_zero(monkeypatch):
    """With no floor (``--algo naive``), the first batch comes in row chunks
    of 1, 2, 4, ... rows, so on random DNA, n = 3072 and k = 4, the filter
    prunes all but the leading rows: under 50,000 cells reach the exact
    stage, where reading that batch whole sends over a million."""
    reached = _cells_reaching_the_exact_stage(monkeypatch)
    t = generate_instance("random", 3072, 4, 4, seed=1)
    span = klcf_diagonal_scan(t, 4)
    assert sum(reached) <= 50_000, sum(reached)
    assert span == klcf_tabulation(t, 4)


def _read_pair():
    """A 150-symbol DNA read copied from a 2^16-symbol random reference at
    40,001, with one substitution; the read is s2, so a batch's rows are
    152 cells wide."""
    r = np.random.default_rng(3)
    ref = r.integers(0, 4, 1 << 16)
    read = ref[40000:40150].copy()
    read[75] = (read[75] + 1) % 4
    return Text.from_symbols(ref.tolist(), read.tolist())


@pytest.mark.parametrize("kind, floor, bound", [("random", 5, 1.25),
                                                ("planted", 39, 0.75),
                                                ("read", 39, 1.0),
                                                ("read", 19, 1.005)])
def test_scan_peak_stays_near_the_packed_batch(monkeypatch, kind, floor, bound):
    """sigma = 20, n = 1024, k = 1 at the default budget: no zero-filled run
    sums (g = 2 at floor 5) span a batch, and its rows come from 5 bit
    planes packed once a slice of about one batch, with no one-byte-per-cell
    comparison (which dominated at g = 8, floor 39 while sigma = 20 was
    compared a byte per cell), so the scan's peak stays near the packed
    batch's footprint per compared cell.  On the sigma = 4 read a slice is
    one batch, so the planes hold only the batch's own symbols: the planes
    of the whole reference would lift the peak from 0.91 to 1.30 bytes a
    cell.  At floor 19 (g = 4, the bench ``reads`` regime) the
    filter counts two blocks a byte down the (bytes, rows) batch and reads
    it in place: 0.914 bytes a cell, where a transpose of every batch to
    rows read 0.920."""
    cells = []
    kept = diagonal._kept_segments

    def spy(packed, k, floor):
        cells.append(8 * packed.size)
        return kept(packed, k, floor)

    monkeypatch.setattr(diagonal, "_kept_segments", spy)
    t = _read_pair() if kind == "read" else generate_instance(kind, 1024, 20, 1, 64, seed=0)
    tracemalloc.start()
    try:
        span = klcf_diagonal_scan(t, 1, floor=floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert span == klcf_oracle(t, 1)
    assert peak < bound * max(cells), peak / max(cells)
