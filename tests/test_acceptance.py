"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The random-instance sweep is shared between the
criteria that consume it and uses fixed seeds throughout.
"""

import random
import time
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

from klcf.core import (ResourceLimitError, Stats, Text, generate_instance,
                       klcf_bounds, klcf_oracle, verify_match)
from klcf.diagonal import klcf_diagonal_scan
from klcf.lce import build_lce, lcf0
from klcf.neighborhood import _delete_tuples, klcf_neighborhood
from klcf.seeds import klcf_seeds
from klcf.strided import klcf_strided
from klcf.tabulation import build_l1, build_l2, klcf_tabulation

from conftest import (lut_entry, lut_window, naive_lce_backward,
                      naive_lce_forward, random_text, two_pointer_window)

SWEEP_INSTANCES = 1000
SWEEP_BUDGET_WORDS = 1 << 16  # keeps admitted neighborhoods test-sized
SIGMAS = (1, 2, 4, 20, 128)


def _report(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@dataclass
class SweepRecord:
    n1: int
    n2: int
    sigma: int
    k: int
    ell0: int
    oracle_len: int
    solvers: tuple      # the solvers that ran on the instance
    disagree: tuple     # those whose span (length, witness, mismatches)
                        # differs from the oracle's
    valid: bool         # verify_match holds for every span


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(20240901)
    records = []
    t0 = time.perf_counter()
    forced = [(0, 0), (0, 31), (256, 256), (1, 1), (256, 1), (2, 256)]
    for i in range(SWEEP_INSTANCES):
        if i < len(forced):
            n1, n2 = forced[i]
        elif rng.random() < 0.25:
            n1 = rng.randrange(0, 257)
            n2 = rng.randrange(0, 257)
        else:
            n1 = int(256 * rng.random() ** 2)
            n2 = int(256 * rng.random() ** 2)
        sigma = SIGMAS[i % len(SIGMAS)]
        k = rng.randrange(0, 9)
        text = random_text(rng, n1, n2, sigma)
        oracle = klcf_oracle(text, k)
        lce = build_lce(text)
        ell0 = lcf0(lce)[0]
        spans = {
            "strided": klcf_strided(text, lce, k),
            "seeds": klcf_seeds(text, lce, k),
            "tabulation": klcf_tabulation(text, k),
            "diagonal-scan": klcf_diagonal_scan(text, k),
        }
        try:
            spans["neighborhood"] = klcf_neighborhood(
                text, lce, k, mem_budget_words=SWEEP_BUDGET_WORDS)
        except ResourceLimitError:
            pass
        valid = all(verify_match(text, span, k)
                    for span in (oracle, *spans.values()))
        records.append(SweepRecord(
            n1, n2, sigma, k, ell0, oracle.length, tuple(spans),
            tuple(name for name, span in spans.items() if span != oracle),
            valid))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_oracle_equivalence(sweep):
    records, elapsed = sweep
    ok = len(records) >= 1000
    disagreements = [name for rec in records for name in rec.disagree]
    neighborhood_runs = sum("neighborhood" in rec.solvers for rec in records)
    ok = ok and not disagreements and all(rec.valid for rec in records)
    ok = ok and neighborhood_runs > 100  # the guard must admit a real share
    ok = ok and elapsed < 300.0
    print(f"  [sweep: {len(records)} instances in {elapsed:.1f}s, "
          f"neighborhood admitted on {neighborhood_runs}, "
          f"spans unlike the oracle's: {len(disagreements)}]")
    _report(1, "oracle equivalence over random instances", ok)


def test_criterion_2_planted_instances():
    rng = random.Random(77)
    ok = True
    neighborhood_runs = 0
    for i in range(200):
        sigma = (2, 4, 20, 128)[i % 4]
        k = rng.randrange(0, 9)
        n = rng.randrange(max(k, 1), 257) if i % 3 else rng.randrange(max(k, 1), 513)
        length = rng.randrange(k, n + 1)
        text = generate_instance("planted", n, sigma, k, length, seed=1000 + i)
        oracle = klcf_oracle(text, k)
        ok = ok and oracle.length >= length
        lce = build_lce(text)
        spans = [
            klcf_strided(text, lce, k),
            klcf_seeds(text, lce, k),
            klcf_tabulation(text, k),
            klcf_diagonal_scan(text, k),
        ]
        try:
            spans.append(klcf_neighborhood(
                text, lce, k, mem_budget_words=SWEEP_BUDGET_WORDS))
            neighborhood_runs += 1
        except ResourceLimitError:
            pass
        ok = ok and all(span == oracle for span in spans)
    print(f"  [planted: 200 cases, neighborhood admitted on {neighborhood_runs}]")
    _report(2, "planted instances recovered", ok)


def test_criterion_3_bounds(sweep):
    records, _ = sweep
    ok = True
    for rec in records:
        lo, hi = klcf_bounds(rec.ell0, rec.k, rec.n1, rec.n2)
        ok = ok and lo <= rec.oracle_len <= hi
        n = min(rec.n1, rec.n2)
        ok = ok and lo == max(rec.ell0, min(n, rec.k))
        ok = ok and hi == min(n, (rec.k + 1) * rec.ell0 + rec.k)
    _report(3, "exact-match bounds", ok)


def test_criterion_4_neighborhood_combinatorics():
    text = Text.from_strings("abbac", "abbac")

    def materialize(deletes):
        window = text.s1[:5].tolist()
        return "".join(chr(ord("a") + s) for pos, s in enumerate(window, 1)
                       if pos not in deletes)

    got = [(materialize(d), d) for d in _delete_tuples(1, 5, 2)]
    want = [("abb", (4, 5)), ("aba", (3, 5)), ("abc", (3, 4)), ("aba", (2, 5)),
            ("abc", (2, 4)), ("aac", (2, 3)), ("bba", (1, 5)), ("bbc", (1, 4)),
            ("bac", (1, 3)), ("bac", (1, 2))]
    ok = got == want
    for j in range(13):
        for k in range(min(j, 4) + 1):
            tuples = list(_delete_tuples(1, j, k))
            ok = ok and len(tuples) == comb(j, k) == len(set(tuples))
    _report(4, "neighborhood keyword combinatorics", ok)


def _expected_lut_fill(bits_value, wins_with_masks, budgets):
    """Brute force: walk every window in (length desc, start asc) order and
    record the first fit per budget."""
    out = {}
    filled = 0
    for (i, j, mask) in wins_with_masks:
        pw = (bits_value & mask).bit_count()
        for kp in range(pw, budgets + 1):
            if kp not in out:
                out[kp] = (i, j)
                filled += 1
        if filled > budgets:
            break
    return out


def test_criterion_5_lut_exhaustive():
    t0 = time.perf_counter()
    b = 8
    l1 = build_l1(b)
    l2 = build_l2(b)
    ok = True
    wins1 = []
    for ln in range(b, 0, -1):
        for i in range(1, b - ln + 2):
            j = i + ln - 1
            wins1.append((i, j, (((1 << j) - 1) ^ ((1 << (i - 1)) - 1))))
    wins1.append((1, 0, 0))
    for v in range(1 << b):
        want = _expected_lut_fill(v, wins1, b)
        for kp in range(b + 1):
            if lut_entry(l1, kp, v) != want[kp]:
                ok = False
    wins2 = []
    full = (1 << b) - 1
    for ln in range(2 * b, 0, -1):
        for i in range(max(1, b - ln + 1), min(b + 1, 2 * b - ln + 1) + 1):
            j = i + ln - 1
            m1 = (full ^ ((1 << (i - 1)) - 1)) if i <= b else 0
            m2 = (1 << (j - b)) - 1
            wins2.append((i, j, m1 | (m2 << b)))
    wins2.append((b + 1, b, 0))
    for v1 in range(1 << b):
        base = v1
        for v2 in range(1 << b):
            want = _expected_lut_fill(base | (v2 << b), wins2, 2 * b)
            for kp in range(2 * b + 1):
                if lut_entry(l2, kp, v1, v2) != want[kp]:
                    ok = False
                    break
            else:
                continue
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    print(f"  [LUT sweep: {elapsed:.1f}s]")
    _report(5, "exhaustive L1/L2 table check at b=8", ok)


def test_criterion_6_lce_correctness():
    rng = random.Random(4242)
    classes = [
        random_text(rng, 2000, 2000, 2),
        random_text(rng, 1500, 1400, 4),
        random_text(rng, 1000, 1100, 20),
        random_text(rng, 800, 800, 128),
        generate_instance("planted", 1000, 4, 5, 200, seed=7),
    ]
    ok = True
    for text in classes:
        idx = build_lce(text)
        seq = text.concat.tolist()
        n = len(seq)
        pairs = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                 for _ in range(100_000)]
        p, q = (np.array(side) for side in zip(*pairs))
        fwd = idx.lce_forward_batch(p, q).tolist()
        bwd = idx.lce_backward_batch(p, q).tolist()
        ok = ok and all(f == naive_lce_forward(seq, a, b)
                        and g == naive_lce_backward(seq, a, b)
                        for (a, b), f, g in zip(pairs, fwd, bwd))
        ok = ok and lcf0(idx)[0] == klcf_oracle(text, 0).length
    _report(6, "LCE queries vs naive scans", ok)


def test_criterion_7_strided_work_bound():
    rng = random.Random(555)
    ok = True
    for i in range(60):
        k = rng.randrange(0, 6)
        n = rng.randrange(32, 400)
        length = rng.randrange(max(8, k), n + 1)
        text = generate_instance("planted", n, rng.choice([2, 4, 20]), k,
                                 length, seed=31337 + i)
        lce = build_lce(text)
        ell0 = lcf0(lce)[0]
        stats = Stats()
        span = klcf_strided(text, lce, k, stats=stats)
        if span.length < 8:
            continue
        ok = ok and span.length == klcf_oracle(text, k).length
        bound = 4 * text.n1 * text.n2 / span.length + (text.n1 + text.n2)
        ok = ok and stats.cells_visited <= bound
        h1 = min((k + 1) * ell0 + k, text.n1, text.n2)
        ok = ok and stats.passes <= max(1, h1).bit_length() + 1
    _report(7, "strided visited-cell and pass bounds", ok)


def test_criterion_8_window_scan_oracle():
    rng = random.Random(808)
    l1 = build_l1(8)
    l2 = build_l2(8)
    ok = True
    for i in range(1000):
        n = rng.randrange(1, 10001) if i % 5 == 0 else rng.randrange(1, 2000)
        density = rng.choice([0.01, 0.05, 0.2, 0.5, 0.9])
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        k = rng.randrange(0, 13)
        start, end = lut_window(bits, k, 8, l1, l2)
        if end - start + 1 != two_pointer_window(bits, k)[0]:
            ok = False
            break
    _report(8, "LUT window scan vs two-pointer", ok)


def test_criterion_9_desk_scale_smoke():
    build_l1(8)
    text = generate_instance("random", 8192, 4, 8, seed=99)
    stats = Stats()
    t0 = time.perf_counter()
    span = klcf_tabulation(text, 8, stats=stats)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    ok = ok and verify_match(text, span, 8)
    n_over_b = 8192 // 8
    ok = ok and stats.max_diag_queries <= 2 * n_over_b * (8 + 1)
    print(f"  [n=8192 scan: {elapsed:.1f}s, max per-diagonal queries "
          f"{stats.max_diag_queries} <= {2 * n_over_b * 9}]")
    _report(9, "desk-scale tabulation smoke", ok)
