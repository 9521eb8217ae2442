"""Self-tests of the benchmark's reference and generators.

    python3 -m pytest bench -q
"""

import numpy as np
import pytest

import workloads as W
from paths import import_klcf
from reference import mismatch_offsets, reference_solve

klcf = import_klcf()


@pytest.mark.parametrize("sigma", [1, 2, 4])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_reference_matches_oracle(sigma, k):
    rng = np.random.default_rng([sigma, k])
    letters = np.frombuffer(b"abcd", dtype=np.uint8)
    for _ in range(60):
        n1, n2 = rng.integers(0, 25, 2)
        s1 = letters[rng.integers(0, sigma, n1)].tobytes()
        s2 = letters[rng.integers(0, sigma, n2)].tobytes()
        span = klcf.klcf_oracle(klcf.Text.from_symbols(s1, s2), k)
        ref = reference_solve(s1, s2, k)
        assert ref == (span.length, span.i1, span.i2), (s1, s2, k)
        if ref[0]:
            assert mismatch_offsets(s1, s2, *ref[1:], ref[0]) == list(span.mismatches)


def test_reference_batches_agree():
    inst = W.random_instances(3)[0]
    s1, s2 = inst.s1[:700], inst.s2[:500]
    whole = reference_solve(s1, s2, 2)
    import reference
    saved = reference.BATCH_CELLS
    reference.BATCH_CELLS = 1000  # many small batches, ties across them
    try:
        assert reference_solve(s1, s2, 2) == whole
    finally:
        reference.BATCH_CELLS = saved


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic(name):
    make = W.WORKLOADS[name]
    assert make(5) == make(5)
    assert [i.s2 for i in make(5)] != [i.s2 for i in make(6)]


def test_square_workloads_hit_their_regime():
    for seed in (0, 1):
        (r,) = W.random_instances(seed)
        assert reference_solve(r.s1, r.s2, 0)[0] == W.RANDOM_ELL0
        for w in W.wide_instances(seed):
            assert reference_solve(w.s1, w.s2, 0)[0] == W.WIDE_ELL0
            assert len(set(w.s1 + w.s2)) == len(W.PROTEIN)


@pytest.mark.parametrize("seed", [0, 7])
def test_read_optimum_is_its_planted_copy(seed):
    for inst in W.reads_instances(seed):
        assert len(inst.s1) == W.REF_LEN and len(inst.s2) == W.READ_LEN
        p = inst.planted[0]
        assert p - 1 >= W.POS_LIMIT
        assert reference_solve(inst.s1, inst.s2, inst.k) == (W.READ_LEN, p, 1)
        copy = mismatch_offsets(inst.s1, inst.s2, p, 1, W.READ_LEN)
        assert len(copy) == inst.k


def test_repeat_read_outranks_the_optimum_in_the_packed_key():
    inst = W.read_instance(W.REPEAT_SEED, True)
    p = inst.planted[0]
    # best window before the true copy: the repeat, from the read's offset 1
    length, q, i2 = reference_solve(inst.s1[:p - 1], inst.s2, inst.k)
    assert (length, i2) == (W.READ_LEN - 1, 2)
    assert q <= p - W.POS_LIMIT - 1

    def key(length, st1, st2):  # scan_pass's packed ranking key
        return (length << 36) - (st1 << 18) - st2

    assert key(length, q, i2) > key(W.READ_LEN, p, 1)


def test_wide_tie_pair_has_several_optimal_windows():
    (inst,) = [i for i in W.wide_instances(0) if i.known_fault]
    length, i1, i2 = reference_solve(inst.s1, inst.s2, inst.k)
    # hide the smallest witness's first symbol: another optimal window stays
    masked = inst.s1[:i1 - 1] + b"#" + inst.s1[i1:]
    assert reference_solve(masked, inst.s2, inst.k)[0] == length
