"""Optimum past position 2^18, behind a decoy more than 2^18 earlier.

s2 is a 64-symbol read copied from s1 past 2^18 with k substitutions; a
copy with k+1 substitutions, one of them at its first symbol, sits at the
start of s1.  The decoy's best window has length 63 at (2, 2), and ranking
windows by a key that packs positions into 18-bit fields would put it
above the optimum (64, P, 1).
"""

import json

import numpy as np
import pytest

from klcf.cli import main
from klcf.core import Text, make_span, verify_match
from klcf.diagonal import klcf_diagonal_scan
from klcf.lce import build_lce
from klcf.seeds import klcf_seeds
from klcf.strided import klcf_strided, scan_pass
from klcf.tabulation import klcf_tabulation

K = 2
READ = 64
POS = (1 << 18) + 100  # 1-based start of the true copy in s1
N1 = (1 << 18) + 300


def _substitute(rng, seq, offsets):
    for t in offsets:
        seq[t] = (seq[t] + 1 + rng.integers(0, 3)) % 4


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(2018)
    s1 = rng.integers(0, 4, N1)
    read = s1[POS - 1:POS - 1 + READ].copy()
    _substitute(rng, read, rng.choice(READ, K, replace=False))
    decoy = read.copy()
    _substitute(rng, decoy, [0, *(1 + rng.choice(READ - 1, K, replace=False))])
    s1[:READ] = decoy
    text = Text(s1, read, 4)
    return text, build_lce(text), make_span(text, READ, POS, 1)


def test_planted_copy_and_decoy(planted):
    text, _, want = planted
    assert verify_match(text, want, K)
    assert len(want.mismatches) == K
    decoy = make_span(text, READ - 1, 2, 2)
    assert verify_match(text, decoy, K)
    assert POS - decoy.i1 > 1 << 18
    # in 18-bit position fields the decoy's key outranks the optimum's
    assert ((READ - 1) << 36) - (2 << 18) - 2 > (READ << 36) - (POS << 18) - 1


def test_every_solver_finds_the_planted_copy(planted):
    text, lce, want = planted
    assert klcf_diagonal_scan(text, K) == want
    assert scan_pass(text, lce, K, READ) == want
    assert klcf_strided(text, lce, K) == want
    assert klcf_seeds(text, lce, K) == want
    assert klcf_tabulation(text, K) == want


def test_cli_reports_the_planted_copy(planted, tmp_path, capsys):
    text, _, want = planted
    files = []
    for name, seq in (("ref.txt", text.s1), ("read.txt", text.s2)):
        path = tmp_path / name
        path.write_bytes(np.frombuffer(b"ACGT", np.uint8)[seq].tobytes())
        files.append(str(path))
    assert main(["--k", str(K), "--json", *files]) == 0
    got = json.loads(capsys.readouterr().out)
    assert (got["length"], got["pos1"], got["pos2"]) == (want.length, want.i1, want.i2)
    assert tuple(got["mismatches"]) == want.mismatches
