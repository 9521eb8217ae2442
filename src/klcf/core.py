"""Input model and loading, instance generation, result type, reference
oracle, and match verification.

Positions are 1-based throughout the public API. A match of length ``l``
pairs ``s1[i1 .. i1+l-1]`` with ``s2[i2 .. i2+l-1]`` and is valid for a
mismatch budget ``k`` when the two windows differ in at most ``k`` aligned
positions.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np


class ResourceLimitError(Exception):
    """An algorithm would exceed its configured memory budget."""


@dataclass(frozen=True)
class MatchSpan:
    """A reported common substring with its mismatch offsets.

    ``mismatches`` holds the offsets t in [0, length) where
    ``s1[i1+t] != s2[i2+t]``, sorted ascending.
    """

    length: int
    i1: int
    i2: int
    mismatches: tuple[int, ...] = ()


@dataclass
class Stats:
    """Work counters of one solve; each solver fills only its own.

    Strided: ``cells_visited`` counts the cells its passes expanded with
    LCE queries, ``pass_strides`` the passes' strides and ``passes`` the
    passes.  The exhaustive scan, naive or the purchase that seeds and
    strided make, adds its n1*n2 cells to ``scan_cells``.  Seeds, when
    that purchase buys them: ``seed_pairs`` and ``seed_cells`` count the
    seed pairs whose strips were compared and the cells of their rows,
    each row's packed width.
    Tabulation: ``word_ops`` counts the packed mismatch bytes the block
    filter reads, one per 8 cells of each batch's row width;
    ``lut_queries`` and ``max_diag_queries`` the LUT stage's queries on
    the byte runs the filter keeps, the most on one run for the latter;
    ``diagonals`` every diagonal, kept or not.  Neighborhood:
    ``keywords_generated`` counts the keywords its probes enumerate, and
    ``probes`` holds the probed lengths j in order.
    """

    cells_visited: int = 0
    pass_strides: list = field(default_factory=list)
    scan_cells: int = 0
    seed_pairs: int = 0
    seed_cells: int = 0
    lut_queries: int = 0
    max_diag_queries: int = 0
    word_ops: int = 0
    diagonals: int = 0
    keywords_generated: int = 0
    probes: list = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_strides)

    @property
    def work(self) -> int:
        """The solve's cells, LUT queries and keywords, summed."""
        return (self.cells_visited + self.scan_cells + self.seed_cells
                + self.lut_queries + self.keywords_generated)


class Text:
    """Two sequences over a dense alphabet, held once as their concatenation.

    Symbols are densified to [0, sigma) where sigma counts the distinct
    symbols actually occurring in either sequence.  ``concat`` is
    s1 . SEP1 . s2 . SEP2 with the two sentinels sigma and sigma+1, so no
    exact extension can cross a sequence boundary, in the narrowest
    unsigned dtype that holds sigma+1: one byte per symbol up to sigma =
    254, two up to 65534, four above.  ``s1`` and ``s2`` are views of it.
    """

    __slots__ = ("s1", "s2", "n1", "n2", "sigma", "concat", "alphabet")

    def __init__(self, s1: np.ndarray, s2: np.ndarray, sigma: int, alphabet=None):
        n1, n2 = len(s1), len(s2)
        concat = np.empty(n1 + n2 + 2, np.min_scalar_type(sigma + 1))
        concat[:n1], concat[n1 + 1:-1] = s1, s2
        # written as Python ints, so a dtype too narrow for one raises
        concat[n1], concat[-1] = int(sigma), int(sigma) + 1
        self.concat, self.s1, self.s2 = concat, concat[:n1], concat[n1 + 1:-1]
        self.n1, self.n2, self.sigma = n1, n2, sigma
        self.alphabet = alphabet  # dense value -> original symbol, or None

    @classmethod
    def from_symbols(cls, s1, s2) -> "Text":
        """Build a Text from two iterables of integers, densifying them.

        Two ``bytes`` objects, as ``load_inputs`` reads, are densified
        through a 256-entry code table instead of a sort.
        """
        if isinstance(s1, bytes) and isinstance(s2, bytes):
            a1 = np.frombuffer(s1, np.uint8)
            a2 = np.frombuffer(s2, np.uint8)
            counts = np.bincount(a1, minlength=256) + np.bincount(a2, minlength=256)
            present = counts > 0
            # byte -> dense value, at most 255
            code = (np.cumsum(present) - 1).astype(np.uint8)
            alphabet = np.flatnonzero(present)
            return cls(code.take(a1), code.take(a2), len(alphabet), alphabet)
        a1 = np.asarray(list(s1), dtype=np.int64)
        a2 = np.asarray(list(s2), dtype=np.int64)
        alphabet = np.unique(np.concatenate([a1, a2]))
        return cls(np.searchsorted(alphabet, a1), np.searchsorted(alphabet, a2),
                   len(alphabet), alphabet)

    @classmethod
    def from_strings(cls, s1: str, s2: str) -> "Text":
        return cls.from_symbols([ord(c) for c in s1], [ord(c) for c in s2])

    def __repr__(self):
        return f"Text(n1={self.n1}, n2={self.n2}, sigma={self.sigma})"


def mismatch_offsets(text: Text, i1: int, i2: int, length: int) -> tuple[int, ...]:
    """Offsets where the two aligned windows differ (direct comparison)."""
    if length == 0:
        return ()
    a = text.s1[i1 - 1:i1 - 1 + length]
    b = text.s2[i2 - 1:i2 - 1 + length]
    return tuple(np.flatnonzero(a != b).tolist())


def make_span(text: Text, length: int, i1: int, i2: int) -> MatchSpan:
    """MatchSpan with its mismatch list recomputed from the text."""
    return MatchSpan(length, i1, i2, mismatch_offsets(text, i1, i2, length))


def better_span(a: MatchSpan, b: MatchSpan) -> MatchSpan:
    """Pick the longer span; ties go to the smaller (i1, i2)."""
    if b.length > a.length:
        return b
    if b.length == a.length and (b.i1, b.i2) < (a.i1, a.i2):
        return b
    return a


def trivial_span(text: Text, k: int) -> MatchSpan:
    """Best span when no exact common symbol exists: length min(k, n1, n2) at (1, 1)."""
    m = min(k, text.n1, text.n2)
    return make_span(text, m, 1, 1)


def klcf_oracle(text: Text, k: int) -> MatchSpan:
    """Longest common substring with at most k mismatches, by sliding window.

    Walks every diagonal of the (virtual) n1 x n2 alignment matrix keeping a
    window with at most k mismatch offsets in a deque.  O(n1*n2) time,
    O(k) extra space.  Among maximum-length matches the one with the
    lexicographically smallest (i1, i2) is reported.
    """
    n1, n2 = text.n1, text.n2
    if n1 == 0 or n2 == 0:
        return MatchSpan(0, 1, 1, ())
    s1 = text.s1.tolist()
    s2 = text.s2.tolist()
    best_len, best_i1, best_i2 = 0, 1, 1
    for d in range(-(n1 - 1), n2):
        i1 = -d if d < 0 else 0  # 0-based diagonal start
        i2 = i1 + d
        diag_len = min(n1 - i1, n2 - i2)
        window = deque()
        s = 0
        for e in range(diag_len):
            if s1[i1 + e] != s2[i2 + e]:
                window.append(e)
                if len(window) > k:
                    s = window.popleft() + 1
            length = e - s + 1
            if length > best_len or (
                length == best_len
                and (i1 + s + 1, i2 + s + 1) < (best_i1, best_i2)
            ):
                best_len = length
                best_i1 = i1 + s + 1
                best_i2 = i2 + s + 1
    return make_span(text, best_len, best_i1, best_i2)


def verify_match(text: Text, span: MatchSpan, k: int) -> bool:
    """True iff the span's windows differ in at most k positions and the
    recorded mismatch list is exactly the differing offsets.

    An out-of-bounds span raises ValueError (distinct from returning False).
    """
    if span.length < 0 or k < 0:
        raise ValueError(f"negative length or budget: {span.length}, {k}")
    if span.i1 < 1 or span.i2 < 1:
        raise ValueError(f"positions are 1-based: ({span.i1}, {span.i2})")
    if span.i1 + span.length - 1 > text.n1 or span.i2 + span.length - 1 > text.n2:
        raise ValueError(
            f"span ({span.i1}, {span.i2}, len {span.length}) exceeds "
            f"lengths ({text.n1}, {text.n2})")
    if span.length == 0 and (span.i1 > text.n1 + 1 or span.i2 > text.n2 + 1):
        raise ValueError("empty span anchored past the end of a sequence")
    actual = mismatch_offsets(text, span.i1, span.i2, span.length)
    return len(actual) <= k and tuple(span.mismatches) == actual


def klcf_bounds(ell0: int, k: int, n1: int, n2: int) -> tuple[int, int]:
    """Bounds on the optimum length given the exact-match optimum ell0.

    Any window of length min(n1, n2, k) fits the budget, and a window with
    at most k mismatches splits into k+1 exact runs, so
    max(ell0, min(min(n1,n2), k)) <= l_k <= min(min(n1,n2), (k+1)*ell0 + k).
    """
    n = min(n1, n2)
    lower = max(ell0, min(n, k))
    upper = min(n, (k + 1) * ell0 + k)
    return lower, upper


def _read_plain(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if data.endswith(b"\n"):
        data = data[:-1]
    return data


def _read_fasta(path: str) -> bytes:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(b">"):
        raise ValueError(f"{path}: not a FASTA file (missing '>' header)")
    seq = bytearray()
    for line in lines[1:]:
        if line.startswith(b">"):
            break
        seq.extend(line.strip())
    if not seq:
        raise ValueError(f"{path}: empty FASTA record")
    return bytes(seq)


def load_inputs(path1: str, path2: str, fmt: str = "plain") -> Text:
    """Read two sequence files and densify their byte alphabets."""
    reader = {"plain": _read_plain, "fasta": _read_fasta}.get(fmt)
    if reader is None:
        raise ValueError(f"unknown input format {fmt!r}")
    return Text.from_symbols(reader(path1), reader(path2))


# share of s1's symbols a `similar` instance substitutes in s2
SIMILAR_MUTATION_RATE = 0.01


def generate_instance(kind: str, n: int, sigma: int, k: int, length: int = 0,
                      seed: int = 0) -> Text:
    """Deterministic test instance.

    `random` draws both sequences uniformly; `planted` embeds a window pair
    of the given length differing in exactly k chosen offsets; `similar`
    makes s2 a copy of s1 with each symbol substituted by a different one
    with probability SIMILAR_MUTATION_RATE (k and length are unused).
    """
    if n < 0 or sigma < 1:
        raise ValueError("need n >= 0 and sigma >= 1")
    rng = random.Random(seed)
    s1 = [rng.randrange(sigma) for _ in range(n)]
    s2 = [rng.randrange(sigma) for _ in range(n)]
    if kind == "planted":
        if not 0 <= k <= length <= n:
            raise ValueError("planted needs 0 <= k <= L <= n")
        if k > 0 and sigma < 2:
            raise ValueError("planted mismatches need sigma >= 2")
        i1 = rng.randrange(n - length + 1) if n > length else 0
        i2 = rng.randrange(n - length + 1) if n > length else 0
        s2[i2:i2 + length] = s1[i1:i1 + length]
        for t in sorted(rng.sample(range(length), k)):
            s2[i2 + t] = (s1[i1 + t] + 1 + rng.randrange(sigma - 1)) % sigma
    elif kind == "similar":
        if sigma < 2:
            raise ValueError("similar mutations need sigma >= 2")
        s2 = [(c + 1 + rng.randrange(sigma - 1)) % sigma
              if rng.random() < SIMILAR_MUTATION_RATE else c for c in s1]
    elif kind != "random":
        raise ValueError(f"unknown instance kind {kind!r}")
    return Text.from_symbols(s1, s2)
