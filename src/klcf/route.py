"""One solve path: index, l0, routing, solver, work record, witness check."""

from __future__ import annotations

from typing import NamedTuple

from .core import MatchSpan, Stats, Text, verify_match
from .diagonal import klcf_diagonal_scan
from .lce import LceIndex, build_lce, lcf0
from .neighborhood import DEFAULT_MEM_BUDGET_WORDS, klcf_neighborhood
from .seeds import klcf_seeds
from .strided import klcf_strided
from .tabulation import klcf_tabulation

ALGORITHMS = ("auto", "naive", "neighborhood", "seeds", "strided", "tabulation")


class Solution(NamedTuple):
    span: MatchSpan
    ell0: int
    algo: str  # auto resolved
    stats: Stats  # the solver's work counters


def select_algorithm(cfg, n1: int, n2: int, sigma: int,
                     ell0: int, k: int) -> str:
    """Resolve algo=auto: strided, on every input.

    Strided is the cost model: it rents passes (ski rental) against
    ``seeds.purchase``, which prices seed-and-extend against the
    block-filtered exhaustive scan and buys the cheaper, so ``auto`` keeps
    naming strided, which bench/trace_run.py's per-choice counters
    expect.  ``--algo seeds`` makes the same purchase with no pass.
    Seeds, neighborhood and tabulation are also reachable through --algo;
    on random pairs with sigma 20 and 64, k = 1, n = 1024-8192, where
    neighborhood used to tie or beat strided, strided buys seeds and
    beats it.  The arguments are the quantities known after lcf0;
    bench/trace_run.py replays the call with them, ``cfg`` a
    ``RunConfig`` there and None from ``solve``.
    """
    return "strided"


def solve(text: Text, k: int, algo: str = "auto", lce: LceIndex | None = None,
          mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS) -> Solution:
    """Solve with ``algo`` on ``lce``, built when not given; naive and
    tabulation read only its l0.  Raises RuntimeError, naming the algorithm
    and the span, when the span fails ``verify_match``."""
    if lce is None:
        lce = build_lce(text)
    ell0 = lcf0(lce)[0]
    if algo == "auto":
        algo = select_algorithm(None, text.n1, text.n2, text.sigma, ell0, k)
    stats = Stats()
    if algo == "naive":
        span = klcf_diagonal_scan(text, k, stats=stats)
    elif algo == "neighborhood":
        span = klcf_neighborhood(text, lce, k, mem_budget_words=mem_budget_words,
                                 stats=stats)
    elif algo in ("seeds", "strided"):
        solver = klcf_seeds if algo == "seeds" else klcf_strided
        span = solver(text, lce, k, stats=stats)
    elif algo == "tabulation":
        span = klcf_tabulation(text, k, stats=stats)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    if not verify_match(text, span, k):
        raise RuntimeError(f"{algo} reported a span that failed verification: {span}")
    return Solution(span, ell0, algo, stats)
