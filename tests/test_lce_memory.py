"""Memory held by the LCE index after build_lce and after queries."""

import random
import tracemalloc

from klcf.core import Text
from klcf.lce import build_lce, lce_backward, lce_forward


def _text():
    rng = random.Random(5)
    s1 = [rng.randrange(4) for _ in range(1 << 14)]
    s2 = [rng.randrange(4) for _ in range(1 << 14)]
    return Text.from_symbols(s1, s2)


def _held_per_symbol(make):
    """Bytes per concatenation symbol that make() leaves allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lce = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return lce, held / lce.n


def test_build_lce_holds_one_copy_of_each_array():
    # per symbol and per direction: a `levels`-row sparse table (row 0 is
    # the LCP array), the suffix array, the ranks and the floor-log2 array,
    # all int64, plus one word of slack; one query in each direction makes
    # sure both directions are built
    text = _text()

    def build_and_query():
        lce = build_lce(text)
        lce_forward(lce, 1, 2)
        lce_backward(lce, 1, 2)
        return lce

    lce, per_symbol = _held_per_symbol(build_and_query)
    assert lce.bwd is not None
    levels = lce.n.bit_length()
    assert per_symbol <= 2 * (levels + 4) * 8, per_symbol


def test_build_lce_alone_holds_the_forward_direction_only():
    text = _text()
    lce, per_symbol = _held_per_symbol(lambda: build_lce(text))
    assert lce.bwd is None
    levels = lce.n.bit_length()
    assert per_symbol <= (levels + 4) * 8, per_symbol
