"""Memory held by the LCE index after build_lce returns."""

import random
import tracemalloc

from klcf.core import Text
from klcf.lce import build_lce


def test_build_lce_holds_one_copy_of_each_array():
    # per symbol and per direction: a `levels`-row sparse table (row 0 is
    # the LCP array), the suffix array, the ranks and the floor-log2 array,
    # all int64, plus one word of slack
    rng = random.Random(5)
    s1 = [rng.randrange(4) for _ in range(1 << 14)]
    s2 = [rng.randrange(4) for _ in range(1 << 14)]
    text = Text.from_symbols(s1, s2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lce = build_lce(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    levels = lce.n.bit_length()
    assert held / lce.n <= 2 * (levels + 4) * 8, held / lce.n
