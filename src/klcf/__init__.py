"""Longest common substring with k mismatches.

A reference sliding-window oracle plus five exact solvers: the exhaustive
chunked diagonal scan (naive), a deletion-neighborhood join, seed-and-
extend from the left-maximal exact seeds a long window must hold (or the
exhaustive scan, whichever is priced cheaper), strided diagonal scanning
over an LCE index (finished by that same purchase), and a tabulation scan,
whose lookup tables read the exhaustive scan's packed mismatch bits.  All
report the optimum length with a verifiable witness, which ``solve`` checks.
"""

from .core import (MatchSpan, ResourceLimitError, Stats, Text, generate_instance,
                   klcf_bounds, klcf_oracle, load_inputs, verify_match)
from .diagonal import klcf_diagonal_scan
from .lce import LceIndex, build_lce, lce_backward, lce_forward, lcf0
from .neighborhood import exists_match_of_length, klcf_neighborhood
from .seeds import klcf_seeds, seed_price
from .route import Solution, solve
from .strided import ScanStats, klcf_strided, scan_pass
from .tabulation import (Lut, PackedText, build_l1, build_l2, klcf_tabulation,
                         pack, unpack)

__all__ = [
    "MatchSpan", "ResourceLimitError", "Text", "klcf_bounds", "klcf_oracle",
    "verify_match", "LceIndex", "build_lce", "lce_backward", "lce_forward",
    "lcf0", "exists_match_of_length", "klcf_neighborhood", "klcf_seeds",
    "seed_price", "ScanStats", "klcf_strided", "scan_pass", "Lut",
    "PackedText", "build_l1", "build_l2", "klcf_tabulation", "pack", "unpack",
    "generate_instance", "load_inputs", "klcf_diagonal_scan", "Solution",
    "solve", "Stats",
]

__version__ = "0.1.0"
