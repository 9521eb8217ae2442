"""Longest common substring with k mismatches.

A reference sliding-window oracle plus three exact solvers: a deletion-
neighborhood join, strided diagonal scanning over an LCE index
(finished by an exhaustive chunked diagonal scan when that is cheaper),
and a tabulation scan, whose lookup tables read the exhaustive scan's
packed mismatch bits.  All report the optimum length with a verifiable
witness.
"""

from .core import (MatchSpan, ResourceLimitError, Text, generate_instance,
                   klcf_bounds, klcf_oracle, load_inputs, verify_match)
from .diagonal import klcf_diagonal_scan
from .lce import LceIndex, build_lce, lce_backward, lce_forward, lcf0
from .neighborhood import (Keyword, enumerate_neighborhood,
                           exists_match_of_length, klcf_neighborhood)
from .strided import (ScanStats, klcf_strided, longest_through_cell,
                      scan_pass)
from .tabulation import (LutL1, LutL2, MismatchBlocks, PackedText, build_l1,
                         build_l2, klcf_tabulation, longest_window_lut, pack,
                         unpack)

__all__ = [
    "MatchSpan", "ResourceLimitError", "Text", "klcf_bounds", "klcf_oracle",
    "verify_match", "LceIndex", "build_lce", "lce_backward", "lce_forward",
    "lcf0", "Keyword", "enumerate_neighborhood", "exists_match_of_length",
    "klcf_neighborhood", "ScanStats", "klcf_strided", "longest_through_cell",
    "scan_pass", "LutL1", "LutL2", "MismatchBlocks", "PackedText", "build_l1",
    "build_l2", "klcf_tabulation", "longest_window_lut", "pack", "unpack",
    "generate_instance", "load_inputs", "klcf_diagonal_scan",
]

__version__ = "0.1.0"
