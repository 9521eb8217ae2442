"""One solve path per call, shared by the timed loop, the traced run and the
fresh processes that measure peak RSS.  Each returns (length, i1, i2,
mismatches) as the program reported them."""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_RESULT = re.compile(
    r"length=(\d+) pos1=(\d+) pos2=(\d+) mismatches=\[([0-9, ]*)\]")


def import_klcf():
    """Import the package from the checkout's ``src``; exit 1 if it is absent."""
    src = ROOT / "src"
    if not (src / "klcf" / "__init__.py").is_file():
        raise SystemExit(f"error: no klcf package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import klcf
    import klcf.cli
    return klcf


def parse_cli_output(text: str):
    m = _RESULT.search(text)
    if m is None:
        raise ValueError(f"unparsable klcf output: {text!r}")
    mism = [int(v) for v in m.group(4).split(",") if v.strip()]
    return int(m.group(1)), int(m.group(2)), int(m.group(3)), mism


def span_tuple(span):
    return span.length, span.i1, span.i2, list(span.mismatches)


def run_cli(klcf, k: int, f1: str, f2: str):
    """The default `klcf --k K file1 file2` path, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = klcf.cli.main(["--k", str(k), f1, f2])
    if code != 0:
        raise RuntimeError(f"klcf exited {code}: {err.getvalue().strip()}")
    return parse_cli_output(out.getvalue())


def setup(klcf, f1: str, f2: str):
    """What every LCE-based solve pays first: load, index, exact optimum."""
    text = klcf.load_inputs(f1, f2)
    lce = klcf.build_lce(text)
    ell0 = klcf.lcf0(lce)[0]
    return text, lce, ell0
