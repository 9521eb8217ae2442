"""Command-line tool: solve, generate instances, and benchmark.

Exit codes: 0 success, 1 a span that failed verification (one ``internal
error:`` line), 2 resource budget exceeded (the message names the fallback
flag), 64 usage error or an unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import MatchSpan, ResourceLimitError, generate_instance, load_inputs
from .lce import build_lce, lcf0
from .neighborhood import DEFAULT_MEM_BUDGET_WORDS
from .route import ALGORITHMS, select_algorithm, solve  # noqa: F401 (bench/)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class RunConfig:
    k: int = 0
    algo: str = "auto"
    input_format: str = "plain"
    mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS
    output_format: str = "text"


def format_result(span: MatchSpan, ell0: int, algo: str, time_ms: float,
                  fmt: str = "text") -> str:
    payload = {
        "length": span.length,
        "pos1": span.i1,
        "pos2": span.i2,
        "mismatches": list(span.mismatches),
        "ell0": ell0,
        "algo": algo,
        "time_ms": round(time_ms, 3),
    }
    if fmt == "json":
        return json.dumps(payload)
    return (f"length={span.length} pos1={span.i1} pos2={span.i2} "
            f"mismatches={list(span.mismatches)} ell0={ell0} algo={algo} "
            f"time_ms={payload['time_ms']}")


def run(cfg: RunConfig, path1: str, path2: str, out=None) -> int:
    """Load, solve, emit one result line; returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        text = load_inputs(path1, path2, cfg.input_format)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 64
    t0 = time.perf_counter()
    try:
        sol = solve(text, cfg.k, cfg.algo, mem_budget_words=cfg.mem_budget_words)
    except ResourceLimitError as err:  # only the neighborhood solver's budget
        print(f"error: {err}", file=sys.stderr)
        print("hint: rerun with --algo strided, or raise --mem-budget",
              file=sys.stderr)
        return 2
    except RuntimeError as err:  # a span that failed verification
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    time_ms = (time.perf_counter() - t0) * 1000.0
    print(format_result(*sol[:3], time_ms, cfg.output_format), file=out)
    return 0


def _write_sequence(path: str, text_side: np.ndarray, alphabet, sigma: int):
    symbols = [int(alphabet[v]) if alphabet is not None else int(v)
               for v in text_side]
    if sigma <= len(_LETTERS) and max(symbols, default=0) < len(_LETTERS):
        with open(path, "w") as fh:
            fh.write("".join(_LETTERS[v] for v in symbols))
            fh.write("\n")
    else:
        if max(symbols, default=0) > 255:
            raise ValueError("cannot write symbols above 255 as plain bytes")
        with open(path, "wb") as fh:
            fh.write(bytes(symbols))
            fh.write(b"\n")


def bench(n_list, sigma_list, k_list, algos, repeats: int = 1, seed: int = 0,
          out=None) -> None:
    """Cross product of instance parameters x algorithms, one TSV row per run."""
    out = out if out is not None else sys.stdout
    print("n\tsigma\tk\talgo\tell0\tellk\ttime_ms\twork\tagree", file=out)
    cell = 0
    for n in n_list:
        for sigma in sigma_list:
            for k in k_list:
                cell += 1
                inst_seed = seed * 1000003 + cell
                text = generate_instance("random", n, sigma, k, seed=inst_seed)
                lce = build_lce(text)
                ell0, _, _ = lcf0(lce)
                rows, answers = [], set()  # answers: (length, i1, i2) per solve
                for algo in algos:
                    for rep in range(repeats):
                        t0 = time.perf_counter()
                        try:
                            span, _, _, stats = solve(text, k, algo, lce=lce)
                            ellk, work = span.length, stats.work
                            answers.add((span.length, span.i1, span.i2))
                        except ResourceLimitError:
                            ellk, work = -1, 0
                        dt = (time.perf_counter() - t0) * 1000.0
                        rows.append((n, sigma, k, algo, ell0, ellk, f"{dt:.3f}", work))
                agree = 1 if len(answers) <= 1 else 0
                for row in rows:
                    print(*row, agree if row[5] >= 0 else 0, sep="\t", file=out)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _main_solve(argv) -> int:
    p = _Parser(prog="klcf", description="longest common substring with k mismatches")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")
    p.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET_WORDS)
    p.add_argument("--json", action="store_true")
    p.add_argument("file1")
    p.add_argument("file2")
    args = p.parse_args(argv)
    if args.k < 0:
        p.error("--k must be >= 0")
    if args.mem_budget < 1:
        p.error("--mem-budget must be >= 1")
    cfg = RunConfig(k=args.k, algo=args.algo, input_format=args.format,
                    mem_budget_words=args.mem_budget,
                    output_format="json" if args.json else "text")
    return run(cfg, args.file1, args.file2)


def _main_gen(argv) -> int:
    p = _Parser(prog="klcf gen", description="generate a test instance")
    p.add_argument("--kind", choices=("random", "planted", "similar"),
                   default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--len", type=int, default=0, dest="length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out1", required=True)
    p.add_argument("--out2", required=True)
    args = p.parse_args(argv)
    try:
        text = generate_instance(args.kind, args.n, args.sigma, args.k,
                                 args.length, args.seed)
        _write_sequence(args.out1, text.s1, text.alphabet, text.sigma)
        _write_sequence(args.out2, text.s2, text.alphabet, text.sigma)
    except ValueError as err:
        p.error(str(err))
    return 0


def _main_bench(argv) -> int:
    p = _Parser(prog="klcf bench", description="benchmark algorithms on random instances")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--sigma-list", type=_int_list, required=True)
    p.add_argument("--k-list", type=_int_list, required=True)
    p.add_argument("--algos", default="naive,strided")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    for flag, values, least in (("--n-list", args.n_list, 0),
                                ("--sigma-list", args.sigma_list, 1),
                                ("--k-list", args.k_list, 0),
                                ("--repeats", [args.repeats], 1)):
        if min(values, default=least) < least:
            p.error(f"{flag} values must be >= {least}")
    algos = [a for a in args.algos.split(",") if a]
    for a in algos:
        if a not in ALGORITHMS or a == "auto":
            p.error(f"unknown algorithm {a!r}")
    try:
        bench(args.n_list, args.sigma_list, args.k_list, algos,
              repeats=args.repeats, seed=args.seed)
    except RuntimeError as err:  # a span that failed verification
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "gen":
        return _main_gen(argv[1:])
    if argv and argv[0] == "bench":
        return _main_bench(argv[1:])
    return _main_solve(argv)


if __name__ == "__main__":
    sys.exit(main())
