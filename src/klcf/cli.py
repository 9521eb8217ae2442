"""Command-line tool: solve, generate instances, and benchmark.

Exit codes: 0 success, 2 resource budget exceeded (the message names the
fallback flag), 64 usage error or an unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import (MatchSpan, ResourceLimitError, Text, generate_instance,
                   load_inputs, verify_match)
from .diagonal import klcf_diagonal_scan
from .lce import build_lce, lcf0
from .neighborhood import (DEFAULT_MEM_BUDGET_WORDS, NeighborhoodStats,
                           klcf_neighborhood)
from .strided import ScanStats, klcf_strided
from .tabulation import DEFAULT_BLOCK_BITS, TabulationStats, klcf_tabulation

ALGORITHMS = ("auto", "naive", "neighborhood", "strided", "tabulation")
# the flag that shrinks what each solver's ResourceLimitError refused
_RESOURCE_HINTS = {
    "neighborhood": "raise --mem-budget",
    "tabulation": f"use a smaller --block-bits (default {DEFAULT_BLOCK_BITS})",
}
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class RunConfig:
    k: int = 0
    algo: str = "auto"
    input_format: str = "plain"
    block_bits: int = DEFAULT_BLOCK_BITS
    mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS
    seed: int = 0
    output_format: str = "text"


@dataclass
class BenchRecord:
    n: int
    sigma: int
    k: int
    seed: int
    algo: str
    ell0: int
    ellk: int
    time_ms: float
    work: int
    agree: int

    def tsv_row(self) -> str:
        return "\t".join(str(v) for v in (
            self.n, self.sigma, self.k, self.algo, self.ell0, self.ellk,
            f"{self.time_ms:.3f}", self.work, self.agree))


def select_algorithm(cfg: RunConfig, n1: int, n2: int, sigma: int,
                     ell0: int, k: int) -> str:
    """Resolve algo=auto: strided, on every input.

    Strided already prices its own passes against the block-filtered
    exhaustive scan (ski rental), so it is the cost model.  Neighborhood
    and tabulation stay opt-in through --algo.  Neighborhood ties or beats
    strided on random pairs with sigma 20 and 64, k = 1, n = 1024-8192
    (up to 17x), but nothing prices its C(j, k) joins against strided's
    passes yet.  The arguments are the quantities known after lcf0;
    bench/trace_run.py replays the call with them.
    """
    return "strided"


def _dispatch(cfg: RunConfig, algo: str, text: Text, lce):
    """Run one algorithm; returns (span, work counter)."""
    if algo == "naive":
        return klcf_diagonal_scan(text, cfg.k), text.n1 * text.n2
    if algo == "neighborhood":
        stats = NeighborhoodStats()
        span = klcf_neighborhood(text, lce, cfg.k,
                                 mem_budget_words=cfg.mem_budget_words,
                                 stats=stats)
        return span, stats.keywords_generated
    if algo == "strided":
        stats = ScanStats()
        span = klcf_strided(text, lce, cfg.k, stats=stats)
        return span, stats.cells_visited + stats.scan_cells
    if algo == "tabulation":
        stats = TabulationStats()
        span = klcf_tabulation(text, cfg.k, b=cfg.block_bits, stats=stats)
        return span, stats.lut_queries
    raise ValueError(f"unknown algorithm {algo!r}")


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
    if fmt == "tsv":
        return "\t".join(str(v) for v in payload.values())
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
    lce = build_lce(text)
    ell0, _, _ = lcf0(lce)
    algo = cfg.algo
    if algo == "auto":
        algo = select_algorithm(cfg, text.n1, text.n2, text.sigma, ell0, cfg.k)
    try:
        span, _ = _dispatch(cfg, algo, text, lce)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"hint: rerun with --algo strided, or {_RESOURCE_HINTS[algo]}",
              file=sys.stderr)
        return 2
    time_ms = (time.perf_counter() - t0) * 1000.0
    if not verify_match(text, span, cfg.k):
        print("internal error: reported span failed verification", file=sys.stderr)
        return 1
    print(format_result(span, ell0, algo, time_ms, cfg.output_format), file=out)
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


def bench(n_list, sigma_list, k_list, algos, repeats: int = 1, seed: int = 0,
          cfg: RunConfig | None = None, out=None) -> None:
    """Cross product of instance parameters x algorithms, one TSV row per run."""
    out = out if out is not None else sys.stdout
    cfg = cfg or RunConfig()
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
                run_cfg = RunConfig(k=k, block_bits=cfg.block_bits,
                                    mem_budget_words=cfg.mem_budget_words)
                results = []
                answers = set()  # (length, i1, i2) of every solved run
                for algo in algos:
                    for rep in range(repeats):
                        t0 = time.perf_counter()
                        try:
                            span, work = _dispatch(run_cfg, algo, text, lce)
                            ellk = span.length
                            answers.add((span.length, span.i1, span.i2))
                        except ResourceLimitError:
                            ellk, work = -1, 0
                        dt = (time.perf_counter() - t0) * 1000.0
                        results.append(BenchRecord(n, sigma, k, inst_seed, algo,
                                                   ell0, ellk, dt, work, 1))
                agree = 1 if len(answers) <= 1 else 0
                for record in results:
                    record.agree = agree if record.ellk >= 0 else 0
                    print(record.tsv_row(), file=out)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _solve_parser() -> _Parser:
    p = _Parser(prog="klcf", description="longest common substring with k mismatches")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")
    p.add_argument("--block-bits", type=int, default=DEFAULT_BLOCK_BITS)
    p.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET_WORDS)
    p.add_argument("--json", action="store_true")
    p.add_argument("file1")
    p.add_argument("file2")
    return p


def _main_solve(argv) -> int:
    p = _solve_parser()
    args = p.parse_args(argv)
    if args.k < 0:
        p.error("--k must be >= 0")
    if not 1 <= args.block_bits <= 16:
        p.error("--block-bits must be in [1, 16]")
    if args.mem_budget < 1:
        p.error("--mem-budget must be >= 1")
    cfg = RunConfig(k=args.k, algo=args.algo, input_format=args.format,
                    block_bits=args.block_bits,
                    mem_budget_words=args.mem_budget,
                    output_format="json" if args.json else "text")
    return run(cfg, args.file1, args.file2)


def _main_gen(argv) -> int:
    p = _Parser(prog="klcf gen", description="generate a test instance")
    p.add_argument("--kind", choices=("random", "planted"), default="random")
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
    algos = [a for a in args.algos.split(",") if a]
    for a in algos:
        if a not in ALGORITHMS or a == "auto":
            p.error(f"unknown algorithm {a!r}")
    bench(args.n_list, args.sigma_list, args.k_list, algos,
          repeats=args.repeats, seed=args.seed)
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
