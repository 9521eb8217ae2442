"""Traced run: per-layer metrics from spans around calls into klcf.

The `auto` path is replayed as its separate public steps (load_inputs,
build_lce, lcf0, select_algorithm, the chosen solver, verify_match,
format_result), each in a span, and the untraced `klcf.cli` call is timed
next to it.  Then each layer is measured on its own: batched and scalar
LCE queries, every strided pass, the tabulation tables, pack and scan, and
memory peaks under tracemalloc, each on the instances that time that path.
Nothing inside klcf is changed.  Values are totals over those instances,
peaks are maxima; a layer that does not run on the workload reports 0.
Times are normalised like the end-to-end ones (see timing.py).
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import numpy as np

from paths import run_cli, setup, span_tuple
from timing import Clock, Tracer, median

MB = 1 << 20
BATCH_QUERIES = 1 << 16
SCALAR_QUERIES = 2000
QUERY_REPEATS = 5

PER_LAYER = {
    "cli.load_s": "s", "cli.auto_choice.strided": "count",
    "cli.auto_choice.neighborhood": "count", "cli.overhead_s": "s",
    "lce.build_s": "s", "lce.build_peak_mb": "MB", "lce.index_mb": "MB",
    "lce.lcf0_s": "s", "lce.batch_query_ns": "ns", "lce.scalar_query_ns": "ns",
    "strided.solve_s": "s", "strided.cells": "count",
    "strided.passes": "count", "strided.ns_per_cell": "ns",
    "strided.pass_max_s": "s", "strided.pass_peak_mb": "MB",
    "tabulation.lut_build_s": "s", "tabulation.pack_s": "s",
    "tabulation.solve_s": "s", "tabulation.lut_queries": "count",
    "tabulation.word_ops": "count", "tabulation.diagonals": "count",
    "tabulation.ns_per_query": "ns", "tabulation.peak_mb": "MB",
    "neighborhood.solve_s": "s", "neighborhood.keywords": "count",
    "neighborhood.indexes": "count", "neighborhood.probes": "count",
    "neighborhood.us_per_keyword": "us", "neighborhood.peak_mb": "MB",
    "neighborhood.build_index_s": "s",
}


def peak_mb(fn, *args, **kwargs):
    """(result, peak MB allocated during the call, MB still held after)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / MB, (current - before) / MB


class TracedRun:
    def __init__(self, klcf, seed, tally):
        self.klcf = klcf
        self.tally = tally
        self.tr = Tracer()
        self.clock = Clock()
        self.rng = np.random.default_rng([seed, 4])
        self.m = dict.fromkeys(PER_LAYER, 0.0)
        self.untraced_auto_s = 0.0
        self.replayed_auto_s = 0.0

    def timed(self, label, inst, fn, *args, **kwargs):
        """(result, normalised seconds) of one call, in a span."""
        with self.tr.span(label, inst.name if inst else None):
            result, dt, _ = self.clock.time(fn, *args, **kwargs)
        return result, dt

    def luts(self):
        klcf, b = self.klcf, self.klcf.tabulation.DEFAULT_BLOCK_BITS
        self.m["tabulation.lut_build_s"] = self.timed(
            "tabulation.build_l1+build_l2", None,
            lambda: (klcf.build_l1(b), klcf.build_l2(b)))[1]

    def auto(self, inst, files, ref):
        """Replay the CLI's auto path step by step; returns (text, lce)."""
        klcf, cli, m = self.klcf, self.klcf.cli, self.m
        f1, f2 = files
        untraced = self.timed("cli.main", inst, run_cli, klcf, inst.k, f1, f2)[1]
        steps = {}

        def step(label, fn, *args, **kwargs):
            result, steps[label] = self.timed(label, inst, fn, *args, **kwargs)
            return result

        with self.tr.span("cli.auto", inst.name):
            text = step("cli.load_inputs", cli.load_inputs, f1, f2)
            lce = step("lce.build_lce", klcf.build_lce, text)
            ell0 = step("lce.lcf0", klcf.lcf0, lce)[0]
            algo = step("cli.select_algorithm", cli.select_algorithm,
                        cli.RunConfig(k=inst.k), text.n1, text.n2, text.sigma,
                        ell0, inst.k)
            if algo == "neighborhood":
                stats = klcf.neighborhood.NeighborhoodStats()
                span = step("neighborhood.klcf_neighborhood",
                            klcf.klcf_neighborhood, text, lce, inst.k,
                            threads=1, stats=stats)
            else:
                stats = klcf.ScanStats()
                span = step("strided.klcf_strided", klcf.klcf_strided, text,
                            lce, inst.k, stats)
            step("core.verify_match", klcf.verify_match, text, span, inst.k)
            step("cli.format_result", cli.format_result, span, ell0, algo, 0.0)
        self.tally.check(f"traced auto ({algo})", inst, ref, span_tuple(span))
        m["cli.load_s"] += steps["cli.load_inputs"]
        m["lce.build_s"] += steps["lce.build_lce"]
        m["lce.lcf0_s"] += steps["lce.lcf0"]
        m[f"cli.auto_choice.{algo}"] += 1
        m["cli.overhead_s"] += untraced - sum(steps.values())
        self.untraced_auto_s += untraced
        self.replayed_auto_s += sum(steps.values())
        if algo == "neighborhood":
            self.neighborhood(inst, ref, text, lce, ell0, stats,
                              steps["neighborhood.klcf_neighborhood"])
        return text, lce

    def neighborhood(self, inst, ref, text, lce, ell0, stats, solve_s):
        klcf, nb, m = self.klcf, self.klcf.neighborhood, self.m
        m["neighborhood.solve_s"] += solve_s
        m["neighborhood.keywords"] += stats.keywords_generated
        m["neighborhood.indexes"] += stats.indexes_built
        m["neighborhood.probes"] += len(stats.probes)
        m["neighborhood.us_per_keyword"] = (
            1e6 * m["neighborhood.solve_s"] / max(m["neighborhood.keywords"], 1))
        with self.tr.span("neighborhood.klcf_neighborhood.tracemalloc", inst.name):
            span, peak, _ = peak_mb(klcf.klcf_neighborhood, text, lce, inst.k,
                                    threads=1)
        self.tally.check("traced neighborhood", inst, ref, span_tuple(span))
        m["neighborhood.peak_mb"] = max(m["neighborhood.peak_mb"], peak)
        # the first piece of s1 at the last probed length, as the solver cuts it
        j = stats.probes[-1]
        h = nb.default_piece_count(text.n1, text.n2, ell0, inst.k)
        piece = (1, min(-(-text.n1 // h) + j, text.n1))
        m["neighborhood.build_index_s"] += self.timed(
            "neighborhood.build_index", inst, nb.build_index, text, lce, piece,
            j, inst.k)[1]

    def lce(self, inst, text, lce):
        klcf, m = self.klcf, self.m
        with self.tr.span("lce.build_lce.tracemalloc", inst.name):
            _, peak, held = peak_mb(klcf.build_lce, text)
        m["lce.build_peak_mb"] = max(m["lce.build_peak_mb"], peak)
        m["lce.index_mb"] = max(m["lce.index_mb"], held)
        p, q = self._query_pairs(text, BATCH_QUERIES)
        batch = [self.timed("lce.batch_queries", inst,
                            lambda: (lce.lce_forward_batch(p, q),
                                     lce.lce_backward_batch(p, q)))[1]
                 for _ in range(QUERY_REPEATS)]
        m["lce.batch_query_ns"] += 1e9 * median(batch) / (2 * BATCH_QUERIES)
        p, q = self._query_pairs(text, SCALAR_QUERIES)
        pairs = list(zip(p.tolist(), q.tolist()))

        def scalar():
            for a, b in pairs:
                klcf.lce_forward(lce, a, b)
                klcf.lce_backward(lce, a, b)

        calls = [self.timed("lce.scalar_queries", inst, scalar)[1]
                 for _ in range(QUERY_REPEATS)]
        m["lce.scalar_query_ns"] += 1e9 * median(calls) / (2 * SCALAR_QUERIES)

    def _query_pairs(self, text, count):
        """1-based concat positions: p in s1, q in s2."""
        p = self.rng.integers(1, text.n1 + 1, count)
        q = text.n1 + 1 + self.rng.integers(1, text.n2 + 1, count)
        return p.astype(np.int64), q.astype(np.int64)

    def strided(self, inst, ref, text, lce):
        klcf, m = self.klcf, self.m
        stats = klcf.ScanStats()
        span, dt = self.timed("strided.klcf_strided", inst, klcf.klcf_strided,
                              text, lce, inst.k, stats)
        self.tally.check("traced strided", inst, ref, span_tuple(span))
        m["strided.solve_s"] += dt
        m["strided.cells"] += stats.cells_visited
        m["strided.passes"] += stats.passes
        for h in stats.pass_strides:
            dt = self.timed(f"strided.scan_pass.h{h}", inst, klcf.scan_pass,
                            text, lce, inst.k, h)[1]
            m["strided.pass_max_s"] = max(m["strided.pass_max_s"], dt)
            with self.tr.span(f"strided.scan_pass.h{h}.tracemalloc", inst.name):
                _, peak, _ = peak_mb(klcf.scan_pass, text, lce, inst.k, h)
            m["strided.pass_peak_mb"] = max(m["strided.pass_peak_mb"], peak)

    def tabulation(self, inst, ref, text):
        klcf, tab, m = self.klcf, self.klcf.tabulation, self.m
        m["tabulation.pack_s"] += self.timed("tabulation.pack", inst, tab.pack,
                                             text)[1]
        stats = tab.TabulationStats()
        span, dt = self.timed("tabulation.klcf_tabulation", inst,
                              klcf.klcf_tabulation, text, inst.k, stats=stats)
        self.tally.check("traced tabulation", inst, ref, span_tuple(span))
        m["tabulation.solve_s"] += dt
        m["tabulation.lut_queries"] += stats.lut_queries
        m["tabulation.word_ops"] += stats.word_ops
        m["tabulation.diagonals"] += stats.diagonals
        with self.tr.span("tabulation.klcf_tabulation.tracemalloc", inst.name):
            _, peak, _ = peak_mb(klcf.klcf_tabulation, text, inst.k)
        m["tabulation.peak_mb"] = max(m["tabulation.peak_mb"], peak)

    def finish(self):
        m = self.m
        m["strided.ns_per_cell"] = (
            1e9 * m["strided.solve_s"] / max(m["strided.cells"], 1))
        m["tabulation.ns_per_query"] = (
            1e9 * m["tabulation.solve_s"] / max(m["tabulation.lut_queries"], 1))
        for name, unit in PER_LAYER.items():
            if unit == "count":
                m[name] = int(m[name])
        return m


def traced_run(klcf, workload, seed, instances, files, refs, tally, out_dir):
    """Per-layer metrics of one pass over the workload; writes its spans."""
    run = TracedRun(klcf, seed, tally)
    run.luts()
    for inst, fpair, ref in zip(instances, files, refs):
        reps = inst.repeats
        if reps.get("auto"):
            text, lce = run.auto(inst, fpair, ref)
        else:
            with run.tr.span("setup", inst.name):
                text, lce, _ = setup(klcf, *fpair)
        if reps.get("setup"):
            run.lce(inst, text, lce)
        if reps.get("strided"):
            run.strided(inst, ref, text, lce)
        if reps.get("tabulation"):
            run.tabulation(inst, ref, text)
        del text, lce
    # tracing overhead: the auto path replayed step by step in spans
    # against the untraced CLI call, both normalised
    overhead = {"untraced_auto_s": run.untraced_auto_s,
                "replayed_steps_s": run.replayed_auto_s,
                "overhead_s": run.replayed_auto_s - run.untraced_auto_s}
    print(f"tracing overhead: replayed steps {run.replayed_auto_s:.3f} s, "
          f"untraced {run.untraced_auto_s:.3f} s", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "overhead": overhead,
                                      "spans": run.tr.spans}, indent=1))
    return run.finish()
