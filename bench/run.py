"""Solve benchmark for klcf.

    python3 bench/run.py --workload {random,wide,reads} --seed N \
        --seconds S --trace {0,1}

Generates the workload from the seed, writes its sequences to files under
bench/out/ and hands the program only those files.  Every solve is checked
against bench/reference.py, which does not import klcf.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from bench/trace_run.py) with ``--trace 1``.

One solve runs at a time, in this process, with no worker threads; the
peak-RSS figures come from one fresh process per path (bench/rss_child.py),
each waited for.  See bench/README.md for the method and the figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from paths import import_klcf, run_cli, setup, span_tuple
from reference import mismatch_offsets, reference_solve
from timing import Clock, interquartile_mean
from workloads import READ_LEN, WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
PATHS = ("setup", "auto", "strided", "tabulation")
CHILD_TIMEOUT_S = 150


def write_instances(workload: str, seed: int, instances):
    """Write each instance's two sequences; returns [(file1, file2)]."""
    folder = OUT / f"{workload}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    files = []
    for inst in instances:
        f1, f2 = folder / f"{inst.name}.1.txt", folder / f"{inst.name}.2.txt"
        f1.write_bytes(inst.s1 + b"\n")
        f2.write_bytes(inst.s2 + b"\n")
        files.append((str(f1), str(f2)))
    return files


def reference_checks(instances):
    """Reference optimum per instance, and whether the construction holds."""
    refs, ok = [], True
    for inst in instances:
        ref = reference_solve(inst.s1, inst.s2, inst.k)
        if inst.planted is not None:
            # reads: the planted copy is the unique optimum, so l_k = |read|
            if ref != (READ_LEN, *inst.planted) or len(inst.s2) != READ_LEN:
                print(f"reference property failed on {inst.name}: {ref}",
                      file=sys.stderr)
                ok = False
        refs.append(ref)
    return refs, ok


def is_right(inst, ref, result) -> bool:
    """Length and witness equal the reference, mismatches are exact."""
    length, i1, i2, mism = result
    if (length, i1, i2) != ref:
        return False
    try:
        return mism == mismatch_offsets(inst.s1, inst.s2, i1, i2, length)
    except ValueError:
        return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label, inst, ref, result):
        self.attempted += 1
        if not is_right(inst, ref, result):
            self.failed += 1
            note = f" (known: {inst.known_fault})" if inst.known_fault else ""
            print(f"{label} on {inst.name}: got {result[:3]}, "
                  f"reference {ref}{note}", file=sys.stderr)


def lut_first_call_s(klcf, clock) -> float:
    """Lazy tabulation tables: the first call in a process builds them.

    Counted once per run, in setup_s: it is set-up work that every process
    pays once, and a single sample of it would add its own noise to the
    per-solve tabulation_s.
    """
    text = klcf.Text.from_strings("ab", "ba")
    return clock.time(klcf.klcf_tabulation, text, 1)[1]


def measure(klcf, instances, files, refs, seconds, tally):
    """Whole rounds over every instance until `seconds` have passed.

    A round runs each instance's paths as often as its ``repeats`` say.
    Each end-to-end time is the mean over instances of the interquartile
    mean of that instance's samples.
    """
    clock = Clock()
    lut_s = lut_first_call_s(klcf, clock)
    samples = [{path: [] for path in PATHS} for _ in instances]
    # an instance whose set-up is not timed is set up once, untimed
    ready = {i: setup(klcf, *files[i]) for i, inst in enumerate(instances)
             if not inst.repeats.get("setup")}
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < t_end:
        rounds += 1
        for i, (inst, (f1, f2), ref) in enumerate(zip(instances, files, refs)):
            reps, got = inst.repeats, samples[i]
            for _ in range(reps.get("setup", 0)):
                (text, lce, _), dt, _ = clock.time(setup, klcf, f1, f2)
                got["setup"].append(dt)
            if i in ready:
                text, lce, _ = ready[i]
            for _ in range(reps.get("auto", 0)):
                result, dt, _ = clock.time(run_cli, klcf, inst.k, f1, f2)
                tally.check("auto", inst, ref, result)
                got["auto"].append(dt)
            for _ in range(reps.get("strided", 0)):
                span, dt, _ = clock.time(klcf.klcf_strided, text, lce, inst.k)
                tally.check("strided", inst, ref, span_tuple(span))
                got["strided"].append(dt)
            for _ in range(reps.get("tabulation", 0)):
                span, dt, _ = clock.time(klcf.klcf_tabulation, text, inst.k)
                tally.check("tabulation", inst, ref, span_tuple(span))
                got["tabulation"].append(dt)
            del text, lce
    metrics = {}
    for path in PATHS:
        per_instance = [interquartile_mean(got[path]) for got in samples
                        if got[path]]
        metrics[f"{path}_s"] = float(np.mean(per_instance))
    metrics["setup_s"] += lut_s
    print(f"{rounds} rounds; lazy tabulation tables {lut_s:.4f} s",
          file=sys.stderr)
    for inst, got in zip(instances, samples):
        for path, values in got.items():
            if values:
                print(f"  {inst.name} {path}: "
                      + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)
    return metrics


def peak_rss(instances, files, refs):
    """Peak RSS of a fresh process per path, on the first instance that
    times the path.  A wrong result there makes the run incorrect, unless
    the instance is one that shows a known fault."""
    out, ok = {}, True
    for path in ("auto", "strided", "tabulation"):
        i = next(i for i, inst in enumerate(instances) if inst.repeats.get(path))
        inst, (f1, f2), ref = instances[i], files[i], refs[i]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rss_child.py"), path, str(inst.k),
             f1, f2], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{path} process failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not is_right(inst, ref, tuple(report["result"])):
            print(f"{path} process on {inst.name}: got {report['result'][:3]}",
                  file=sys.stderr)
            ok = ok and bool(inst.known_fault)
        out[f"{path}_rss_mb"] = report["maxrss_mb"]
    return out, ok


END_TO_END = {
    "setup_s": "s", "auto_s": "s", "strided_s": "s", "tabulation_s": "s",
    "auto_rss_mb": "MB", "strided_rss_mb": "MB", "tabulation_rss_mb": "MB",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    klcf = import_klcf()

    instances = WORKLOADS[args.workload](args.seed)
    files = write_instances(args.workload, args.seed, instances)
    refs, correct = reference_checks(instances)
    tally = Tally()
    if args.trace:
        from trace_run import PER_LAYER as units, traced_run
        metrics = traced_run(klcf, args.workload, args.seed, instances, files,
                             refs, tally, OUT)
    else:
        units = END_TO_END
        metrics = measure(klcf, instances, files, refs, args.seconds, tally)
        rss, rss_ok = peak_rss(instances, files, refs)
        metrics.update(rss)
        correct = correct and rss_ok
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
