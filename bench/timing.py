"""Drift-robust timing: every sample is normalised by adjacent calibrations.

The speed of the machine this benchmark was tuned on drifts by up to 1.5x
within seconds: over 150 s one strided solve took between 0.32 and 0.72 s.
A fixed calibration workload slows down with it, so a calibration runs
between consecutive timed calls, and each sample is reported as

    elapsed * CAL_REF_S / mean(calibration before, calibration after)

i.e. in seconds of a machine on which the calibration takes CAL_REF_S.
The calibration is a pure-Python loop followed by numpy gathers and scans
over a 16 MB array: the loop alone tracked the interpreter-bound solvers,
the gathers alone the memory-bound ones, and the sum tracked both best.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

CAL_LOOPS = 150_000
CAL_WORDS = 1 << 21
CAL_GATHERS = 1 << 19
# the calibration's median duration on the 2-core Xeon sandbox the benchmark
# was tuned on, so normalised figures read close to its wall-clock seconds
CAL_REF_S = 0.040


class Clock:
    """Times calls; keeps the last calibration to open the next sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 1 << 40, CAL_WORDS)
        self._index = rng.integers(0, CAL_WORDS, CAL_GATHERS)
        self._last = self.calibrate()

    def calibrate(self) -> float:
        """Seconds taken by the fixed calibration workload."""
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(CAL_LOOPS):
            acc += (i * i) % 7
            table[i & 255] = acc
        for _ in range(2):
            gathered = self._words[self._index]
            acc += int(np.cumsum(gathered)[-1] & 1)
            acc += int(self._words[::3].sum() & 1)
        if acc < 0 or len(table) != 256:
            raise RuntimeError("calibration workload miscounted")
        return time.perf_counter() - t0

    def time(self, fn, *args, **kwargs):
        """(result, normalised seconds, raw seconds) of one call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self.calibrate()
        norm = raw * CAL_REF_S / ((self._last + after) / 2)
        self._last = after
        return result, norm, raw


def median(values) -> float:
    return statistics.median(values)


def interquartile_mean(values) -> float:
    """Mean of the samples left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Tracer:
    """Spans kept in memory: name, start, end, parent index, instance."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        index = len(self.spans)
        record = {"name": name, "instance": instance,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0
