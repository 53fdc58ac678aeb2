"""Machine-speed probe: rescales measured times to one nominal machine speed.

On a shared VM the speed of the same code drifts by 30-70%, in phases of
seconds to minutes, so raw times of identical runs spread by more than
any useful bound.  While the benchmark runs, a background thread times a
reference slice of fixed work every tenth of a second.  The slice is
written without bellmd and mixes small numpy calls with interpreter work
as the workloads do.  An op's slowdown factor is the slice's time around
the op over its nominal time, and the op's time is divided by it.  A
change to bellmd cannot move the factor.  The thread holds the
interpreter lock for about 1% of the run, which every op shares alike.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# median time of one reference slice on the machine the bounds were set on
# (2 vCPUs at 2.1 GHz, Python 3.11.7, numpy 2.4.6)
NOMINAL_SLICE_S = 0.9e-3
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5
MIN_LOCAL = 3


def reference_slice() -> float:
    """A fixed amount of work; returns its result so it cannot be skipped."""
    a = np.arange(4.0)
    m = np.eye(4, dtype=complex)
    total = 0.0
    for k in range(20):
        b = np.kron(m[:2, :2], m[:2, :2]) @ m
        total += float(np.abs(b).sum()) + float((a * k).sum()) + len(repr({"k": k, "v": [k]}))
    return total


class SpeedProbe:
    """Times the reference slice every ``SAMPLE_EVERY_S`` in a thread, inside a ``with`` block."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("speed probe thread did not stop")

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            start = time.perf_counter()
            reference_slice()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.times.append(end)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown around [start, end]: above 1 means the machine ran slower than nominal.

        It is the median of the samples within ``WINDOW_S`` of the span, or
        1 (the measured time stands) when fewer than ``MIN_LOCAL`` lie there.
        Read it only after the ``with`` block has ended.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_LOCAL:
            return 1.0
        return statistics.median(self.samples[lo:hi]) / NOMINAL_SLICE_S

    def rescale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of (start, duration) spans divided by their slowdown factors."""
        return [d / self.slowdown(t, t + d) for t, d in spans]
