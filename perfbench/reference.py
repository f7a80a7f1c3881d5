"""A host-speed probe that runs next to the measured work, on the same core.

On a small shared VM the host's speed drifts in phases of seconds to
minutes: a fixed loop runs anywhere from 1.0 to 1.6 times its fastest time,
and a run of a few tens of seconds can sit entirely in a slow phase. The
probe measures that speed while the work runs. An interval timer interrupts
the main thread every ``INTERVAL_S``; the signal handler times one call of a
small fixed kernel (interpreted float arithmetic, tiny 4 x 4 Hermitian
eigensolves and matrix products, one batched eigensolve, string formatting:
the kinds of work the program does) and records when and how long it ran.

An operation's *reference time* is its wall time, minus the probe calls that
ran inside it, scaled by ``NOMINAL_MS`` over the median probe duration while
it ran. On a quiet host it reads about the same as the wall time; in a slow
phase both the work and the probe slow down and the ratio stays put. The
kernel shares no code with the program, so a change to the program never
moves it; its inputs are fixed at import.

The probe runs on the main thread. Around a scan with worker threads it
shares the cores with them and reads slower than around single-threaded
work, but it still follows the host's phases; compare reference times only
between runs of the same workload.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: seconds between probe calls; each call takes about 2% of that
INTERVAL_S = 0.025
#: one probe call's duration, in ms, on a quiet 2-vCPU Xeon VM: the scale of 1 ref_ms
NOMINAL_MS = 0.5
#: fewest probe calls an operation's speed is taken from
MIN_SAMPLES = 9

_RNG = np.random.default_rng(20220902)
_M = _RNG.standard_normal((64, 4, 4)) + 1j * _RNG.standard_normal((64, 4, 4))
_HERM = _M + np.conj(np.transpose(_M, (0, 2, 1)))
_SMALL = [_HERM[i] for i in range(8)]
_TERMS = [float(x) for x in _RNG.uniform(0.5, 2.0, size=128)]


def kernel() -> float:
    """The fixed unit of work whose duration tracks the host's speed."""
    acc = 0.0
    for x in _TERMS:
        acc += x * x / (1.0 + x)
    for a in _SMALL:
        acc += float(np.linalg.eigvalsh(a)[0]) + float(np.trace(a @ a).real)
    acc += float(np.linalg.eigvalsh(_HERM).sum())
    return acc + len(",".join(f"{x!r}" for x in _TERMS[:64]))


class Probe:
    """Probe calls taken on a timer while ``start()`` .. ``stop()`` runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        for _ in range(20):  # warm the kernel's code paths and caches
            kernel()

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer; top up to MIN_SAMPLES calls if the work was too short."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        while len(self.durations) < MIN_SAMPLES:
            self._sample(signal.SIGALRM, None)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of probe calls that began inside [t0, t1)."""
        lo, hi = self._span(t0, t1)
        return sum(self.durations[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Median probe duration (s) over [t0, t1), widened to the MIN_SAMPLES nearest."""
        lo, hi = self._span(t0, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.median(self.durations[lo:hi])

    def reference_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds net of probe calls, the same in reference seconds) for [t0, t1)."""
        net = (t1 - t0) - self.busy(t0, t1)
        return net, net * (NOMINAL_MS * 1e-3) / self.speed(t0, t1)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.durations)
