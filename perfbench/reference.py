"""Host-speed probe: a fixed stdlib-only workload timed during a pass.

The shared host's CPU speed drifts by 10-20% over seconds to tens of
seconds, so raw pass times of the same code on the same inputs differ
from run to run by more than any change worth measuring.  ``run.py``
times a probe at the start and end of a pass, after every job if the
probe is ``BETWEEN_JOBS``, and, in untraced passes, ``PERIOD_S`` after
the last sample; each stretch of timed work between two samples is
divided by their mean, which cancels the drift.

The drift is not the same for all kinds of work, so there are two
probes, and each workload uses the one like its hot loop:

* ``interp``: an interpreted loop of small-integer arithmetic, small
  ``Fraction`` arithmetic, and the engine's kind of box scan, a
  recursive generator of integer vectors whose dot products with 128-bit
  fixed-point targets are reduced mod 1;
* ``bigint``: a chain of ``Fraction`` sums whose denominators grow from
  64 000 to 250 000 bits, the arithmetic of hyperplane enumeration on a
  fine construction box.

Neither imports anything from singvec, so a change to the library never
moves them.
"""
from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 1.0
_SCALE = 1 << 128
_PAIRS = ((3**80, 3**80 + 5), (5**55, 5**55 + 3))


def _box(caps):
    """Integer vectors with |q_j| <= caps[j], from a recursive generator."""
    if not caps:
        yield ()
        return
    for c in range(-caps[0], caps[0] + 1):
        for rest in _box(caps[1:]):
            yield (c, *rest)


def interp_kernel() -> int:
    s = 0
    for i in range(15_000):
        s += i * i % 7
    a, f = Fraction(1, 3), Fraction(0)
    for i in range(1, 120):
        f += a * Fraction(i, i + 7)
        a = a * Fraction(3, 2) if a < 1000 else a / 1000
    # nearest-integer distance of q . x over a box, in 128-bit fixed point
    best = _SCALE
    for q in _box((25, 25)):
        lo = hi = 0
        for c, (x, y) in zip(q, _PAIRS):
            if c >= 0:
                lo, hi = lo + c * x, hi + c * y
            else:
                lo, hi = lo + c * y, hi + c * x
        r = lo % _SCALE
        best = min(best, r if 2 * r <= _SCALE else _SCALE - r, hi - lo)
    return s + f.numerator % 97 + best % 97


def _big_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(60_000) | 1 << 59_999, rng.getrandbits(64_000) | 1 << 63_999)


_RNG = random.Random(2187)
_BIG = (_big_fraction(_RNG), _big_fraction(_RNG))


def bigint_kernel() -> int:
    x, b = _BIG
    for c in (3, -5, 7):
        x = x + c * b
    return x.numerator % 97


KERNELS = {"interp": interp_kernel, "bigint": bigint_kernel}
# Kernel runs per sample, whose median is the sample: about 40 ms (interp)
# and 70 ms (bigint) per sample.
REPEATS = {"interp": 5, "bigint": 1}
# A median of 5 short runs is steady enough to sample after every job;
# one bigint run is noisier than the short jobs of certify-weighted, and
# sampling it after each of them made that workload's spread wider.
BETWEEN_JOBS = {"interp": True, "bigint": False}
# Units: about one kernel run on the 2-core Intel Xeon the benchmark was
# written on, at that shared host's typical speed.  Scaled times read as
# seconds at that speed.
NOMINAL_S = {"interp": 0.008, "bigint": 0.09}


def sample(kind: str = "interp") -> float:
    """Median seconds of ``REPEATS[kind]`` runs of one kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(REPEATS[kind]):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(stretches, samples, nominal: float) -> float:
    """Time at nominal host speed: stretch ``j`` ran between probe
    samples ``j`` and ``j + 1`` and is scaled by ``nominal`` over their
    mean."""
    if len(samples) != len(stretches) + 1:
        raise ValueError("need one probe sample before and after every stretch")
    return sum(
        t * nominal * 2 / (before + after)
        for t, before, after in zip(stretches, samples, samples[1:])
    )


class Clock:
    """Cuts the timed work of one pass into stretches between probe
    samples.  Probe time falls between stretches, never inside one."""

    def __init__(self, kind: str = "interp"):
        self.kind = kind
        self.stretches: list[float] = []
        self.samples = [sample(kind)]
        self._period = None
        self._start = time.perf_counter()

    def cut(self) -> None:
        if self._period is not None:  # no timer cut inside this one
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.stretches.append(time.perf_counter() - self._start)
        self.samples.append(sample(self.kind))
        if self._period is not None:
            signal.setitimer(signal.ITIMER_REAL, self._period)
        self._start = time.perf_counter()

    def job_done(self) -> None:
        if BETWEEN_JOBS[self.kind]:
            self.cut()

    def seconds(self) -> float:
        return sum(self.stretches)

    def scaled(self) -> float:
        return scaled(self.stretches, self.samples, NOMINAL_S[self.kind])

    @contextlib.contextmanager
    def periodic(self, period: float = PERIOD_S):
        """Also cut whenever ``period`` seconds pass without a cut while
        the block runs, from a one-shot SIGALRM timer that each cut stops
        before its sample and re-arms after it, so no cut interrupts
        another."""
        def handler(signum, frame):
            self.cut()

        previous = signal.signal(signal.SIGALRM, handler)
        self._period = period
        signal.setitimer(signal.ITIMER_REAL, period)
        try:
            yield
        finally:
            self._period = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
