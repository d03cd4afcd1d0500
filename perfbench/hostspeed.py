"""Host speed, sampled while the timed work runs.

The shared host this benchmark runs on changes speed by tens of percent,
from second to second and over minutes, for reasons outside the run: a
fixed loop runs up to 1.7 times faster at one moment than at another.
Plain wall times of the same work therefore spread too widely to bound.

While a piece of work is timed, a ``SIGALRM`` interval timer interrupts
it every ``PERIOD_S`` and runs one slice of a fixed reference loop; the
handler runs between bytecodes of the work, in the same thread, so it
meets the host in the state the work is meeting.  A piece's *own* time
is its wall time minus the slices' time.  Its *adjusted* time is its own
time multiplied by the mean of ``NOMINAL_S / slice time``: its own time
on a host where a slice takes ``NOMINAL_S``.  Work shorter than
``PERIOD_S`` gets one slice right after it.

The loop is made of what nactree's hot paths are made of, in about equal
parts: interpreted Python with numpy calls on small arrays (as in the
Kendall-tau merge count), and vectorised pairwise comparisons of a few
hundred points (as in the bootstrap's dominance counts).  It is the
benchmark's own code, so no change to the library moves it, and the
garbage collector is off while it runs, so the objects the work holds do
not change its cost.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

PERIOD_S = 0.1     # one slice every PERIOD_S of the timed work
NOMINAL_S = 0.01   # a slice's time on the nominal host
ITERATIONS = 750   # interpreted-loop iterations per slice
SWEEPS = 10        # pairwise sweeps per slice

_rng = np.random.default_rng(12345)
_VALUES = _rng.random(64)
_X, _Y = _rng.random(400), _rng.random(400)


def _slice() -> int:
    values = _VALUES
    acc = 0
    for i in range(ITERATIONS):
        j = i % 48
        part = np.sort(values[j:j + 16])
        acc += int(np.searchsorted(part, values[j + 8], side="right"))
        acc += int(part.cumsum().argmax()) + len(str(acc))
        acc = (acc * 31 + i) % 1000003
    for _ in range(SWEEPS):
        acc += int(np.sum((_X[None, :] < _X[:, None])
                          & (_Y[None, :] < _Y[:, None])))
    return acc


def factor(samples) -> float:
    """How much faster than the nominal host the slices ran, on average."""
    return sum(NOMINAL_S / s for s in samples) / len(samples)


_spent_s = 0.0  # slice time taken in this process so far


def clock() -> float:
    """``time.perf_counter`` less the slice time taken so far: it stands
    still while a slice runs."""
    return time.perf_counter() - _spent_s


class Sampler:
    """Times one piece of work (``with Sampler() as t: ...``, or
    ``start()``/``stop()``), sampling the host's speed during it.
    After it: ``own_s``, ``samples`` (slice times), ``spent_s`` (slice
    time inside the work) and ``adjusted_s``."""

    def _sample(self, *_):
        global _spent_s
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _slice()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        _spent_s += took
        self.samples.append(took)

    def start(self) -> "Sampler":
        self.samples: list = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        self._c0 = clock()
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # signal.signal first runs a slice still pending, with our handler
        signal.signal(signal.SIGALRM, self._previous)
        wall = time.perf_counter() - self._t0
        self.own_s = clock() - self._c0
        self.spent_s = wall - self.own_s
        if not self.samples:
            self._sample()
        self.adjusted_s = self.own_s * factor(self.samples)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc):
        self.stop()
