"""The machine's speed, sampled while a pass runs.

On a small shared host the same pass takes up to about 1.5x longer when
the host is busy, in spells of seconds to minutes, and CPU time slows
with wall time, so neither a longer run nor CPU time steadies a wall
time.  What does: timing a fixed unit of work in the same thread, spread
through the pass, and scaling the pass's time by it (README.md gives the
figures).  Units run before or after the pass, or on another thread,
do not follow the spells and make the spread worse, not better.

A SpeedProbe runs `unit()` from a SIGALRM handler every INTERVAL_S
seconds while its block runs, so in the main thread between two
bytecodes of whatever the block is doing, and once just before and once
just after the block.

    with SpeedProbe() as probe:
        work()
    probe.wall_s     # wall time of the block, less the units run in it
    probe.scaled_s   # wall_s at the reference speed

`scaled_s` is `wall_s * REFERENCE_UNIT_S / mean unit time`: the block's
time had the machine run at the speed where a unit takes
REFERENCE_UNIT_S, the unit's usual time on the machine of README.md.  The mean, not the median, is
used because the block's own slow-down is the time average of the
machine's.  The unit uses only the standard library (Fraction products
into a tuple-keyed dict, the same kind of work as a series product), so
no change to leakyhurwitz moves it; the collector is off while it runs,
so a collection of the library's objects is charged to the block.
"""
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_UNIT_S = 0.0021

_TERMS = tuple(((i, j), Fraction(i + 1, j + 2))
               for i in range(6) for j in range(3))


def unit():
    """About 2 ms of fixed work: the product of two 18-term series."""
    out = {}
    for e1, c1 in _TERMS:
        for e2, c2 in _TERMS:
            e = tuple(map(sum, zip(e1, e2)))
            v = out.get(e)
            out[e] = c1 * c2 if v is None else v + c1 * c2
    return out


def timed_unit():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self.units = []        # every unit's time: before, during, after
        self.wall_s = None
        self._inside_s = 0.0   # time of the units run during the block

    def _sample(self, signum, frame):
        t = timed_unit()
        self.units.append(t)
        self._inside_s += t

    def __enter__(self):
        self.units.append(timed_unit())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = max(end - self._start - self._inside_s, 0.0)
        self.units.append(timed_unit())
        return False

    @property
    def unit_s(self):
        return sum(self.units) / len(self.units)

    @property
    def scaled_s(self):
        return self.wall_s * REFERENCE_UNIT_S / self.unit_s
