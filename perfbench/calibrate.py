"""Machine-speed calibration: operation times at one reference speed.

The 2-vCPU VM this benchmark was tuned on switches between two speeds
every few seconds, with nothing running in the guest: a fixed slice of
pure-Python work takes about 4.3 ms in the slower state and 2.4 ms in the
faster one, and one fixed set of five structural syntheses took
0.12-0.27 s within two minutes.  A raw wall time therefore says as much
about the host as about the program, and the median of ten runs moved by
20% with the share of a run the host spent in its faster state.

So a *slice* of fixed pure-Python work (dict, frozenset and string
operations, like the program's own) is timed on the same CPU just before
operations, and every operation time is scaled by
``(REFERENCE_SLICE / slice) ** ELASTICITY``, where ``slice`` is the
median of the nearest three slices.  The slice never calls the program: a
change to the program changes the operation times, not the slices.
"""

from __future__ import annotations

import gc
import statistics
import time

#: seconds one slice takes on the reference box (2 vCPUs, Python 3.11) in
#: its slower state; it sets the scale of every reported time
REFERENCE_SLICE = 0.0045

#: how an operation's time follows the slice's: time ~ slice ** ELASTICITY.
#: In the faster state the slice runs about 1.8 times faster but the
#: program's operations only about 1.45 times.  Over runs of 30-60 s of
#: each workload on the reference box, the spread (interquartile range over
#: the median) of the time of 3-pass windows was lowest for exponents
#: 0.5-0.8 on all four workloads: 4.6-8% at 0.65, against 15-36% for raw
#: wall times (exponent 0) and 10-14% for plain proportional scaling (1)
ELASTICITY = 0.65


def _work(rounds: int = 4000) -> int:
    counts: dict[int, int] = {}
    sizes = []
    for i in range(rounds):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
        sizes.append(len(frozenset((key, key + 1, i & 15))) + len(str(key)))
    return sum(sizes)


def slice_seconds() -> float:
    """Wall time of one slice of the fixed work.

    The collector is off during the slice, so that its time does not grow
    with the heap the program under test keeps.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(slices) -> float:
    """The factor that brings times measured beside ``slices`` to the reference speed."""
    return (REFERENCE_SLICE / statistics.median(slices)) ** ELASTICITY


def factors(slices) -> list[float]:
    """Per slice: :func:`scale` of that slice and its neighbours."""
    return [scale(slices[max(0, i - 1) : i + 2]) for i in range(len(slices))]


def calibrated(pairs) -> list[float]:
    """``(slice, seconds)`` pairs, each time taken just after its slice,
    as times at the reference speed."""
    return [
        seconds * factor for (_, seconds), factor in zip(pairs, factors([s for s, _ in pairs]))
    ]


class Calibrator:
    """Times a slice before every ``every``-th operation."""

    def __init__(self, every: int):
        self.every = every
        self.slices: list[float] = []
        self._operations = 0

    def before(self) -> int:
        """Call just before an operation is timed; returns its slice's index."""
        if self._operations % self.every == 0:
            self.slices.append(slice_seconds())
        self._operations += 1
        return len(self.slices) - 1

    def factors(self) -> list[float]:
        """Per slice index: the factor of :func:`factors`."""
        return factors(self.slices)
