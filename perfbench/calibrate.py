"""Machine-speed calibration; nothing here imports ishkit.

On a shared machine the same request can take up to about 1.5x longer
when other tenants load the host, and the slow spells last from seconds
to minutes, so they do not average out within a run.  The worker
therefore times a fixed piece of work of the same kind as ishkit's
(exact rational polynomial products in dict form, frozenset
intersections) right before every request.  ``speed`` turns those
timings into a factor per request: the mean calibration time of the
requests around it, over ``REF_MS``.  A request's reported latency is
its measured time divided by that factor, that is, milliseconds on a
machine where the calibration takes ``REF_MS``.  The benchmark's
set-up times are scaled the same way, by calibrations timed in the
benchmark process right before and after each interpreter start.

The calibration does not depend on the program under test, so a change
to ishkit moves the reported latencies by exactly as much as it moves
the measured ones.  The mean (not the median) is taken because the
slowdown is bursty at millisecond scale: the mean of short samples
follows the average load that a long request sees.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_MS = 1.5  # calibration time on the reference machine (a quiet 2-vCPU x86-64 VM, CPython 3.11)
WINDOW = 5  # calibrations on each side of a request that set its speed factor

_LINEAR = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, 2), (0, 0, 1): Fraction(3, 2), (0, 0, 0): Fraction(2)}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _work() -> int:
    poly = {(0, 0, 0): Fraction(1)}
    for _ in range(5):
        poly = _mul(poly, _LINEAR)
    flats = [frozenset((i % 5, i % 7, (i * 3) % 11)) for i in range(60)]
    meets = {a & b for a in flats[:20] for b in flats[20:40]}
    return len(poly) + len(meets)


def sample() -> float:
    """Milliseconds the calibration work takes now, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def slowdown(cal_ms: list[float]) -> float:
    """How much slower than the reference machine these calibrations ran."""
    return statistics.fmean(cal_ms) / REF_MS


def speed(cal_ms: list[float], window: int = WINDOW) -> list[float]:
    """Slowdown factor per request from the calibration taken before each one."""
    return [slowdown(cal_ms[max(0, i - window) : i + window + 1]) for i in range(len(cal_ms))]
