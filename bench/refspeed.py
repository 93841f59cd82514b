"""Reference-speed scaling of timings.

The speed of the hosts this benchmark was built on swings by up to a
factor of 1.7 within a second and by a third from run to run, and CPU time
tracks wall time, so the cause is the host, not scheduling. A fixed
pure-Python kernel is therefore timed right before and right after every
timed call, and, for calls longer than PERIOD_S, also during it from a
SIGALRM handler whose own time is subtracted from the call's. The call's
reference time is the harmonic mean of those kernel times, which is the
kernel time at the call's mean speed, and the sample is reported as

    scaled = raw * NOMINAL_REF_S / reference time,

that is, in seconds at the speed the host had when NOMINAL_REF_S was
written down. Hardware instruction counters would be the better yardstick,
but perf_event_open returned ENOENT on the VM this was built on.
"""

from __future__ import annotations

import signal
import time

# Harmonic mean of _sample() on a 2-CPU x86-64 VM under Python 3.11.7; a
# constant, so scaled seconds compare across runs and commits.
NOMINAL_REF_S = 0.0009
PERIOD_S = 0.02
_ROUNDS = 5

_TABLE = {(i, j): i ^ j for i in range(64) for j in range(16)}


def _kernel() -> int:
    # tuple-key probes of a fixed table and inserts into a fresh dict,
    # over small-int arithmetic: what the verdict engine spends its time on
    acc, total = 7, 0
    fresh: dict[tuple[int, int], int] = {}
    for i in range(1000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        total += _TABLE[(acc & 63, i & 15)]
        key = (acc & 1023, i & 15)
        fresh[key] = fresh.get(key, 0) + 1
    return total + len(fresh)


def _sample() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def timed(fn, period: float = PERIOD_S):
    """(result, raw seconds, reference seconds) of fn(). With period 0 the
    kernel runs only before and after the call."""
    samples = [_sample() for _ in range(_ROUNDS)]
    overhead = 0.0

    def tick(signum, frame):
        nonlocal overhead
        t = time.perf_counter()
        samples.append(_sample())
        overhead += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    try:
        if period:
            signal.setitimer(signal.ITIMER_REAL, period, period)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
    finally:
        signal.signal(signal.SIGALRM, previous)
    samples.extend(_sample() for _ in range(_ROUNDS))
    return result, t1 - t0 - overhead, len(samples) / sum(1 / s for s in samples)
