"""The host-speed reference: a fixed loop the program under test never touches.

The benchmark's host is shared, and its other tenants slow every process on
it by up to 2x in phases of seconds to minutes; the slowdown shows in CPU
time as well as wall time.  `reference_s()` times a fixed loop of the same
kind of work as qalcove's (tuple keys into a dict) right next to each
measurement.  A time multiplied by `QUIET_REFERENCE_S / reference_s()` is in
quiet-host seconds: what the same work takes when the host is quiet.
"""

import time

# fastest reference_s() seen on the host BASELINE.md was measured on
QUIET_REFERENCE_S = 0.0039


def reference_s(rounds: int = 3) -> float:
    """Fastest of `rounds` runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        table = {}
        for i in range(30000):
            table[(i, i % 7)] = i
        best = min(best, time.perf_counter() - t0)
    return best


def quiet_factor(reference: float) -> float:
    """Factor that turns a time measured next to `reference` into quiet-host seconds."""
    return QUIET_REFERENCE_S / reference
