"""Host-speed probe: the wall time of a fixed pure-Python integer loop.

Kept free of imports beyond ``time`` so a fresh interpreter can time it
before anything else is loaded.
"""

from time import perf_counter

# the probe's wall time on an idle core of the reference machine
# (Python 3.11 on a 2-core x86-64 container)
P_REF = 0.010


def host_probe() -> float:
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    if acc < 0:
        raise AssertionError("unreachable")
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds, timed between two probes, to seconds on
    the reference host."""
    return 2 * P_REF / (before + after)
