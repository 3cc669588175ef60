"""Machine speed, measured alongside every job.

The CPU this benchmark runs on changes speed by up to 1.6x over tens of
seconds, whatever the benchmark does: a fixed loop sampled once a second
for six minutes on a 2-vCPU virtual machine ranged over 36-96 iterations, and
its 20-second means had an interquartile spread of 0.23.  Raw job times
inherit that drift.  So every job is paired with the time of a fixed
calibration loop (small-Fraction arithmetic, the kind QuadNum does) run
right before it and right after it.  A job's time at the reference speed
is its wall time scaled by REFERENCE_NS over the median of those loop
times.  The longest jobs take under two seconds, well inside the tens of
seconds over which the speed drifts.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

ROUNDS = 30
# The speed at which one loop takes REFERENCE_NS is the reference speed;
# it is close to the median speed of the 2-vCPU virtual machine the
# benchmark was tuned on, so reference times read close to typical wall
# times there.
REFERENCE_NS = 510_000
ENDPOINT_LOOPS = 3


def calibration_loop():
    a, b, one = Fraction(355, 113), Fraction(-22, 7), Fraction(1)
    for _ in range(ROUNDS):
        c = a * b + a - b
        d = c / (a + one)
        if d < a:
            c = d - c
    return c


def loop_ns() -> int:
    t0 = time.perf_counter_ns()
    calibration_loop()
    return time.perf_counter_ns() - t0


def endpoint() -> list:
    """Loop times between jobs, after a full collection so that garbage
    of the job before does not land in them."""
    gc.collect()
    return [loop_ns() for _ in range(ENDPOINT_LOOPS)]


def scale(samples) -> float:
    """Factor taking a wall time to the reference speed; the median keeps
    one preempted loop from moving it."""
    return REFERENCE_NS / statistics.median(samples)
