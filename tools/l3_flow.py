"""L3 timings of the geometric flow, printed as one JSON object.

    python3 tools/l3_flow.py

Run it from the root of a checkout: it imports ribbonflow from its src.
Each value is microseconds per exact flow (flow_to_next_edge), the best of
5 repeats over the entries of an orbit: the tripod, gz and staircase
orbits and steep directions.  A case whose first flow takes over 2 s (a
steep line walked one rectangle at a time) reads None.  It uses only
names that a checkout from before the one-value walk exports too, so
tools/bench_pairs.py can run it on both sides.
"""

import json
import signal
import sys
import time
from fractions import Fraction

sys.path.insert(0, 'src')

from ribbonflow.dynamics import (SurfacePoint, flow_to_next_edge,  # noqa: E402
                                 hpoint, iet_step, resolve)
from ribbonflow.eigen import gz_constant, tripod_family  # noqa: E402
from ribbonflow.exact import QuadNum, sqrt_rational  # noqa: E402
from ribbonflow.graphs import IntegersZ, SkewGraph  # noqa: E402
from ribbonflow.surface import Surface  # noqa: E402


class Slow(Exception):
    pass


def too_slow(*_):
    raise Slow


HALF = QuadNum(Fraction(1, 2))
ROOT2 = sqrt_rational(2)


def tripod():
    return Surface.from_family(tripod_family(2))


def gz():
    return Surface.from_family(gz_constant())


def stair():
    return Surface(SkewGraph(IntegersZ(), (1, -1)), lambda v: HALF, 2)


# (name, surface maker, start circle, direction, flows timed)
CASES = [
    ('tripod', tripod, ('c',), (QuadNum(4), sqrt_rational(41) - 5), 200),
    ('gz', gz, 0, (QuadNum(1), ROOT2 - 1), 200),
    ('staircase', stair, ('a', 0), (ROOT2 / 2 - HALF, HALF), 200),
    ('gz steep u=100+sqrt2', gz, 0, (100 + ROOT2, QuadNum(1)), 50),
    ('gz steep u=10^4+sqrt2', gz, 0, (10 ** 4 + ROOT2, QuadNum(1)), 10),
    ('gz steep u=-(10^9+sqrt2)', gz, 0, (-(10 ** 9 + ROOT2), QuadNum(1)),
     50),
    ('tripod steep u=10^9+sqrt2', tripod, ('c',),
     (10 ** 9 + ROOT2, QuadNum(1)), 50),
]


def flow_us(make, a, theta, n):
    """Microseconds per flow from the entries of n orbit steps, or None
    when the first flow takes over 2 s."""
    s = make()
    p, entries = hpoint(s, a, QuadNum(Fraction(3, 11))), []
    for _ in range(n):
        e, o = resolve(s, p)
        entries.append(SurfacePoint(s.north(e), o, QuadNum(0)))
        p = iet_step(s, theta, p)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        flow_to_next_edge(s, theta, entries[0])
    except Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    best = None
    for _ in range(5):
        t = time.perf_counter()
        for entry in entries:
            flow_to_next_edge(s, theta, entry)
        us = (time.perf_counter() - t) / n * 1e6
        best = us if best is None else min(best, us)
    return round(best, 3)


def main():
    signal.signal(signal.SIGALRM, too_slow)
    print(json.dumps({'%s us per exact flow' % name: flow_us(*case)
                      for name, *case in CASES}))


if __name__ == '__main__':
    main()
