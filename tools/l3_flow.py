"""L3 timings of the geometric flow and of the table readers, printed as
one JSON object.

    python3 tools/l3_flow.py

Run it from the root of a checkout: it imports ribbonflow from its src.
Each value is microseconds per call, the best of 5 repeats over the
points of an orbit, each repeat on a surface whose kept tables the first
pass built:
- exact flow (flow_to_next_edge) from the entries of the tripod, gz and
  staircase orbits and of steep directions; a case whose first flow takes
  over 2 s (a steep line walked one rectangle at a time) reads None;
- exact step (iet_step), float step (iet_step_float) and depth-6
  transversal measure (transversal_measure, against the surface's weight)
  on the tripod, gz and staircase orbits.
It uses only names that a checkout from before the one-value walk exports
too, so tools/bench_pairs.py can run it on both sides.
"""

import json
import signal
import sys
import time
from fractions import Fraction

sys.path.insert(0, 'src')

from ribbonflow.dynamics import (FloatState, SurfacePoint,  # noqa: E402
                                 flow_to_next_edge, hpoint, iet_step,
                                 iet_step_float, resolve)
from ribbonflow.eigen import gz_constant, tripod_family  # noqa: E402
from ribbonflow.exact import QuadNum, sqrt_rational  # noqa: E402
from ribbonflow.graphs import IntegersZ, SkewGraph  # noqa: E402
from ribbonflow.measures import transversal_measure  # noqa: E402
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


def best_us(call, args):
    """Microseconds per call over the argument tuples args, the best of 5
    repeats."""
    best = None
    for _ in range(5):
        t = time.perf_counter()
        for a in args:
            call(*a)
        us = (time.perf_counter() - t) / len(args) * 1e6
        best = us if best is None else min(best, us)
    return round(best, 3)


def orbit(s, a, theta, n):
    """The first n points of the orbit of 3/11 on the circle at a."""
    p, points = hpoint(s, a, QuadNum(Fraction(3, 11))), []
    for _ in range(n):
        points.append(p)
        p = iet_step(s, theta, p)
    return points


def flow_us(make, a, theta, n):
    """Microseconds per flow from the entries of n orbit steps, or None
    when the first flow takes over 2 s."""
    s = make()
    entries = []
    for p in orbit(s, a, theta, n):
        e, o = resolve(s, p)
        entries.append((s, theta, SurfacePoint(s.north(e), o, QuadNum(0))))
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        flow_to_next_edge(*entries[0])
    except Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return best_us(flow_to_next_edge, entries)


def step_us(make, a, theta, n):
    """Microseconds per exact step from the points of n orbit steps."""
    s = make()
    return best_us(iet_step, [(s, theta, p) for p in orbit(s, a, theta, n)])


def float_step_us(make, a, theta, n):
    """Microseconds per float step from the exact orbit's points rounded,
    in the rounded direction."""
    s = make()
    theta_f = tuple(map(float, theta))
    states = [(s, theta_f, FloatState(p.a, float(p.t)))
              for p in orbit(s, a, theta, n)]
    for args in states:
        iet_step_float(*args)
    return best_us(iet_step_float, states)


def measure_us(make, a, theta, n):
    """Microseconds per depth-6 transversal measure of [0, o] on the top
    interval of e, for the (e, o) of n orbit points."""
    s = make()
    args = []
    for p in orbit(s, a, theta, n):
        e, o = resolve(s, p)
        args.append((s, s.weight, theta, e, o, 6))
    for measure in args:
        transversal_measure(*measure)
    return best_us(transversal_measure, args)


def main():
    signal.signal(signal.SIGALRM, too_slow)
    out = {'%s us per exact flow' % name: flow_us(*case)
           for name, *case in CASES}
    for name, make, a, theta, _ in CASES[:3]:
        out['%s us per exact step' % name] = step_us(make, a, theta, 200)
        out['%s us per float step' % name] = float_step_us(make, a, theta,
                                                           200)
        out['%s us per depth-6 measure' % name] = measure_us(make, a, theta,
                                                             20)
    print(json.dumps(out))


if __name__ == '__main__':
    main()
