"""Straight-line flow, its return map on the horizontal circles, and
skew rotations.

Points of the section live on the circles of top edges of horizontal
cylinders.  The return map factors as a combinatorial jump S (each top
edge to the next one counterclockwise around its B-vertex) followed by a
rotation R^u of each circle by u times its cylinder height, u = x/y.  A
circle of height w has length lam*w, so R^u turns it by w*r with
r = u mod lam: one residue serves every circle.  An exact step is on
ints: _locate bisects the int lift of the circle's cuts (Section.lift)
and gives the offset t - cut, and _land adds it to base = cut + w*r from
the direction's jump table (Jumps) and reduces by the circle's length;
the one QuadNum it builds is the point it yields.  _land takes
_locate's tuple as it is, _locate reads the kept section, and
Surface.rotation returns its kept table at once for the same direction
tuple.  iet_step is one such step and _legs the one orbit of them,
landing only when the next step is asked for; resolve is _locate's
QuadNum face, and located_orbit hands on the offsets _legs located; the
measure steps on _legs too, and the rectangle walk serves only the
geometric flow.  Exact quadratic arithmetic reproduces orbits bit for
bit; the float mode, for long statistical runs, reads the landings
rounded once and refuses what the exact routes refuse.
The exact skew rotation lifts x and alpha to ints over one denominator
(_skew_lift), so a step (_skew_next) is a floor, two int adds and a
floor.  The orbit's loop _skew_states lifts once and steps lazily;
skew_step is its one-step case, the same lift and step with no
generator.  The float skew orbit (_float_chunks) binds its step once per
chunk: the group operation once per orbit and the chunk's append once
per chunk, so a step is its own float arithmetic.  Every orbit counts its
budget in _budgeted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import itemgetter

from .exact import QuadNum, _floor, _join, _reduced, _sign, _xy, as_quad
from .surface import Jumps, Surface, _theta_parts, _upward

_ZERO = QuadNum(0)


class OrbitEscapedBudget(Exception):
    """The orbit left the allowed expansion of the graph."""

    def __init__(self, steps_done: int, visited: int):
        super().__init__('orbit escaped after %d steps (%d vertices '
                         'expanded)' % (steps_done, visited))
        self.steps_done = steps_done
        self.visited = visited


class SingularHitError(Exception):
    """The orbit landed exactly on an interval endpoint and no branch
    was chosen."""


class HPoint:
    """A point of the horizontal section: circle of the A-vertex a,
    coordinate t in [0, lam * w(a)).

    A slotted class with the equality, hash and repr of a frozen
    dataclass: every exact step builds one, and a dataclass would build
    it through object.__setattr__.
    """

    __slots__ = ('a', 't')

    def __init__(self, a, t: QuadNum):
        self.a = a
        self.t = t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.t) == (other.a, other.t)

    def __hash__(self):
        return hash((self.a, self.t))

    def __repr__(self) -> str:
        return 'HPoint(a=%r, t=%r)' % (self.a, self.t)


@dataclass(frozen=True)
class SurfacePoint:
    """A point inside the rectangle over an edge."""

    edge: object
    x: QuadNum
    y: QuadNum


@dataclass(frozen=True)
class SingularHit:
    """A trajectory that ran into a rectangle corner.

    The two fields give the one-sided continuations: each is the pair
    (edge whose top interval is approached, offset within it).  The
    right offset is 0; the left offset equals the full edge width.
    """

    point: HPoint
    left: tuple
    right: tuple


def hpoint(surface: Surface, a, t) -> HPoint:
    """Wrap a circle coordinate, reducing it modulo the circle length."""
    if surface.graph.vertex_class(a) != 'a':
        raise ValueError('section circles sit at A-vertices')
    return HPoint(a, as_quad(t) % surface.circle_length(a))


def _locate(surface: Surface, a, t):
    """The edge whose top interval on the circle at a holds t, and the
    offset of t in it on ints: (e, oa, ob, oq, d), the offset being
    (oa + ob*sqrt(d))/oq, not reduced.

    The bisection is bisect_right over the circle's int cuts (see
    Section.lift), cut i being (A[i] + B[i]*sqrt(dc))/q.  Over
    L = lcm(q, t's denominator), t = (ta + tb*sqrt(d))/L and k = L/q,
    t < cut i is _sign(ta - A[i]*k, tb - B[i]*k, d) < 0, and the offset
    is the same two differences over L.  t outside [0, cuts[-1]) is
    refused.  The cuts compared are those bisect_right compares, so a
    FieldMixError comes at the first irrational cut of another field,
    naming t's field first, as t < cut does.
    """
    if type(t) is not QuadNum:
        t = as_quad(t)
    sec = surface._sections.get(a)
    if sec is None:
        sec = surface.section(a)
    edges, _, (A, B, q, dc) = sec
    ta, tb, tq, d = t._a, t._b, t._q, t._d
    mixed = d and dc and d != dc
    if not d:
        d = dc
    if tq % q:
        s = q // math.gcd(tq, q)
        ta, tb, tq = ta * s, tb * s, tq * s
    k = tq // q
    lo, hi = 0, len(A)
    while lo < hi:
        mid = (lo + hi) // 2
        if mixed and B[mid]:
            _join(d, dc)
        if _sign(ta - A[mid] * k, tb - B[mid] * k, d) < 0:
            hi = mid
        else:
            lo = mid + 1
    i = lo - 1
    if not 0 <= i < len(edges):
        raise ValueError('coordinate beyond circle length at %r' % (a,))
    # lo = i + 1 came from a comparison with cut i, so a mix there raised
    return edges[i], ta - A[i] * k, tb - B[i] * k, tq, d


def _land(jumps: Jumps, at) -> HPoint:
    """S then R^u from at = (e, oa, ob, oq, od), _locate's tuple, the
    offset (oa + ob*sqrt(od))/oq in [0, width(e)] of e's top interval,
    for the rotation of the table jumps: across the top of e into the
    cylinder above, then round that cylinder's circle by u times its
    height.

    The table's entry holds base = cut + r*w and the circle's length
    over one denominator (see Jumps).  The sum base + o lies in
    [0, 2 * length) when the cuts fill the circle (see Surface.landing),
    so one comparison and at most one subtraction reduce it, on ints;
    other weights take the modulus.  Either way the value is that of
    (cut + o + u*w) % length, and a FieldMixError names the field of
    base + o first, base's before o's, as the sum and its comparison
    against the length do.
    """
    e, oa, ob, oq, od = at
    a2, ba, bb, bd, la, lb, ld, q = jumps[e]
    d = bd
    if ob and od != d:
        d = _join(d, od)
    if q != oq:
        if oq % q:
            g = math.gcd(q, oq)
            s, k = oq // g, q // g
            oa, ob = oa * k, ob * k
        else:
            s = oq // q
        ba, bb, la, lb, q = ba * s, bb * s, la * s, lb * s, q * s
    ta, tb = ba + oa, bb + ob
    if ld and ld != d:
        if tb:
            _join(d, ld)
        d = ld
    if _sign(ta - la, tb - lb, d) >= 0:
        ta, tb = ta - la, tb - lb
        if _sign(ta - la, tb - lb, d) >= 0:
            return HPoint(a2, _reduced(ta, tb, q, d) % _reduced(la, lb, q, d))
    return HPoint(a2, _reduced(ta, tb, q, d))


def resolve(surface: Surface, p: HPoint):
    """The edge whose top interval contains the point, plus the offset
    inside it, _locate's offset as a QuadNum.  Intervals are half
    open on the right, so a point on a cut resolves to offset 0; its left
    continuation is the west neighbor at its full width, as in
    SingularHit.left."""
    e, oa, ob, oq, d = _locate(surface, p.a, p.t)
    return e, _reduced(oa, ob, oq, d)


def from_edge(surface: Surface, e, offset) -> HPoint:
    """The circle point at a given offset inside the top interval of e."""
    a = surface.graph.alpha(e)
    return HPoint(a, surface.section(a).offset(e) + as_quad(offset))


def iet_step(surface: Surface, theta, p: HPoint) -> HPoint:
    """One step of the return map: jump to the next interval around the
    B-vertex, then rotate the target circle by (x/y) times its height."""
    return _land(surface.rotation(theta), _locate(surface, p.a, p.t))


def _around(surface: Surface, e, scalar):
    """The circumference of e's cylinder: the widths round its gluings."""
    total, f = scalar(surface.width(e)), surface.east(e)
    while f != e:
        total, f = total + scalar(surface.width(f)), surface.east(f)
    return total


def walk(surface: Surface, u, e, cx, cy, scalar=as_quad) -> tuple:
    """Follow the line of slope 1/u from (cx, cy) in the rectangle over e
    through side gluings to its first top crossing: (edge, offset in
    [0, width(edge))), a top-right corner giving offset 0 of the east
    neighbor.  East and west keep e's height h, so the walk carries the
    line's x at h, in scalar (as_quad or float): cx + u*(h - cy), less
    w(e) per east gluing, plus w(west(e)) per west one.  Back at e, with
    x0 - x a turn and another one left, x is reduced once modulo the
    circumference (_around): at most two turns, however steep the line.
    """
    x = x0 = cx + u * (scalar(surface.height(e)) - cy)
    start = e
    while x < 0:
        e = surface.west(e)
        x += scalar(surface.width(e))
        if e == start and x < x0 - x:
            x %= _around(surface, e, scalar)
    w = scalar(surface.width(e))
    while x >= w:
        x -= w
        e = surface.east(e)
        if e == start and x >= x0 - x:
            x %= _around(surface, e, scalar)
        w = scalar(surface.width(e))
    return e, x


def flow_to_next_edge(surface: Surface, theta, p: SurfacePoint):
    """Follow the straight line up to its first crossing of a top edge,
    passing through side gluings on the way.

    Returns the crossing as an HPoint, or a SingularHit when the line
    runs exactly into a rectangle corner.
    """
    x, y = _theta_parts(theta)
    # the walk starts where the top of south(p.edge) lands: the return
    # map's check of that hop refuses a rectangle with a side <= 0
    surface.landing(surface.south(p.edge))
    e, x_top = walk(surface, x / y, p.edge, as_quad(p.x), as_quad(p.y))
    point = from_edge(surface, e, x_top)
    if x_top:
        return point
    left = surface.west(e)
    return SingularHit(point, (left, surface.width(left)), (e, _ZERO))


def flow_to_next_edge_float(surface: Surface, theta, edge, x: float,
                            y: float):
    """Float version of the geometric flow; returns (A-vertex, circle
    coordinate).  Corner hits are not detected in float mode."""
    tx, ty = _xy(theta)
    u = float(tx) / float(_upward(ty))
    surface.landing(surface.south(edge))
    e, x_top = walk(surface, u, edge, float(x), float(y), float)
    a = surface.graph.alpha(e)
    return a, float(surface.section(a).offset(e)) + x_top


def _budgeted(states, start, budget, key=itemgetter(1), first=1):
    """An orbit's states, numbered from first; with a budget,
    OrbitEscapedBudget at the first whose key (a skew state's group
    element, a leg's A-vertex) makes more than budget distinct keys,
    start included, naming that state's number."""
    if budget is None:
        return states

    def counted():
        seen = {start}
        for k, state in enumerate(states, first):
            seen.add(key(state))
            if len(seen) > budget:
                raise OrbitEscapedBudget(k, len(seen))
            yield state

    return counted()


def _legs(surface: Surface, jumps: Jumps, p: HPoint, branch):
    """The orbit of p under the return map of the table jumps, one leg
    (located, point) a step, located being _locate's (e, offset ints) for
    the point; on a cut branch 'left' takes the west edge at its full
    width and no branch raises.  Each landing waits for its leg to be
    asked for."""
    for k in count():
        at = _locate(surface, p.a, p.t)
        if not (at[1] or at[2] or branch == 'right'):
            if branch is None:
                raise SingularHitError(
                    'orbit hit an interval endpoint at step %d' % k)
            e = surface.west(at[0])
            w = as_quad(surface.width(e))
            at = e, w._a, w._b, w._q, w._d
        yield at, p
        p = _land(jumps, at)


def _orbit_legs(surface: Surface, theta, p: HPoint, steps: int, branch,
                budget) -> list:
    """The first steps legs of _legs for the rotation theta, under the
    vertex budget, which counts the landings made."""
    if branch not in (None, 'left', 'right'):
        raise ValueError("branch must be None, 'left' or 'right'")
    legs = islice(_legs(surface, surface.rotation(theta), p, branch),
                  max(steps, 0))
    # leg k is the point after k landings
    return list(_budgeted(legs, p.a, budget, lambda leg: leg[1].a, 0))


def code_orbit(surface: Surface, theta, p: HPoint, steps: int,
               branch=None, budget=None):
    """The itinerary of top-edge symbols along an orbit of the return
    map, and its points from p on, steps of each.

    A landing exactly on an interval endpoint is singular: the symbol
    depends on the side, so it raises unless a branch ('left' or
    'right') picks one.  A vertex budget bounds how much of the graph
    the orbit may expand before OrbitEscapedBudget, which counts the
    landings made.
    """
    done = _orbit_legs(surface, theta, p, steps, branch, budget)
    return [at[0] for at, _ in done], [q for _, q in done]


def located_orbit(surface: Surface, theta, p: HPoint, steps: int,
                  branch=None, budget=None) -> list:
    """code_orbit's orbit as (edge, offset, point) triples: each point
    with the edge of its symbol and its offset in that edge's top
    interval, as the step located it, so no point is located twice.  On
    a cut the right branch has offset 0 and the left branch the west
    edge at its full width, as in SingularHit."""
    return [(e, _reduced(oa, ob, oq, d), q) for (e, oa, ob, oq, d), q
            in _orbit_legs(surface, theta, p, steps, branch, budget)]


def _check_skew(n: int, group, generators, x) -> None:
    """The input of a skew orbit, checked once per orbit: n generators,
    each an element of the group, and a circle coordinate in [0, 1)."""
    if not generators or n != len(generators):
        raise ValueError('need at least one generator and n of them, got '
                         'n=%d and %d' % (n, len(generators)))
    if not (0 <= x < 1):
        raise ValueError('circle coordinate must lie in [0, 1)')
    for gen in generators:
        group.check(gen)


def _skew_lift(x: QuadNum, alpha: QuadNum) -> tuple:
    """x and alpha over one denominator q, in the field joined as
    x + alpha joins it, so a FieldMixError names x's field first:
    (a, b, p, r, q, d) for x = (a + b*sqrt(d))/q and
    alpha = (p + r*sqrt(d))/q."""
    d = x._d
    if alpha._d and alpha._d != d:
        d = _join(d, alpha._d)
    q = math.lcm(x._q, alpha._q)
    s, t = q // x._q, q // alpha._q
    return x._a * s, x._b * s, alpha._a * t, alpha._b * t, q, d


def _skew_next(n: int, op, generators, g, a: int, b: int, p: int, r: int,
               q: int, d: int) -> tuple:
    """One skew step on the lift of _skew_lift, for the group operation
    op: (g', a', b') for the group element and circle coordinate after
    (g, (a + b*sqrt(d))/q).

    i = floor(n*x) picks the generator, and 0 <= i < n is the check that
    x lies in [0, 1); x + alpha is two int adds, and one floor times q
    takes its integer part off a, any alpha.  q never changes and x
    stays in [0, 1), so a stays within q of -b*sqrt(d) however large
    alpha's integer part.
    """
    i = _floor(n * a, n * b, q, d)
    if not 0 <= i < n:
        raise ValueError('circle coordinate must lie in [0, 1)')
    a += p
    b += r
    return op(generators[i], g), a - _floor(a, b, q, d) * q, b


def _skew_states(n: int, alpha, group, generators, state, steps: int):
    """The exact skew orbit after the initial state, stepped on ints:
    x and alpha lifted once, on the first step, by _skew_lift, then
    _skew_next a step."""
    x, g, alpha = as_quad(state[0]), state[1], as_quad(alpha)
    if steps < 1:
        return
    a, b, p, r, q, d = _skew_lift(x, alpha)
    op = group.op
    for _ in range(steps):
        g, a, b = _skew_next(n, op, generators, g, a, b, p, r, q, d)
        yield _reduced(a, b, q, d), g


def skew_step(n: int, alpha, group, generators, state):
    """One step of the skew rotation, the exact orbit's one-step case
    without its group check: rotate the circle coordinate, multiply the
    group coordinate by the generator of the point's subinterval."""
    if not (generators and n == len(generators)):
        _check_skew(n, group, generators, state[0])   # raises, naming it
    x = state[0]
    if type(x) is not QuadNum:
        x = as_quad(x)
    if type(alpha) is not QuadNum:
        alpha = as_quad(alpha)
    a, b, p, r, q, d = _skew_lift(x, alpha)
    g, a, b = _skew_next(n, group.op, generators, state[1], a, b, p, r, q,
                         d)
    return _reduced(a, b, q, d), g


def skew_orbit(n: int, alpha, group, generators, state, steps: int,
               budget=None):
    """Exact skew-rotation orbit: the states after the initial one."""
    _check_skew(n, group, generators, state[0])
    states = _skew_states(n, alpha, group, generators, state, steps)
    return list(_budgeted(states, state[1], budget))


# steps a budgeted float orbit runs past an escape at most
_FLOAT_CHUNK = 1024


def _float_chunks(n: int, alpha: float, group, generators, state,
                  steps: int):
    """The float skew orbit in lists of at most _FLOAT_CHUNK states.  The
    group operation is bound once per orbit and each list's append once
    per chunk, so a step does only its own arithmetic."""
    x, g = float(state[0]), state[1]
    # reduced before rounding, as the exact step reduces x + alpha mod 1:
    # a large alpha would lose its fraction
    alpha = float(alpha % 1)
    comp = 0.0
    op, last = group.op, n - 1
    while steps > 0:
        out = []
        append = out.append
        for _ in range(min(_FLOAT_CHUNK, steps)):
            i = int(x * n)
            if i > last:   # an exact start below 1 rounded to 1.0
                i = last
            g = op(generators[i], g)
            add = alpha - comp
            nxt = x + add
            comp = (nxt - x) - add
            x = nxt
            if x >= 1.0:
                x -= 1.0
            append((x, g))
        steps -= len(out)
        yield out


def skew_orbit_float(n: int, alpha: float, group, generators, state,
                     steps: int, budget=None):
    """Float skew orbit with compensated circle summation, for long
    statistical runs; the exact path stays authoritative.  _budgeted counts
    its chunked states, so a budget escape stops it within one chunk."""
    _check_skew(n, group, generators, state[0])
    states = chain.from_iterable(
        _float_chunks(n, alpha, group, generators, state, steps))
    return list(_budgeted(states, state[1], budget))


@dataclass
class FloatState:
    """Float-mode section point with a Kahan compensation term."""

    a: object
    t: float
    comp: float = 0.0


def iet_step_float(surface: Surface, theta, st: FloatState) -> FloatState:
    """Float version of the return map through the rounded landings,
    compensating the accumulated rotation error on each circle coordinate."""
    x, y = _xy(theta)
    u = float(x) / float(_upward(y))
    sec, cuts = surface.section(st.a), surface.float_cuts(st.a)
    if not 0.0 <= st.t <= cuts[-1]:   # NaN fails too
        raise ValueError('coordinate beyond circle length at %r' % (st.a,))
    # rounding can push t onto the circle's end: keep it in the last edge
    i = min(bisect_right(cuts, st.t), len(sec.edges)) - 1
    a2, cut, w, length = surface.float_landing(sec.edges[i])
    base = cut + (st.t - cuts[i])
    add = u * w - st.comp
    t2 = base + add
    comp = (t2 - base) - add
    return FloatState(a2, t2 % length, comp)
