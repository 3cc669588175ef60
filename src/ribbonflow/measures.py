"""Invariant transverse measures through vertex functions.

A direction with a shrinking sequence turns sign bookkeeping into
measure theory: a vertex function f encodes a transverse measure
exactly when every renormalized image keeps one sign per bipartition
class.  This module checks that property to finite depth, tracks how
fast the renormalized values decay, evaluates the measures of
horizontal segments by refining the symbolic coding, and exposes the
finite-depth boundary map that conjugates the flows of two weightings
of the same graph.

Renormalized values come from one integer shear pass per call, and no
call keeps anything for the next: it walks the vertices within depth of
the window, lifts f to ints on them once (a plane function x*f by its
parts, with no radical products for a rational f), and each letter adds
its exponent times the neighbour sums to its target class, in place, one
plain loop per target.  Letter n updates only the class vertices within
depth - n, so a one-vertex call costs its ball walk, its lift and that
triangle of updates.  A letter moves one class, so the survivor check
and the decay profiles re-read only that class's window values after it
and carry the other's signs and QuadNums; every value still meets every
quadrant.  Signs and magnitudes are compared on the ints.  The word
action `upsilon_eval` in `graphs` is the adjoint route the tests hold
the pass equal to.

Measures of segments come from chains joining vertices: an initial
piece of a top-edge interval followed by return steps on the one orbit
of `_legs`.  The chain's value against f is a signed count of
core-circle crossings, one floor pair per edge of a step's circle, and
the flow adds nothing transverse, so the absolute value is the measure,
exact at the cut points of the coding refinement.  The measure of
[0, t] reads its refinement cell off the orbit of t: each return step
is one translation on the cell, so t's offset in the interval it lands
in bounds the cell on both sides, and the cell's ends are the tightest
of those bounds.  It then flows at most the two chains of the ends: t
on an end reads that end's value with error 0, any other t the lower
end's value with the gap to the upper end as the error bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .dynamics import _legs, from_edge
from .exact import (FieldMixError, QuadNum, QVec2, _lift_common, _reduced,
                    _sign, _xy, as_quad)
from .graphs import (OracleFun, RibbonGraph, SparseFun, _closed_form,
                     _numbered_ball, pairing)
from .renorm import (TailStatus, critical_times, matched_direction,
                     renormalizes, shrinking_sequence)
from .surface import Surface, _theta_parts

_ZERO = QuadNum(0)


class _PlaneFun(OracleFun):
    """x*f at the A-vertices of graph and y*f at its B-vertices, kept as
    its parts (graph, f, x, y) for `_renormalized`'s int lift."""

    __slots__ = ('graph', 'f', 'x', 'y')

    def __init__(self, graph: RibbonGraph, f, x: QuadNum, y: QuadNum):
        self.graph, self.f, self.x, self.y = graph, f, x, y

    def __call__(self, vertex) -> QuadNum:
        scale = self.x if self.graph.vertex_class(vertex) == 'a' else self.y
        out = scale * self.f(vertex)
        return out if type(out) is QuadNum else as_quad(out)


def plane_point(graph: RibbonGraph, f, v) -> OracleFun:
    """The vertex function x*f on the A side and y*f on the B side,
    multiplied at each call; `_renormalized` on the same graph lifts it by
    its parts when f is an OracleFun (`_lift_plane`)."""
    v = QVec2(*_xy(v))
    return _PlaneFun(graph, f, v.x, v.y)


def _lift_plane(f: _PlaneFun, order, classes) -> tuple:
    """_lift_common(map(f, order)) for a plane function whose f is an
    OracleFun, read as f's closed form lifted once and each class's rows
    times its scale on ints.

    With every irrational part in one field D, the A values are
    (x_a*A + x_b*D*B + (x_a*B + x_b*A)*sqrt(D))/(x_q*q), the B values the
    same with y, and over the lcm of the two denominators one gcd brings
    them to the reduced common denominator the values read one by one
    would have; D stays only if some value is irrational.

    Where this route fails (two fields met, an inexact value, an error of
    f), every vertex is re-read through the plane function's calls, which
    raise what they raised before from the same first bad vertex, or lift
    values whose fields a zero scale kept apart.
    """
    try:
        A, B, q, d = _lift_common(map(_closed_form(f.f), order))
        (xa, ya), (xb, yb), lq, D = _lift_common((f.x, f.y), d)
    except Exception:
        return _lift_common(map(f, order))
    coef = {'a': (xa, xb, xb * D), 'b': (ya, yb, yb * D)}
    cs = [coef[c] for c in classes]
    if d:
        A2 = [s * a + u * b for (s, _, u), a, b in zip(cs, A, B)]
        B2 = [s * b + t * a for (s, t, _), a, b in zip(cs, A, B)]
    else:
        # a rational f has no radical parts to multiply
        A2 = [s * a for (s, _, _), a in zip(cs, A)]
        B2 = [t * a for (_, t, _), a in zip(cs, A)] if D else B
    q *= lq
    if q != 1:
        g = math.gcd(q, *A2, *B2)
        if g != 1:
            q //= g
            A2 = [a // g for a in A2]
            B2 = [b // g for b in B2]
    return A2, B2, q, D if any(B2) else 0


Witness = namedtuple('Witness', 'n vertex sign')


def _renormalized(graph: RibbonGraph, f, data, depth: int, vertices):
    """(q, d, A, B, groups, letters): the word action of g_n on f at the
    vertices for n = 0..depth, in place.  groups[c] holds (k, i) for each
    class-c vertex, k its position and i its index in A and B; each time
    letters yields (n, moved, sx, sy), (A[i] + B[i]*sqrt(d))/q is the
    action of g_n at vertices[k], moved names the classes the n-th letter
    changed ('ab' at n = 0), and (sx, sy) is the n-th quadrant, (0, 0) on
    an axis.

    g_n = w_n ... w_1 acts one increment at a time, as an integral shear:
    h adds its exponent times the neighbour sums at the A-vertices, v at
    the B-vertices, and those sums read only the other class.  The
    vertices within depth of the window are numbered ring by ring, and
    after n shears those within depth - n hold exact values; q never
    changes.  A plane function on this graph whose f is an OracleFun is
    lifted by `_lift_plane`; any other f is read at every vertex.
    """
    if depth >= len(data.signs):
        raise ValueError('shrinking data shorter than requested depth')
    rings, order, index, nbrs = _numbered_ball(graph, vertices, depth)
    classes = list(map(graph.vertex_class, order))
    if (type(f) is _PlaneFun and f.graph is graph
            and type(f.f) is OracleFun):
        A, B, q, d = _lift_plane(f, order, classes)
    else:
        A, B, q, d = _lift_common(map(f, order))
    # gathers[c]: (i, neighbour indices) for each class-c vertex of the
    # inner rings, in order; cuts[c][k]: how many lie in rings 0..k
    gathers, cuts, groups = ({'a': [], 'b': []} for _ in range(3))
    inner = enumerate(zip(classes, nbrs))
    for ring in islice(rings, depth):
        for i, (c, js) in islice(inner, len(ring)):
            gathers[c].append((i, js))
        cuts['a'].append(len(gathers['a']))
        cuts['b'].append(len(gathers['b']))
    for k, v in enumerate(vertices):
        groups[classes[index[v]]].append((k, index[v]))

    def letters():
        moved = 'ab'
        for n in range(depth + 1):
            if n:
                gen, e = data.increments[n - 1]
                moved = 'a' if gen == 'h' else 'b'
                for w, js in islice(gathers[moved], cuts[moved][depth - n]):
                    a = b = 0
                    for j in js:
                        a += A[j]
                        b += B[j]
                    A[w] += e * a
                    B[w] += e * b
            s = data.signs[n]
            yield (n, moved) + ((0, 0) if s is None else s.value)

    return q, d, A, B, groups, letters()


def survivor_check(graph: RibbonGraph, f, data, depth: int, window):
    """Verify the one-sign-per-class property of the renormalized images
    of f over a finite window: for each n up to depth, every window value
    of the word action of g_n on f must vanish or carry the sign the n-th
    quadrant assigns to its bipartition class.  Returns None on a pass,
    else the first violation in (n, window order) as Witness(n, vertex,
    sign).
    """
    window = tuple(window)
    _, d, A, B, groups, letters = _renormalized(graph, f, data, depth,
                                                window)
    signs = {}
    for n, moved, sx, sy in letters:
        for c in moved:
            signs[c] = [_sign(A[i], B[i], d) for _, i in groups[c]]
        bad = [(groups[c][signs[c].index(-s)][0], -s)
               for c, s in (('a', sx), ('b', sy)) if s and -s in signs[c]]
        if bad:
            k, sign = min(bad)
            return Witness(n, window[k], sign)
    return None


@dataclass(frozen=True)
class DecayProfile:
    """Renormalized absolute values at one vertex along the ray."""

    values: tuple
    nonincreasing: tuple
    critical: tuple
    halving_index: object
    survivor_ok: bool


def decay_profiles(graph: RibbonGraph, f, data, depth: int, window
                   ) -> list:
    """Track |word action of g_n on f| for n = 0..depth at each window
    vertex, in window order, from one renormalized pass over the window.

    Each profile flags where its sequence fails to be nonincreasing,
    reports the first critical time whose value has dropped to half the
    start, and marks a sign violation at the vertex as a non-survivor,
    all by signs of ints over the common denominator; a letter builds one
    QuadNum per value it moved.
    """
    window = tuple(window)
    q, d, A, B, groups, letters = _renormalized(graph, f, data, depth,
                                                window)
    times = critical_times(data)
    crit = times[:bisect_right(times, depth)]
    # per window vertex, for each n: (a, b) of |value| and the QuadNum
    mags, values = [[] for _ in window], [[] for _ in window]
    signs, ok = [0] * len(window), [True] * len(window)
    for _, moved, sx, sy in letters:
        for c, s in (('a', sx), ('b', sy)):
            if c in moved:
                for k, i in groups[c]:
                    a, b = A[i], B[i]
                    signs[k] = _sign(a, b, d)
                    mags[k].append((-a, -b) if signs[k] < 0 else (a, b))
                    values[k].append(_reduced(*mags[k][-1], q, d))
                    ok[k] = ok[k] and signs[k] * s >= 0
            else:
                for k, _ in groups[c]:
                    mags[k].append(mags[k][-1])
                    values[k].append(values[k][-1])
                    ok[k] = ok[k] and signs[k] * s >= 0
    profiles = []
    for m, vals, good in zip(mags, values, ok):
        a, b = m[0]
        # a carried magnitude is the same tuple, and did not increase
        flags = tuple(y is x or _sign(x[0] - y[0], x[1] - y[1], d) >= 0
                      for x, y in zip(m, m[1:]))
        halving = next((n for n in crit if _sign(
            a - 2 * m[n][0], b - 2 * m[n][1], d) >= 0), None)
        profiles.append(DecayProfile(tuple(vals), flags, crit, halving, good))
    return profiles


def decay_profile(graph: RibbonGraph, f, vertex, data, depth: int
                  ) -> DecayProfile:
    """The decay profile of one vertex; see decay_profiles."""
    return decay_profiles(graph, f, data, depth, (vertex,))[0]


def _cell(surface: Surface, theta, e, t, depth: int):
    """The ends of the cell of the coding refinement through `depth`
    return steps that holds the offset t, as (offset, step) pairs: the
    step is the first that cut there.

    The descent follows t's orbit on _legs, whose leg 0 is t itself and
    leg k its k-th image.  On the cell each of the first `depth` steps is
    one translation, so when t's k-th image sits at offset o in the top
    interval of e_k the cell lies in [t - o, t - o + width(e_k)), and the
    cell is the intersection of these; each end carries the step that
    moved it there.  Once t is the lower end (o == 0) the descent stops
    and that end is returned twice, as is the full width.
    """
    w = surface.width(e)
    lo, hi = (_ZERO, 0), (w, 0)
    if t == w:
        return hi, hi
    o = t
    if o and depth:
        legs = _legs(surface, surface.rotation(theta),
                     from_edge(surface, e, t), 'right')
        for step, ((e, *at), _) in enumerate(islice(legs, 1, depth + 1), 1):
            o = _reduced(*at)
            q = t - o
            if q > lo[0]:
                lo = (q, step)
            q += surface.width(e)
            if q < hi[0]:
                hi = (q, step)
            if not o:
                break
    return (lo, lo) if not o else (lo, hi)


def _chain_crossings(surface: Surface, theta, e, q, steps: int) -> SparseFun:
    """Signed core-circle crossing counts of the chain running along
    the top interval of e to offset q and then flowing for the given
    number of return steps, on the orbit of q as the descent starts it.

    A step from offset o of e crosses the core of its cylinder,
    (a, cut, h, length) = landing(e), once and that of each bottom edge
    r of a once per pass of r's midpoint in (s, s + u*h] (u > 0) or
    [s + u*h, s) (u < 0), s = cut + o: a floor pair.
    """
    jumps = surface.rotation(theta)
    u = jumps.u
    sgn = u.sign()
    beta = surface.graph.beta
    w = surface.width(e)
    terms = [(beta(e), 1)] if 2 * q >= w and q > 0 else []
    if q == w:
        e, q = surface.east(e), _ZERO
    legs = _legs(surface, jumps, from_edge(surface, e, q), 'right')
    for (e, *at), _ in islice(legs, steps):
        a, cut, h, length = surface.landings[e]
        terms.append((a, -1))
        per = sgn / length
        s = (cut + _reduced(*at)) * per
        t = s + u * h * per
        half = per / 2
        edges, cuts, _ = surface.sections[a]
        for r, c0, c1 in zip(edges, cuts, cuts[1:]):
            m = (c0 + c1) * half
            k = math.floor(t - m) - math.floor(s - m)
            if k:
                terms.append((beta(r), sgn * k))
    return SparseFun(terms)


def _cut_measure(surface: Surface, f, theta, e, q, steps: int) -> QuadNum:
    """Exact measure of [0, q] inside the top interval of e for a cut q
    of the coding refinement first made at the given return step."""
    return abs(pairing(f, _chain_crossings(surface, theta, e, q, steps)))


@dataclass(frozen=True)
class TransMeasure:
    """Measure of an initial segment, with the straddling-cell error."""

    value: QuadNum
    error: QuadNum


def transversal_measure(surface: Surface, f, theta, e, t, depth: int
                        ) -> TransMeasure:
    """Measure of [0, t] inside the top interval of e for the measure
    encoded by f, refined through `depth` return steps.

    A t on a cut of the coding refinement gets an exact value; otherwise
    the value is that of the cut below t and the error the gap to the
    cut above.  Only the cell holding t is refined, and at most two
    chains are flowed.  A negative depth is refused.
    """
    if depth < 0:
        raise ValueError('depth must be >= 0, got %r' % depth)
    t = as_quad(t)
    if not (_ZERO <= t <= surface.width(e)):
        raise ValueError('segment end outside the edge')
    lo, hi = _cell(surface, theta, e, t, depth)
    value = _cut_measure(surface, f, theta, e, *lo)
    if hi == lo:
        return TransMeasure(value, _ZERO)
    return TransMeasure(value, _cut_measure(surface, f, theta, e, *hi) - value)


@dataclass(frozen=True)
class BoundaryImage:
    """Image of a rectangle-side point, exact up to the error field."""

    x: QuadNum
    y: QuadNum
    error: QuadNum


def conjugate_boundary_point(surface1: Surface, surface2: Surface,
                             theta1, theta2, e, side: str, t,
                             depth: int) -> BoundaryImage:
    """Finite-depth boundary conjugacy between the two weightings.

    A point at arc length t along the named side of the rectangle over
    e in the first surface maps to the matching side in the second; the
    coordinate is the measure of the initial segment under the plane
    function of the second direction, rescaled by that direction's
    transverse component.  That component of a vertical second direction
    is 0, so it maps no left or right side.
    """
    if side not in ('bottom', 'top', 'left', 'right'):
        raise ValueError('side must be bottom, top, left or right')
    f = plane_point(surface1.graph, surface2.weight, theta2)
    x2, y2 = _theta_parts(theta2)
    x1, y1 = _theta_parts(theta1)
    if side in ('bottom', 'top'):
        m = transversal_measure(surface1, f, (x1, y1), surface1.south(e), t,
                                depth)
        img = m.value / abs(y2)
        height = surface2.height(e) if side == 'top' else _ZERO
        return BoundaryImage(img, height, m.error / abs(y2))
    if not x2:
        raise ValueError('a vertical second direction maps no %s side'
                         % side)
    flipped = (y1, x1) if x1 > 0 else (-y1, -x1)
    edge = e if side == 'right' else surface1.west(e)
    m = transversal_measure(surface1.mirror, f, flipped, edge, t, depth)
    img = m.value / abs(x2)
    width = surface2.width(e) if side == 'right' else _ZERO
    return BoundaryImage(width, img, m.error / abs(x2))


class NotRenormalizable(Exception):
    """A direction with no periodic tail, or a theta2 with no measure."""


class MatchedPair:
    """Two weightings of one graph, a direction theta1 whose greedy tail is
    periodic within max(depth + 8, 64) letters, and theta2: as given, even
    unmatched (for the survivor check's witness; `plane` refuses a zero
    one), or else derived from that tail.  The rest is built on first use;
    `matched` is whether theta2 is parallel to the derived direction, in
    the same field, decided without deriving it (`renorm.renormalizes`).
    """

    def __init__(self, family1, family2, theta1, theta2=None, depth=0):
        g1, g2 = family1.graph, family2.graph
        if type(g1) is not type(g2) or vars(g1) != vars(g2):
            raise ValueError('%s and %s weight different graphs'
                             % (family1.describe(), family2.describe()))
        self.graph, self.family1, self.family2 = g1, family1, family2
        self.theta1 = theta1
        self.data = shrinking_sequence(family1.lam, theta1,
                                       max_steps=max(depth + 8, 64))
        if self.data.status is not TailStatus.PERIODIC:
            raise NotRenormalizable(
                'direction has no periodic renormalizing tail (%s)'
                % self.data.status.name.lower())
        self.theta2 = self.derived if theta2 is None else theta2

    @cached_property
    def derived(self) -> QVec2:
        return matched_direction(self.data, self.family2.lam)

    @cached_property
    def matched(self) -> bool:
        try:
            return renormalizes(self.data, self.family2.lam, self.theta2)
        except FieldMixError:
            return False

    @cached_property
    def plane(self) -> OracleFun:
        # a zero theta2's plane function is 0, which keeps every sign
        if not any(_xy(self.theta2)):
            raise NotRenormalizable('theta2 is the zero vector, so it gives '
                                    'no measure')
        return plane_point(self.graph, self.family2.weight, self.theta2)

    @cached_property
    def surfaces(self) -> tuple:
        return tuple(map(Surface.from_family, (self.family1, self.family2)))


def maharam_check(graph, chi, f, elements):
    """For a skew graph, f scales across B-fibers by the inverse of the
    character: f(b_g) * chi(g) must be constant.  Returns the first
    violating group element, or None."""
    base = f(('b', graph.group.identity)) * chi(graph.group.identity)
    for g in elements:
        if f(('b', g)) * chi(g) != base:
            return g
    return None
