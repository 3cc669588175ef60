"""Return map, geometric flow oracle, skew rotations, coding."""

import math
import operator
import time
from bisect import bisect_right
from dataclasses import make_dataclass
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbonflow import dynamics
from ribbonflow.dynamics import (FloatState, HPoint, OrbitEscapedBudget,
                                 SingularHit, SingularHitError, SurfacePoint,
                                 code_orbit, flow_to_next_edge,
                                 flow_to_next_edge_float, from_edge, hpoint,
                                 iet_step, iet_step_float, resolve,
                                 skew_orbit, skew_orbit_float, skew_step)
from ribbonflow.eigen import (character_eigen, gz_constant, gz_exponential,
                              tripod_family)
from ribbonflow.exact import (FieldMixError, QuadNum, QVec2, as_quad,
                              sqrt_rational)
from ribbonflow.graphs import (Cyclic, FreeGroup, Heisenberg, IntegerLattice,
                               IntegersZ, PathGraph, SkewGraph)
from ribbonflow.surface import Surface

from leg_walk import leg_walk


def staircase():
    g = SkewGraph(IntegersZ(), (1, -1))
    w = QuadNum(Fraction(1, 2))
    return Surface(g, lambda v: w, 2)


def stair_theta(alpha):
    half = QuadNum(Fraction(1, 2))
    return (QuadNum(alpha) - half, half)


ALPHA = sqrt_rational(2) / 2
THETA41 = (QuadNum(4), sqrt_rational(41) - 5)


def test_hpoint_wraps_and_rejects_b_vertices():
    s = staircase()
    p = hpoint(s, ('a', 0), QuadNum(Fraction(9, 4)))
    assert p.t == Fraction(1, 4)
    with pytest.raises(ValueError):
        hpoint(s, ('b', 0), 0)


# the section point as a frozen dataclass, as it was built before it got
# slots: equality, hash and repr must not change
DataclassHPoint = make_dataclass('HPoint', [('a', object), ('t', QuadNum)],
                                 frozen=True)


def test_hpoint_compares_hashes_and_prints_as_the_dataclass():
    values = [(('a', 0), QuadNum(0)), (('a', 0), QuadNum(Fraction(1, 3))),
              (('a', 1), QuadNum(Fraction(1, 3))), (0, ALPHA), (0, QuadNum(0)),
              (('c',), sqrt_rational(41) - 5)]
    for a, t in values:
        p, old = HPoint(a, t), DataclassHPoint(a, t)
        assert (p.a, p.t) == (a, t)
        assert hash(p) == hash(old) == hash((a, t))
        assert repr(p) == repr(old)
        assert p != (a, t) and (a, t) != p
        assert p != old
        for a2, t2 in values:
            assert (p == HPoint(a2, t2)) == (old == DataclassHPoint(a2, t2))
            assert (p != HPoint(a2, t2)) == (old != DataclassHPoint(a2, t2))
    assert repr(HPoint(('a', 0), QuadNum(Fraction(1, 3)))) == \
        "HPoint(a=('a', 0), t=QuadNum('1/3'))"


def test_resolve_roundtrip():
    s = Surface.from_family(gz_exponential(2))
    for e in s.graph.edges_at(0):
        for num in (0, 1, 3):
            o = QuadNum(Fraction(num, 4)) * s.width(e)
            if o >= s.width(e):
                continue
            assert resolve(s, from_edge(s, e, o)) == (e, o)


def test_vertical_direction_is_north_jump():
    s = Surface.from_family(gz_exponential(2))
    p = from_edge(s, 1, QuadNum(Fraction(2, 3)))
    q = iet_step(s, (0, 1), p)
    assert q == from_edge(s, s.north(1), QuadNum(Fraction(2, 3)))


@pytest.mark.parametrize('make,theta,start', [
    (staircase, stair_theta(ALPHA), (('a', 0), Fraction(1, 7))),
    (lambda: Surface.from_family(tripod_family(2)), THETA41,
     (('c',), Fraction(3, 11))),
])
def test_step_matches_geometric_flow(make, theta, start):
    s = make()
    p = hpoint(s, start[0], QuadNum(start[1]))
    for _ in range(300):
        e, o = resolve(s, p)
        entry = SurfacePoint(s.north(e), o, QuadNum(0))
        geo = flow_to_next_edge(s, theta, entry)
        q = iet_step(s, theta, p)
        assert isinstance(geo, HPoint)
        assert geo == q
        p = q


def test_flow_crosses_side_gluings():
    # u = 3 drags the line across several rectangles before it tops out
    s = staircase()
    p = hpoint(s, ('a', 0), QuadNum(Fraction(1, 5)))
    e, o = resolve(s, p)
    geo = flow_to_next_edge(s, (3, 1), SurfacePoint(s.north(e), o, QuadNum(0)))
    assert geo == iet_step(s, (3, 1), p)


def test_corner_hit_reports_both_branches():
    s = Surface.from_family(gz_constant())
    hit = flow_to_next_edge(s, (1, 1), SurfacePoint(0, QuadNum(0), QuadNum(0)))
    assert isinstance(hit, SingularHit)
    le, lo = hit.left
    re, ro = hit.right
    assert re == s.east(le)
    assert lo == s.width(le) and ro == 0
    assert hit.point == from_edge(s, re, 0)


def test_downward_direction_rejected():
    s = staircase()
    with pytest.raises(ValueError):
        iet_step(s, (1, -1), hpoint(s, ('a', 0), 0))
    with pytest.raises(ValueError, match='upward'):
        iet_step(s, QVec2(1, 0), hpoint(s, ('a', 0), 0))


def test_directions_read_as_vectors_or_pairs():
    s = Surface.from_family(tripod_family(2))
    p = hpoint(s, ('c',), QuadNum(Fraction(3, 11)))
    vec = QVec2(*THETA41)
    assert iet_step(s, vec, p) == iet_step(s, THETA41, p)
    e, o = resolve(s, p)
    start = SurfacePoint(s.north(e), o, QuadNum(0))
    assert flow_to_next_edge(s, vec, start) == \
        flow_to_next_edge(s, THETA41, start)
    pair_f = (float(THETA41[0]), float(THETA41[1]))
    st_f = FloatState(p.a, float(p.t))
    assert iet_step_float(s, vec, st_f) == iet_step_float(s, pair_f, st_f)
    assert flow_to_next_edge_float(s, vec, s.north(e), float(o), 0.0) == \
        flow_to_next_edge_float(s, pair_f, s.north(e), float(o), 0.0)


def test_skew_matches_staircase_iet():
    s = staircase()
    gens = s.graph.generators
    group = s.graph.group
    state = (QuadNum(Fraction(1, 7)), 0)
    p = hpoint(s, ('a', 0), state[0])
    theta = stair_theta(ALPHA)
    for _ in range(400):
        state = skew_step(2, ALPHA, group, gens, state)
        p = iet_step(s, theta, p)
        assert p.a == ('a', state[1])
        assert p.t == state[0]


def test_skew_first_interval_and_relation():
    group = Cyclic(3)
    gens = (1, 1, 1)
    third = QuadNum(Fraction(1, 3))
    state = (QuadNum(0), 0)
    state = skew_step(3, third, group, gens, state)
    assert state == (third, 1)
    state = skew_step(3, third, group, gens, state)
    state = skew_step(3, third, group, gens, state)
    assert state == (QuadNum(0), 0)


def test_skew_rejects_bad_input():
    group = IntegersZ()
    with pytest.raises(ValueError):
        skew_step(2, Fraction(1, 3), group, (1, -1), (QuadNum(2), 0))
    with pytest.raises(ValueError):
        skew_step(3, Fraction(1, 3), group, (1, -1), (QuadNum(0), 0))
    with pytest.raises(ValueError, match='at least one generator'):
        skew_step(0, Fraction(1, 3), group, (), (QuadNum(0), 0))
    with pytest.raises(ValueError, match='at least one generator'):
        skew_orbit_float(0, 0.5, group, (), (0.0, 0), 3)


def test_skew_step_checks_the_circle_by_its_index(monkeypatch):
    # a valid call runs no _check_skew: floor(n*x) out of range is the
    # [0, 1) check
    def forbidden(*args):
        raise AssertionError('_check_skew ran')

    monkeypatch.setattr(dynamics, '_check_skew', forbidden)
    for x in (QuadNum(1), -ALPHA):
        with pytest.raises(ValueError, match=r'\[0, 1\)'):
            skew_step(2, ALPHA, IntegersZ(), (1, -1), (x, 0))


def _skew_reference(n, alpha, group, generators, state, steps):
    """The skew orbit stepped one QuadNum at a time as (x + alpha) % 1."""
    x, g = state
    out = []
    for _ in range(steps):
        g = group.op(generators[math.floor(n * x)], g)
        x = (x + alpha) % 1
        out.append((x, g))
    return out


@pytest.mark.parametrize('alpha', [ALPHA, ALPHA + 5, ALPHA - 7, -ALPHA,
                                   ALPHA + 10 ** 6],
                         ids=['alpha', 'plus-5', 'minus-7', 'negated',
                              'plus-10^6'])
def test_skew_orbit_matches_the_modular_reference(alpha):
    args = 2, alpha, IntegersZ(), (1, -1), (QuadNum(Fraction(1, 7)), 0), 3000
    assert skew_orbit(*args) == _skew_reference(*args)


def _skew_loop_reference(n, alpha, group, generators, state, steps):
    """The exact skew loop on QuadNums, as it was before it ran on ints:
    i = floor(n*x), then x + alpha less its floor."""
    x, g, alpha = as_quad(state[0]), state[1], as_quad(alpha)
    out = []
    for _ in range(steps):
        i = math.floor(n * x)
        if not 0 <= i < n:
            raise ValueError('circle coordinate must lie in [0, 1)')
        g = group.op(generators[i], g)
        x = x + alpha
        x = x - math.floor(x)
        out.append((x, g))
    return out


# (group, generators): generator i acts on the subinterval [i/n, (i+1)/n)
SKEW_GROUPS = {
    'Z': (IntegersZ(), (1, -1)),
    'Z2': (IntegerLattice(2), ((1, 0), (0, 1), (-1, 0), (0, -1))),
    'heisenberg': (Heisenberg(), ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                  (0, -1, 0))),
    'free': (FreeGroup(2), ((1,), (2,), (-1,), (-2,))),
}


@st.composite
def skew_runs(draw):
    """A group, a start x in [0, 1) and an alpha of either sign with an
    integer part up to 10^16, each rational or in one field."""
    name = draw(st.sampled_from(sorted(SKEW_GROUPS)))
    d = draw(st.sampled_from([2, 3, 5, 7]))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=40)
    zero = st.just(Fraction(0))
    x = QuadNum(draw(part), draw(part | zero), d) % 1
    alpha = (QuadNum(draw(part), draw(part | zero), d)
             + draw(st.sampled_from([0, 1, -2, 10 ** 16])))
    return name, alpha, x


@given(run=skew_runs())
@example(run=('Z', 10 ** 16 + sqrt_rational(2), QuadNum(Fraction(1, 7))))
@example(run=('heisenberg', QuadNum(Fraction(7, 3), Fraction(1, 5), 5),
              QuadNum(Fraction(3, 11), Fraction(2, 13), 5) % 1))
@example(run=('Z2', QuadNum(Fraction(-5, 9)), QuadNum(Fraction(4, 7))))
@example(run=('free', QuadNum(Fraction(13, 4), 0, 0), sqrt_rational(3) - 1))
@settings(max_examples=60, deadline=None)
def test_skew_orbit_matches_the_quadnum_loop(run):
    name, alpha, x = run
    group, gens = SKEW_GROUPS[name]
    n = len(gens)
    want = _skew_loop_reference(n, alpha, group, gens, (x, group.identity),
                                120)
    assert skew_orbit(n, alpha, group, gens, (x, group.identity), 120) == want
    state = (x, group.identity)
    for expected in want[:40]:
        state = skew_step(n, alpha, group, gens, state)
        assert state == expected
        # equal QuadNums have equal components: the same bits print
        assert str(state[0]) == str(expected[0])


def test_skew_orbit_mixing_fields_names_x_first():
    x, alpha = sqrt_rational(2) - 1, sqrt_rational(3)
    args = 2, alpha, IntegersZ(), (1, -1), (x, 0)
    assert skew_orbit(*args, 0) == []
    with pytest.raises(FieldMixError) as want:
        _skew_loop_reference(*args, 1)
    for steps in (1, 5):
        with pytest.raises(FieldMixError) as got:
            skew_orbit(*args, steps)
        assert str(got.value) == str(want.value)
    with pytest.raises(FieldMixError) as got:
        skew_step(*args)
    assert str(got.value) == str(want.value) == \
        'cannot combine sqrt(2) with sqrt(3)'


@pytest.mark.parametrize('n, generators, x, message', [
    (3, (1, -1), 0.9, 'n=3 and 2'),
    (2, (1, -1), 1.7, r'\[0, 1\)'),
    (2, (1, 0.5), 0.2, 'not an element'),
], ids=['count', 'start', 'element'])
def test_skew_orbits_check_their_input(n, generators, x, message):
    # the float orbit used to raise IndexError on the count and to return
    # points outside [0, 1) from the start
    group = IntegersZ()
    with pytest.raises(ValueError, match=message):
        skew_orbit_float(n, 0.3, group, generators, (x, 0), 3)
    with pytest.raises(ValueError, match=message):
        skew_orbit(n, Fraction(3, 10), group, generators, (Fraction(x), 0),
                   3)


def test_code_orbit_rational_slope_periodic():
    s = staircase()
    syms, _ = code_orbit(s, (1, 2), hpoint(s, ('a', 0),
                                           QuadNum(Fraction(1, 7))), 24)
    assert syms[:20] == syms[4:]
    assert len(set(syms)) == 4


def test_code_orbit_distinct_points_distinct_codes():
    s = staircase()
    theta = stair_theta(ALPHA)
    a = code_orbit(s, theta, hpoint(s, ('a', 0), QuadNum(Fraction(1, 7))),
                   500)[0]
    b = code_orbit(s, theta, hpoint(s, ('a', 0), QuadNum(Fraction(2, 7))),
                   500)[0]
    assert a != b


def test_code_orbit_singular_needs_branch():
    s = staircase()
    start = hpoint(s, ('a', 0), 0)
    with pytest.raises(SingularHitError):
        code_orbit(s, (0, 1), start, 3)
    right, _ = code_orbit(s, (0, 1), start, 3, branch='right')
    left, _ = code_orbit(s, (0, 1), start, 3, branch='left')
    assert right[0] != left[0]
    # the two one-sided codes stay edge-for-edge distinct under a
    # vertical flow that keeps hitting corners
    assert all(r != l for r, l in zip(right, left))


@pytest.mark.parametrize('make,a,theta', [
    (staircase, ('a', 0), stair_theta(ALPHA)),
    (lambda: Surface.from_family(tripod_family(2)), ('c',), THETA41),
])
def test_cut_points_and_their_left_branch(make, a, theta):
    s = make()
    sec = s.section(a)
    assert sec.cuts[0] == 0 and sec.cuts[-1] == s.circle_length(a)
    for e, cut in zip(sec.edges, sec.cuts):
        p = HPoint(a, cut)
        assert resolve(s, p) == (e, 0)
        # a vertical line up the left side of e runs into the same corner
        hit = flow_to_next_edge(s, (0, 1), SurfacePoint(e, QuadNum(0),
                                                         QuadNum(0)))
        assert hit.point == p
        assert hit.left == (s.west(e), s.width(s.west(e)))
        syms, pts = code_orbit(s, theta, p, 2, branch='left')
        le, lo = hit.left
        assert syms[0] == le
        # the left image is where the geometric flow from the right end
        # of le's top interval lands
        assert pts[1] == flow_to_next_edge(
            s, theta, SurfacePoint(s.north(le), lo, QuadNum(0)))
        right, _ = code_orbit(s, theta, p, 1, branch='right')
        assert right == [e]
    p = hpoint(s, a, QuadNum(Fraction(3, 11)))
    _, pts = code_orbit(s, theta, p, 50)
    for q in pts:
        assert q == p
        p = iet_step(s, theta, p)


@pytest.mark.parametrize('make, a, t, theta', [
    (lambda: Surface.from_family(gz_constant()), 0, Fraction(1, 2), (1, 2)),
    (staircase, ('a', 0), 0, (0, 1)),
    (lambda: Surface.from_family(tripod_family(2)), ('c',), 0, THETA41),
])
@pytest.mark.parametrize('branch', ['left', 'right'])
def test_located_orbit_is_code_orbit_with_its_offsets(make, a, t, theta,
                                                      branch):
    # each offset is the one resolve finds again for the point, but on a
    # cut the left branch's, the west edge at its full width
    s = make()
    p = hpoint(s, a, t)
    syms, pts = code_orbit(s, theta, p, 30, branch=branch)
    located = dynamics.located_orbit(s, theta, p, 30, branch=branch)
    assert [(e, q) for e, _, q in located] == list(zip(syms, pts))
    cuts = 0
    for e, o, q in located:
        right, ro = resolve(s, q)
        cuts += not ro
        assert o == (ro if e == right else s.width(e))
    assert cuts


def test_code_orbit_budget_escape():
    s = staircase()
    theta = stair_theta(ALPHA)
    with pytest.raises(OrbitEscapedBudget) as info:
        code_orbit(s, theta, hpoint(s, ('a', 0), QuadNum(Fraction(1, 7))),
                   10000, budget=4)
    # the 13th landing reaches a fifth A-vertex, the start's included
    assert (info.value.steps_done, info.value.visited) == (13, 5)


def test_code_orbit_budget_counts_the_landings_made():
    # a 1-step orbit is its start alone, on circle 0; it used to make one
    # more landing, off that circle, and escape a budget of 1 with it
    s = Surface.from_family(gz_constant())
    theta = (QuadNum(1), sqrt_rational(2) - 1)
    e0 = s.graph.base_edge(s.graph.root())
    p = from_edge(s, e0, s.width(e0) / 2)
    assert code_orbit(s, theta, p, 1, budget=1) == ([e0], [p])
    with pytest.raises(OrbitEscapedBudget) as info:
        code_orbit(s, theta, p, 2, budget=1)
    assert (info.value.steps_done, info.value.visited) == (1, 2)
    assert code_orbit(s, theta, p, 0, budget=1) == ([], [])
    assert code_orbit(s, theta, p, -3) == ([], [])


def test_skew_orbit_budget_escape():
    with pytest.raises(OrbitEscapedBudget) as info:
        skew_orbit(2, ALPHA, IntegersZ(), (1, -1), (QuadNum(0), 0), 10000,
                   budget=4)
    assert (info.value.steps_done, info.value.visited) == (21, 5)


@pytest.mark.parametrize('fam', [gz_exponential(2), tripod_family(2)])
def test_step_images_tile_target_circles(fam):
    # images of the top-edge intervals partition each target circle:
    # the return map is a piecewise isometry
    s = Surface.from_family(fam)
    u = THETA41[0] / THETA41[1] if fam.name != 'gz_exponential' else QuadNum(3)
    targets = [s.graph.alpha(e) for e in s.graph.edges_at(fam.root)]
    for a2 in targets:
        length = s.circle_length(a2)
        arcs = []
        for e2 in s.graph.edges_at(a2):
            e = s.south(e2)
            img = iet_step(s, (u, 1), from_edge(s, e, 0))
            assert img.a == a2
            arcs.append((img.t, s.width(e2)))
        arcs.sort()
        total = QuadNum(0)
        for i, (start, w) in enumerate(arcs):
            total = total + w
            nxt = arcs[(i + 1) % len(arcs)][0]
            gap = (nxt - start - w) % length
            assert gap == 0
        assert total == length


def test_float_orbit_tracks_exact_staircase():
    s = staircase()
    theta = stair_theta(ALPHA)
    theta_f = (float(theta[0]), float(theta[1]))
    p = hpoint(s, ('a', 0), QuadNum(Fraction(1, 7)))
    st_f = FloatState(p.a, float(p.t))
    for _ in range(2000):
        p = iet_step(s, theta, p)
        st_f = iet_step_float(s, theta_f, st_f)
        assert st_f.a == p.a
        d = abs(st_f.t - float(p.t))
        assert min(d, 1.0 - d) < 1e-9


def test_float_flow_matches_float_step():
    s = Surface.from_family(tripod_family(2))
    theta = THETA41
    theta_f = (float(theta[0]), float(theta[1]))
    p = hpoint(s, ('c',), QuadNum(Fraction(3, 11)))
    for _ in range(200):
        e, o = resolve(s, p)
        a_f, t_f = flow_to_next_edge_float(s, theta_f, s.north(e), float(o),
                                           0.0)
        q_f = iet_step_float(s, theta_f, FloatState(p.a, float(p.t)))
        assert a_f == q_f.a
        length = float(s.circle_length(a_f))
        d = abs(t_f - q_f.t)
        assert min(d, length - d) < 1e-9
        p = iet_step(s, theta, p)


def _float_step_reference(surface, theta, st):
    """The float step as it read the surface per step before it landed
    through Surface.landing: north, alpha, the target's float cut, its
    weight and its circle length."""
    u = float(theta[0]) / float(theta[1])
    sec, cuts = surface.section(st.a), surface.float_cuts(st.a)
    i = min(bisect_right(cuts, st.t), len(sec.edges)) - 1
    e2 = surface.north(sec.edges[i])
    a2 = surface.graph.alpha(e2)
    base = (surface.float_cuts(a2)[surface.section(a2).edges.index(e2)]
            + (st.t - cuts[i]))
    add = u * float(surface.weight(a2)) - st.comp
    t2 = base + add
    comp = (t2 - base) - add
    return FloatState(a2, t2 % float(surface.circle_length(a2)), comp)


def _float_flow_reference(surface, theta, edge, x, y):
    """The float flow's landing as the float cut of the top edge plus
    the offset there, from the last leg of the leg walk."""
    u = float(theta[0]) / float(theta[1])
    e, _, _, _, x_top, _ = leg_walk(surface, u, edge, x, y, float)[-1]
    a = surface.graph.alpha(e)
    return a, surface.float_cuts(a)[surface.section(a).edges.index(e)] + x_top


def heisenberg_character():
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return Surface.from_family(character_eigen(Heisenberg(), gens, (2, 1)))


# (surface maker, circle, float direction): the tripod direction is the
# benchmark's, and u = x/y takes both signs
FLOAT_ORACLE = {
    'tripod': (lambda: Surface.from_family(tripod_family(2)), ('c',),
               (4.0, float(THETA41[1]))),
    'gz_constant': (lambda: Surface.from_family(gz_constant()), 0,
                    (1.0, float(sqrt_rational(2) - 1))),
    'staircase': (staircase, ('a', 0),
                  tuple(map(float, stair_theta(ALPHA)))),
    'heisenberg': (heisenberg_character, ('a', (0, 0, 0)),
                   (-3.0, float(sqrt_rational(5)))),
}


@pytest.mark.parametrize('name', sorted(FLOAT_ORACLE))
def test_float_twins_match_the_per_step_formula(name):
    make, a, theta = FLOAT_ORACLE[name]
    s, ref = make(), make()
    u = theta[0] / theta[1]
    length = float(s.circle_length(a))
    # the last start sits on the circle's float end: the clamped bisection
    # keeps it in the last edge
    assert s.float_cuts(a)[-1] == length
    for t in [length * k / 7 for k in range(7)] + [length]:
        st_f = st_r = FloatState(a, t)
        for _ in range(150):
            cuts = s.float_cuts(st_f.a)
            i = min(bisect_right(cuts, st_f.t), len(cuts) - 1) - 1
            e = s.section(st_f.a).edges[i]
            args = (s.north(e), st_f.t - cuts[i], 0.0)
            got = flow_to_next_edge_float(s, theta, *args)
            want = _float_flow_reference(ref, theta, *args)
            # the walk rounds once per rectangle at the scale of the x it
            # starts from, the legs once per leg at the scale of each leg,
            # so the landings agree to a few ulps of the larger
            x0 = args[1] + u * (float(s.height(args[0])) - args[2])
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) <= 4 * math.ulp(
                max(abs(got[1]), abs(want[1]), abs(x0)))
            st_f = iet_step_float(s, theta, st_f)
            st_r = _float_step_reference(ref, theta, st_r)
            assert st_f.a == st_r.a
            assert st_f.t.hex() == st_r.t.hex()
            assert st_f.comp.hex() == st_r.comp.hex()


ROOT70 = sqrt_rational(70)

# (surface maker, start circle, start coordinate, direction): c06's orbits,
# u of both signs and u = 0, and an orbit of gz_constant through cuts
WALK_ORACLE = {
    'staircase': (staircase, ('a', 0), Fraction(1, 7), stair_theta(ALPHA)),
    'tripod': (lambda: Surface.from_family(tripod_family(2)), ('c',),
               Fraction(3, 11), THETA41),
    'gz': (lambda: Surface.from_family(gz_constant()), 0, Fraction(1, 3),
           (QuadNum(1), sqrt_rational(2) - 1)),
    'gz_leftward': (lambda: Surface.from_family(gz_constant()), 0,
                    Fraction(1, 3), (QuadNum(-1), sqrt_rational(2) - 1)),
    'gz_vertical': (lambda: Surface.from_family(gz_constant()), 0,
                    Fraction(1, 3), (QuadNum(0), QuadNum(1))),
    'gz_cuts': (lambda: Surface.from_family(gz_constant()), 0, Fraction(0),
                (QuadNum(1), QuadNum(2))),
    'heisenberg': (heisenberg_character, ('a', (0, 0, 0)), Fraction(1, 3),
                   (QuadNum(3), ROOT70 / 4)),
    'heisenberg_leftward': (heisenberg_character, ('a', (0, 0, 0)),
                            Fraction(1, 3), (QuadNum(-3), ROOT70 / 4)),
    'heisenberg_vertical': (heisenberg_character, ('a', (0, 0, 0)),
                            Fraction(1, 3), (QuadNum(0), QuadNum(1))),
}


def _walk_starts(name, steps=40):
    """The surface, u and the walk's starts: the bottom of the rectangle
    above each point of the orbit, and a grid of points inside it."""
    make, a, t, theta = WALK_ORACLE[name]
    s = make()
    u = theta[0] / theta[1]
    p, starts = hpoint(s, a, QuadNum(t)), []
    for k in range(steps):
        e, o = resolve(s, p)
        e = s.north(e)
        starts.append((e, o, QuadNum(0)))
        if k % 8 == 0:
            w, h = s.width(e), s.height(e)
            starts += [(e, w * Fraction(i, 4), h * Fraction(j, 4))
                       for i in range(5) for j in range(4)]
        p = iet_step(s, theta, p)
    return s, u, starts


@pytest.mark.parametrize('name', sorted(WALK_ORACLE))
def test_walk_crosses_the_top_where_the_last_leg_ends(name):
    # the one value the walk carries lands where the leg walk's last leg
    # ends, exactly, and within 1e-9 in float
    s, u, starts = _walk_starts(name)
    on_cut = 0
    for e, x, y in starts:
        legs = leg_walk(s, u, e, x, y)
        got = dynamics.walk(s, u, e, x, y)
        assert got == (legs[-1][0], legs[-1][4]), (e, x, y)
        on_cut += not got[1]
        e_f, x_f = dynamics.walk(s, float(u), e, float(x), float(y), float)
        legs_f = leg_walk(s, float(u), e, float(x), float(y), float)
        assert e_f == legs_f[-1][0] == got[0]
        w = max(1.0, float(s.width(e_f)))
        assert abs(x_f - legs_f[-1][4]) < 1e-9 * w
        assert abs(x_f - float(got[1])) < 1e-9 * w
    if name == 'gz_cuts':
        assert on_cut


def test_walk_reads_neither_section_nor_rotation(monkeypatch):
    # the walk is the geometric half of c06: it reads gluings and widths,
    # never the cut circles or the jump table of the interval route
    s, u, starts = _walk_starts('tripod')
    want = [dynamics.walk(s, u, *start) for start in starts]

    def refused(*args):
        raise AssertionError('the walk read the interval route')

    fresh = Surface.from_family(tripod_family(2))
    monkeypatch.setattr(Surface, 'section', refused)
    monkeypatch.setattr(Surface, 'rotation', refused)
    assert [dynamics.walk(fresh, u, *start) for start in starts] == want
    assert [dynamics.walk(fresh, float(u), e, float(x), float(y), float)[0]
            for e, x, y in starts] == [e for e, _ in want]


@pytest.mark.parametrize('power', [9, 17])
@pytest.mark.parametrize('sign', [1, -1], ids=['rightward', 'leftward'])
@pytest.mark.parametrize('make,a', [
    (lambda: Surface.from_family(gz_constant()), 0),
    (lambda: Surface.from_family(tripod_family(2)), ('c',)),
], ids=['gz_constant', 'tripod2'])
def test_steep_flow_takes_at_most_two_turns(make, a, sign, power):
    # u = 10**power + sqrt(2) winds the line round its cylinder about u
    # times; the walk reduces it modulo the circumference once, where a
    # walk over every rectangle crossed would take about u legs.  The
    # float flow from the same start lands on the same circle, within a
    # few ulps of the x it starts from, the scale at which it rounds; at
    # 10**17 every width is below half an ulp of that x, so a float turn
    # leaves x as it was and only the summed circumference reduces it
    s = make()
    theta = (sign * (10 ** power + sqrt_rational(2)), QuadNum(1))
    u = float(theta[0])
    p = hpoint(s, a, QuadNum(Fraction(1, 3)))
    started = time.perf_counter()
    for _ in range(50):
        e, o = resolve(s, p)
        n = s.north(e)
        geo = flow_to_next_edge(s, theta, SurfacePoint(n, o, QuadNum(0)))
        q = iet_step(s, theta, p)
        if isinstance(geo, SingularHit):
            assert geo.point == q and resolve(s, q)[1] == 0
        else:
            assert geo == q
        a_f, t_f = flow_to_next_edge_float(s, (u, 1.0), n, float(o), 0.0)
        assert a_f == q.a
        assert abs(t_f - float(q.t)) <= 4 * math.ulp(
            float(o) + u * float(s.height(n)))
        p = q
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize('theta', [(1.0, -1.0), (1.0, 0.0)])
def test_float_twins_refuse_a_direction_that_is_not_upward(theta):
    s = Surface.from_family(tripod_family(2))
    e = s.section(('c',)).edges[0]
    with pytest.raises(ValueError) as step:
        iet_step_float(s, theta, FloatState(('c',), 0.3))
    with pytest.raises(ValueError) as flow:
        flow_to_next_edge_float(s, theta, s.north(e), 0.1, 0.0)
    with pytest.raises(ValueError) as exact:
        iet_step(s, (1, -1), hpoint(s, ('c',), 0))
    assert str(step.value) == str(flow.value) == str(exact.value)
    assert str(exact.value) == 'direction must point upward'


@pytest.mark.parametrize('t', [-0.5, 1e9, math.nan])
def test_float_step_refuses_a_coordinate_off_the_circle(t):
    # the exact step refuses these, so its float twin must too
    s = Surface.from_family(tripod_family(2))
    with pytest.raises(ValueError) as flt:
        iet_step_float(s, (4.0, float(THETA41[1])), FloatState(('c',), t))
    if not math.isnan(t):
        with pytest.raises(ValueError) as exact:
            iet_step(s, THETA41, HPoint(('c',), QuadNum(Fraction(t))))
        assert str(flt.value) == str(exact.value)
    assert str(flt.value) == "coordinate beyond circle length at ('c',)"


def test_float_step_refuses_sides_that_are_not_positive():
    def path():
        return Surface(PathGraph(),
                       lambda v: QuadNum(-1) if v == 2 else QuadNum(1), 2)

    with pytest.raises(ValueError) as flt:
        iet_step_float(path(), (1.0, 3.0), FloatState(0, 1.5))
    s = path()
    with pytest.raises(ValueError) as exact:
        iet_step(s, (1, 3), hpoint(s, 0, Fraction(3, 2)))
    assert str(flt.value) == str(exact.value)
    assert 'positive' in str(exact.value)


def test_skew_orbit_float_tracks_exact():
    exact = skew_orbit(2, ALPHA, IntegersZ(), (1, -1),
                       (QuadNum(Fraction(1, 7)), 0), 2000)
    approx = skew_orbit_float(2, float(ALPHA), IntegersZ(), (1, -1),
                              (float(Fraction(1, 7)), 0), 2000)
    for (x, g), (xf, gf) in zip(exact, approx):
        assert g == gf
        d = abs(float(x) - xf)
        assert min(d, 1.0 - d) < 1e-9


@pytest.mark.parametrize('shift', [-1, 2, 'negated'])
def test_skew_orbit_float_reads_alpha_mod_one(shift):
    # the float loop wrapped x once, upward: alpha outside [0, 1) left the
    # circle, and a negative one raised IndexError
    alpha = -ALPHA if shift == 'negated' else ALPHA + shift
    exact = skew_orbit(2, alpha, IntegersZ(), (1, -1), (QuadNum(0), 0), 200)
    approx = skew_orbit_float(2, float(alpha), IntegersZ(), (1, -1),
                              (0.0, 0), 200)
    assert [g for _, g in approx] == [g for _, g in exact]
    assert all(0.0 <= x < 1.0 for x, _ in approx)


@pytest.mark.parametrize('budget', [1, 2, 3, 5])
def test_skew_orbit_float_counts_the_budget_as_exact_does(budget):
    # the float orbit used to take no budget
    run = (QuadNum(0), 0), (0.0, 0)
    caught = []
    for orbit, alpha, start in zip((skew_orbit, skew_orbit_float),
                                   (ALPHA, float(ALPHA)), run):
        with pytest.raises(OrbitEscapedBudget) as info:
            orbit(2, alpha, IntegersZ(), (1, 1), start, 50, budget=budget)
        caught.append((info.value.steps_done, info.value.visited))
    assert caught[0] == caught[1] == (budget, budget + 1)
    assert len(skew_orbit_float(2, float(ALPHA), IntegersZ(), (1, 1),
                                (0.0, 0), 50, budget=51)) == 50


def counting_z():
    """The group Z with a count of the calls to its op."""
    group = IntegersZ()
    op, group.calls = group.op, 0

    def counted(a, b):
        group.calls += 1
        return op(a, b)

    group.op = counted
    return group


@pytest.mark.parametrize('budget', [3, 2000])
def test_skew_orbit_float_stops_soon_after_the_escape(budget):
    # the float orbit used to run every step before counting the budget
    group = counting_z()
    with pytest.raises(OrbitEscapedBudget) as info:
        skew_orbit_float(2, float(ALPHA), group, (1, 1), (0.0, 0), 10 ** 5,
                         budget=budget)
    assert (info.value.steps_done, info.value.visited) == (budget,
                                                           budget + 1)
    assert group.calls <= budget + 2048


def _float_reference(n, alpha, group, generators, state, steps):
    """The float skew orbit as one compensated loop, unchunked."""
    x, g = state
    alpha, comp, out = float(alpha % 1), 0.0, []
    for _ in range(steps):
        g = group.op(generators[min(int(x * n), n - 1)], g)
        add = alpha - comp
        nxt = x + add
        comp = (nxt - x) - add
        x = nxt - 1.0 if nxt >= 1.0 else nxt
        out.append((x, g))
    return out


@pytest.mark.parametrize('steps', [5000, 50000])
def test_skew_orbit_float_chunks_leave_the_orbit_unchanged(steps):
    args = 2, float(ALPHA), IntegersZ(), (1, -1), (0.0, 0), steps
    orbit = skew_orbit_float(*args)
    assert orbit == _float_reference(*args)
    assert orbit[-1] == {5000: (0.5339059327378637, 0),
                         50000: (0.33905932737863687, 0)}[steps]


# the skew groups of the exact checks, and Z/3 on three generators
FLOAT_GROUPS = dict(SKEW_GROUPS, cyclic=(Cyclic(3), (1, 1, 1)))


def _start_rounding_to_one():
    """An exact start in [0, 1) whose float is 1.0, so the float loop's
    first x * n is n: the least k with 1 - 10^-k rounding up, by search."""
    k = next(k for k in count(1) if float(1 - Fraction(1, 10 ** k)) == 1.0)
    return 1 - Fraction(1, 10 ** k)


@pytest.mark.parametrize('steps', [1, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize('name', sorted(FLOAT_GROUPS))
def test_skew_orbit_float_is_the_reference_loop_on_every_group(name, steps):
    group, gens = FLOAT_GROUPS[name]
    n, alpha, e = len(gens), float(ALPHA), group.identity
    top = _start_rounding_to_one()
    assert top < 1 and int(float(top) * n) == n
    for x in (0.0, Fraction(1, 7), top):
        want = _float_reference(n, alpha, group, gens, (float(x), e), steps)
        assert skew_orbit_float(n, alpha, group, gens, (x, e), steps) == want
        assert len(want) == steps and all(0.0 <= y < 1.0 for y, _ in want)


@pytest.mark.parametrize('name', sorted(FLOAT_GROUPS))
def test_skew_orbit_float_escapes_mid_chunk_as_exact_does(name):
    group, gens = FLOAT_GROUPS[name]
    n, e, chunk = len(gens), group.identity, dynamics._FLOAT_CHUNK
    exact = skew_orbit(n, ALPHA, group, gens, (QuadNum(0), e), 3000)
    approx = skew_orbit_float(n, float(ALPHA), group, gens, (0.0, e), 3000)
    assert [g for _, g in approx] == [g for _, g in exact]
    # (step, budget) for each step that meets a new element: that budget
    # escapes there, naming the step and one more element than it allows
    seen, fresh = {e}, []
    for k, (_, g) in enumerate(exact, 1):
        if g not in seen:
            fresh.append((k, len(seen)))
            seen.add(g)
    # the first escape, and the first after the first chunk (Z/3 meets
    # its three elements at once, so its last)
    cases = {fresh[0], next((c for c in fresh if c[0] > chunk), fresh[-1])}
    assert name == 'cyclic' or max(cases)[0] > chunk
    for k, budget in cases:
        assert k % chunk
        for orbit, alpha, x in ((skew_orbit, ALPHA, QuadNum(0)),
                                (skew_orbit_float, float(ALPHA), 0.0)):
            with pytest.raises(OrbitEscapedBudget) as info:
                orbit(n, alpha, group, gens, (x, e), 3000, budget=budget)
            assert (info.value.steps_done, info.value.visited) == (
                k, budget + 1)
    assert skew_orbit_float(n, float(ALPHA), group, gens, (0.0, e), 3000,
                            budget=len(seen)) == approx


def test_counting_z_counts_every_float_step():
    # IntegersZ's op is the builtin operator.add on the class; an instance
    # still sets its own, and the float loop binds that one
    group = counting_z()
    assert IntegersZ.op is operator.add and group.op is not operator.add
    skew_orbit_float(2, float(ALPHA), group, (1, -1), (0.0, 0), 3000)
    assert group.calls == 3000


def test_skew_orbit_float_budget_leaves_the_orbit_unchanged():
    args = 2, float(ALPHA), IntegersZ(), (1, -1), (0.0, 0), 5000
    # the orbit visits 11 group elements, start included, so a budget of
    # 12 is never hit
    assert skew_orbit_float(*args, budget=12) == skew_orbit_float(*args)


@given(num=st.integers(0, 34))
@settings(max_examples=40, deadline=None)
def test_orbits_reproducible_bitwise(num):
    s = staircase()
    theta = stair_theta(ALPHA)
    p0 = hpoint(s, ('a', 0), QuadNum(Fraction(num, 35)))
    first = code_orbit(s, theta, p0, 40, branch='right')
    second = code_orbit(s, theta, p0, 40, branch='right')
    assert first == second


def heisenberg_surface():
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    w = QuadNum(Fraction(1, 4))
    return Surface(SkewGraph(Heisenberg(), gens), lambda v: w, 4)


# (surface maker, field of its directions): two surfaces with an
# irrational lam, the rest rational; on the last the cuts overrun its
# circles, whose length lam * 1 is below the sum 2 of the widths
ORACLE_SURFACES = {
    'tripod': (lambda: Surface.from_family(tripod_family(2)), 41),
    'tripod-sqrt2': (lambda: Surface.from_family(
        tripod_family(sqrt_rational(2))), 2),
    'gz_constant': (lambda: Surface.from_family(gz_constant()), 2),
    'staircase': (staircase, 2),
    'heisenberg': (heisenberg_surface, 5),
    'heisenberg-chi21': (heisenberg_character, 70),
    'path-not-eigen': (lambda: Surface(PathGraph(), lambda v: QuadNum(1),
                                       Fraction(1, 3)), 3),
}


def _modular_jump(s, theta, e, o):
    """The parent form of S then R^u:
    (offset(north(e)) + o + (x/y)*w(a2)) % circle_length(a2)."""
    x, y = map(as_quad, theta)
    e2 = s.north(e)
    a2 = s.graph.alpha(e2)
    t2 = s.section(a2).offset(e2) + o + (x / y) * s.weight(a2)
    return HPoint(a2, t2 % s.circle_length(a2))


def _rotation_jump(s, theta, e, o):
    """The step's jump as it was before the jump tables: the landing's
    cut + o + r*w for r = u mod lam, then at most one subtraction of the
    circle's length, else the modulus."""
    x, y = map(as_quad, theta)
    r = (s.lam + x / y) % s.lam
    a2, cut, w, length = s.landing(e)
    t2 = cut + o + r * w
    if t2 < length:
        return HPoint(a2, t2)
    t2 = t2 - length
    return HPoint(a2, t2 if t2 < length else t2 % length)


def _bisect_resolve(surface, p):
    """The lookup as QuadNum arithmetic, as resolve ran it before the int
    cuts: bisect_right over Section.cuts, then t - cut."""
    sec = surface.section(p.a)
    i = bisect_right(sec.cuts, p.t) - 1
    if not 0 <= i < len(sec.edges):
        raise ValueError('coordinate beyond circle length at %r' % (p.a,))
    return sec.edges[i], p.t - sec.cuts[i]


def _table_jump(s, theta, e, o):
    """The jump as QuadNum arithmetic, as _jump ran it before the int
    lift: the table's (a2, cut + r*w, length), then base + o, one
    comparison, at most one subtraction, else the modulus."""
    x, y = map(as_quad, theta)
    r = (s.lam + x / y) % s.lam
    a2, cut, w, length = s.landing(e)
    base = cut + r * w
    t2 = base + o
    if t2 < length:
        return HPoint(a2, t2)
    t2 = t2 - length
    return HPoint(a2, t2 if t2 < length else t2 % length)


def _oracle_code(jump, s, theta, p, steps, branch):
    """code_orbit stepped by a reference lookup and a reference jump."""
    symbols, points = [], []
    for _ in range(steps):
        e, o = _bisect_resolve(s, p)
        if not o and branch == 'left':
            e = s.west(e)
            o = s.width(e)
        symbols.append(e)
        points.append(p)
        p = jump(s, theta, e, o)
    return symbols, points


@st.composite
def oracle_runs(draw):
    """A surface, a direction in its field whose u = x/y takes either
    sign and runs past lam, and a start on the root's circle, on a cut
    half the time."""
    name = draw(st.sampled_from(sorted(ORACLE_SURFACES)))
    make, field = ORACLE_SURFACES[name]
    s = make()
    small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    x = QuadNum(draw(small), draw(small), field)
    y = QuadNum(draw(st.fractions(min_value=Fraction(1, 3), max_value=3,
                                  max_denominator=12)))
    if draw(st.booleans()):
        x = x.rational_part   # a rational direction hits cuts often
    a = s.graph.root()
    sec = s.section(a)
    if draw(st.booleans()):
        t = draw(st.sampled_from(sec.cuts[:-1]))
    else:
        t = s.circle_length(a) * draw(st.fractions(0, 1, max_denominator=50))
    return s, (x, y), hpoint(s, a, t)


@given(run=oracle_runs())
@settings(max_examples=80, deadline=None)
def test_step_matches_the_modular_form(run):
    s, theta, p = run
    q = p
    for _ in range(25):
        e, o = _bisect_resolve(s, q)
        want = _modular_jump(s, theta, e, o)
        assert _rotation_jump(s, theta, e, o) == want
        q = iet_step(s, theta, q)
        assert q == want
    for branch in ('left', 'right'):
        got = code_orbit(s, theta, p, 25, branch=branch)
        assert got == _oracle_code(_modular_jump, s, theta, p, 25, branch)
        assert got == _oracle_code(_rotation_jump, s, theta, p, 25, branch)


def _outcome(f, *args):
    """f(*args), or the class and text of the error it raised."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _lookup_points(s):
    """Points on the root's circle and on the circles its edges land on:
    t = 0 and t on every cut, t = cut + 1/97, whose denominator divides
    no cut's, and a t with a 40-digit denominator."""
    root = s.graph.root()
    big = 10 ** 39 + 7
    for a in dict.fromkeys([root, *(s.landing(e).a
                                    for e in s.graph.edges_at(root))]):
        cuts = s.section(a).cuts
        for cut in cuts[:-1]:
            yield HPoint(a, cut)
            yield HPoint(a, cut + Fraction(1, 97))
        yield HPoint(a, cuts[-1] * Fraction(big // 3, big))


def _leg_one(s, theta, p):
    """The point _legs lands on first from p, on its right branch."""
    (_, q), = islice(dynamics._legs(s, s.rotation(theta), p, 'right'),
                     1, 2)
    return q


@pytest.mark.parametrize('name', sorted(ORACLE_SURFACES))
def test_int_lookup_and_landing_match_the_quadnum_ones(name):
    make, field = ORACLE_SURFACES[name]
    s, ref = make(), make()
    for theta in ((1, 1), (QuadNum(3, 1, field), 3),
                  (QuadNum(-7, 2, field), 1)):
        for p in _lookup_points(ref):
            want = _outcome(_bisect_resolve, ref, p)
            assert _outcome(resolve, s, p) == want
            step = _outcome(iet_step, s, theta, p)
            assert isinstance(step, HPoint)
            # one step is the orbit's first landing, and the jump as
            # QuadNum arithmetic with and without the table
            assert step == _outcome(_leg_one, s, theta, p)
            for jump in (_table_jump, _rotation_jump):
                assert step == _outcome(
                    lambda: jump(ref, theta, *_bisect_resolve(ref, p)))
            for branch in ('left', 'right'):
                assert _outcome(code_orbit, s, theta, p, 12, branch) == \
                    _outcome(_oracle_code, _table_jump, ref, theta, p, 12,
                             branch)


@pytest.mark.parametrize('name', sorted(ORACLE_SURFACES))
def test_lookup_refuses_the_circle_end_and_negative_coordinates(name):
    s = ORACLE_SURFACES[name][0]()
    a = s.graph.root()
    # the sum of the widths: the circle's length, but where the cuts
    # overrun the circle; hpoint would wrap both points, so they are raw
    end = s.section(a).cuts[-1]
    assert end == s.circle_length(a) or name == 'path-not-eigen'
    message = 'coordinate beyond circle length at %r' % (a,)
    for t in (end, -QuadNum(Fraction(1, 3))):
        p = HPoint(a, t)
        for f, *args in ((_bisect_resolve, s, p), (resolve, s, p),
                         (iet_step, s, (1, 1), p),
                         (code_orbit, s, (1, 1), p, 3, 'left')):
            assert _outcome(f, *args) == (ValueError, message)


def test_field_mixes_name_the_quadnum_routes_field_first():
    third = QuadNum(0, Fraction(1, 100), 3)   # sqrt(3)/100
    # in the lookup, t against the irrational cuts: t's field first
    s = ORACLE_SURFACES['tripod-sqrt2'][0]()
    p = HPoint(s.graph.root(), third)
    want = (FieldMixError, 'cannot combine sqrt(3) with sqrt(2)')
    assert _outcome(_bisect_resolve, s, p) == want
    assert _outcome(resolve, s, p) == want
    assert _outcome(iet_step, s, (1, 1), p) == want
    # in the landing, base + o on rational cuts: base's field first
    s = staircase()
    theta = stair_theta(ALPHA)
    p = HPoint(('a', 0), third)
    e, o = _bisect_resolve(s, p)
    want = (FieldMixError, 'cannot combine sqrt(2) with sqrt(3)')
    assert _outcome(_table_jump, s, theta, e, o) == want
    assert _outcome(iet_step, s, theta, p) == want
    # a 1-step orbit makes no landing, a 2-step one lands once
    assert _outcome(code_orbit, s, theta, p, 2) == want
    # and against the length, for a rational base: the sum's field first
    s = Surface(PathGraph(), lambda v: QuadNum(1), sqrt_rational(2))
    p = HPoint(0, third)
    e, o = _bisect_resolve(s, p)
    want = (FieldMixError, 'cannot combine sqrt(3) with sqrt(2)')
    assert _outcome(_table_jump, s, (1, 1), e, o) == want
    assert _outcome(iet_step, s, (1, 1), p) == want


@pytest.mark.parametrize('name', ['tripod', 'gz_constant', 'staircase',
                                  'heisenberg-chi21'])
def test_jump_table_matches_the_rotation_formula_at_cuts(name):
    # every start is a cut, a singular point, so both branches differ
    # from the first symbol on; u = 1 and u = 1 + sqrt(field) / 3
    make, field = ORACLE_SURFACES[name]
    s, ref = make(), make()
    a = s.graph.root()
    for theta in ((1, 1), (QuadNum(3, 1, field), 3)):
        for cut in s.section(a).cuts[:-1]:
            p = HPoint(a, cut)
            for branch in ('left', 'right'):
                assert code_orbit(s, theta, p, 20, branch=branch) == \
                    _oracle_code(_rotation_jump, ref, theta, p, 20, branch)
            q = p
            for _ in range(20):
                e, o = _bisect_resolve(ref, q)
                want = _rotation_jump(ref, theta, e, o)
                q = iet_step(s, theta, q)
                assert q == want


@pytest.mark.parametrize('name', sorted(set(ORACLE_SURFACES)
                                         - {'path-not-eigen'}))
def test_left_branch_onto_the_circle_end_wraps_to_zero(name):
    # from the cut left of e the left branch jumps from the right end of
    # west(e); when north(west(e)) is the last interval of its circle and
    # u is a multiple of lam, the sum is the circle's length exactly
    s = ORACLE_SURFACES[name][0]()
    root = s.graph.root()
    wraps = 0
    for a in [root, *(s.landing(e).a for e in s.graph.edges_at(root))]:
        sec = s.section(a)
        for e, cut in zip(sec.edges, sec.cuts):
            left = s.west(e)
            e2 = s.north(left)
            a2 = s.graph.alpha(e2)
            for u in (0, s.lam, -3 * s.lam):
                theta = (u, 1)
                _, points = code_orbit(s, theta, HPoint(a, cut), 2,
                                       branch='left')
                assert points[1] == _modular_jump(s, theta, left,
                                                  s.width(left))
                if s.section(a2).edges[-1] == e2:
                    assert points[1] == HPoint(a2, QuadNum(0))
                    wraps += 1
    assert wraps


@pytest.mark.parametrize('name', sorted(ORACLE_SURFACES))
def test_alternating_directions_keep_no_stale_rotation(name):
    # one surface steps three directions in turn, each pair of them
    # sharing x or y, and follows three fresh surfaces step for step:
    # each new direction must drop the jump table of the one before
    make, field = ORACLE_SURFACES[name]
    shared = make()
    x = QuadNum(1, 1, field)
    thetas = ((x, 2), (x, 1), (QuadNum(-7, 3, field), 1))
    fresh = [make() for _ in thetas]
    start = hpoint(shared, shared.graph.root(), 0)
    p, q = [start] * 3, [start] * 3
    for k in range(60):
        i = k % 3
        p[i] = iet_step(shared, thetas[i], p[i])
        q[i] = iet_step(fresh[i], thetas[i], q[i])
        assert p[i] == q[i]
    for theta, alone in zip(thetas, fresh):
        assert (code_orbit(shared, theta, start, 30, branch='left')
                == code_orbit(alone, theta, start, 30, branch='left'))


def test_a_bad_direction_after_a_good_one_still_raises():
    s = Surface.from_family(tripod_family(2))
    p = hpoint(s, ('c',), QuadNum(Fraction(3, 11)))
    iet_step(s, THETA41, p)
    for theta in ((4.0, THETA41[1]), (QuadNum(4), float(THETA41[1])),
                  (0.5, Fraction(1, 2))):
        with pytest.raises(TypeError, match='not an exact number'):
            iet_step(s, theta, p)
    # Fraction(1, 2) == 0.5, so no float may match a kept direction
    s.rotation((Fraction(1, 2), 1))
    with pytest.raises(TypeError, match='not an exact number'):
        iet_step(s, (0.5, 1), p)
    for theta in ((THETA41[0], -THETA41[1]), (THETA41[0], 0)):
        with pytest.raises(ValueError, match='upward'):
            iet_step(s, theta, p)
        with pytest.raises(ValueError, match='upward'):
            code_orbit(s, theta, p, 3)
    # an equal direction given another way is the same direction
    assert iet_step(s, (4, THETA41[1]), p) == iet_step(s, THETA41, p)


def test_flow_refuses_the_sides_the_return_map_refuses():
    # the flow from the bottom of edge 2, a rectangle of height w(2) = -1,
    # returned HPoint(a=2, t=7/6) on a circle of length -2
    def path():
        return Surface(PathGraph(),
                       lambda v: QuadNum(-1) if v == 2 else QuadNum(1), 2)

    s = path()
    with pytest.raises(ValueError) as flow:
        flow_to_next_edge(s, (1, 3), SurfacePoint(2, Fraction(1, 2), 0))
    with pytest.raises(ValueError) as flt:
        flow_to_next_edge_float(path(), (1.0, 3.0), 2, 0.5, 0.0)
    # the same hop as a return-map step: from the top of south(2)
    e = s.south(2)
    with pytest.raises(ValueError) as step:
        iet_step(path(), (1, 3), from_edge(s, e, Fraction(1, 2)))
    assert str(flow.value) == str(flt.value) == str(step.value) == \
        'rectangle sides must be positive where the top of edge %r lands' % e
    # and the start of the return map's own refusal, c06's pairing
    p = hpoint(s, 0, Fraction(3, 2))
    e, o = resolve(s, p)
    with pytest.raises(ValueError) as step:
        iet_step(path(), (1, 3), p)
    with pytest.raises(ValueError) as flow:
        flow_to_next_edge(path(), (1, 3), SurfacePoint(s.north(e), o, 0))
    assert str(flow.value) == str(step.value)


def test_landings_refuse_sides_that_are_not_positive():
    g = SkewGraph(IntegersZ(), (1, -1))
    s = Surface(g, lambda v: QuadNum(-1) if v == ('a', 1) else QuadNum(1), 2)
    p = hpoint(s, ('a', 0), QuadNum(Fraction(1, 3)))
    with pytest.raises(ValueError, match='positive'):
        for _ in range(10):
            p = iet_step(s, (QuadNum(0, 1, 2), 1), p)


# skew_step against the orbit and the QuadNum loop, its refusals, and the
# direction the return map's steps keep


SKEW_SHIFTS = [ALPHA, ALPHA + 5, ALPHA - 7, -ALPHA, ALPHA + 10 ** 6]


@pytest.mark.parametrize('alpha', SKEW_SHIFTS,
                         ids=['alpha', 'plus-5', 'minus-7', 'negated',
                              'plus-10^6'])
@pytest.mark.parametrize('name', sorted(SKEW_GROUPS))
def test_skew_step_is_the_first_state_of_the_orbit(name, alpha):
    group, gens = SKEW_GROUPS[name]
    n = len(gens)
    for x in (QuadNum(0), QuadNum(Fraction(1, 7)), ALPHA,
              QuadNum(Fraction(5, 6), Fraction(-1, 9), 2), Fraction(3, 11)):
        state = (x, group.identity)
        for _ in range(30):
            want = _skew_loop_reference(n, alpha, group, gens, state, 1)[0]
            assert skew_orbit(n, alpha, group, gens, state, 1)[0] == want
            state = skew_step(n, alpha, group, gens, state)
            assert state == want


def test_skew_refusals_keep_their_type_and_text():
    # the return map's refusals keep theirs in the lookup and field-mix
    # tests above
    def refusal(f, *args):
        with pytest.raises(Exception) as exc:
            f(*args)
        return type(exc.value), str(exc.value)

    group, gens = SKEW_GROUPS['Z']
    sqrt3 = sqrt_rational(3)
    circle = 'circle coordinate must lie in [0, 1)'
    for args, want in [
            ((2, ALPHA, group, gens, (QuadNum(1), 0)), (ValueError, circle)),
            ((2, ALPHA, group, gens, (-ALPHA, 0)), (ValueError, circle)),
            ((2, ALPHA, group, gens, (0.5, 0)),
             (TypeError, 'not an exact number: 0.5')),
            ((2, 0.3, group, gens, (QuadNum(0), 0)),
             (TypeError, 'not an exact number: 0.3')),
            ((2, sqrt3, group, gens, (ALPHA, 0)),
             (FieldMixError, 'cannot combine sqrt(2) with sqrt(3)')),
            ((3, ALPHA, group, gens, (QuadNum(0), 0)),
             (ValueError, 'need at least one generator and n of them, got '
                          'n=3 and 2'))]:
        assert refusal(skew_step, *args) == want, args
        if not isinstance(args[4][0], float):
            assert refusal(skew_orbit, *args, 1) == want, args


def test_rotation_keeps_a_tuple_and_rereads_what_can_change(monkeypatch):
    s, ref = staircase(), staircase()
    theta = stair_theta(ALPHA)
    turned = (QuadNum(1), theta[1])
    p = hpoint(s, ('a', 0), Fraction(1, 7))
    jumps = s.rotation(theta)
    # the same tuple object is matched before its entries are read
    with monkeypatch.context() as m:
        m.setattr('ribbonflow.surface._xy', None)
        assert s.rotation(theta) is jumps
    # an equal tuple built anew is the same direction
    assert s.rotation((theta[0] + 0, theta[1])) is jumps
    as_list, as_vec = list(theta), QVec2(*theta)
    for changing in (as_list, as_vec):
        jumps = s.rotation(theta)
        assert s.rotation(changing) is jumps
        # one entry changed in place: a new direction, a new table
        if changing is as_list:
            changing[0] = turned[0]
        else:
            changing.x = turned[0]
        got = s.rotation(changing)
        assert got is not jumps and got.r == ref.rotation(turned).r
        assert iet_step(s, changing, p) == iet_step(ref, turned, p)
