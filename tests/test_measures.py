"""Survivor checks, decay, transversal measures, boundary conjugacy."""

import contextlib
import io
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonflow import cli, dynamics, measures, renorm
from ribbonflow.dynamics import HPoint, from_edge, hpoint, iet_step, resolve
from ribbonflow.eigen import (builtin_families, character, character_eigen,
                              gz_constant, gz_exponential, ntree_constant,
                              ntree_horofunction, tripod_family)
from ribbonflow.exact import (FieldMixError, QVec2, QuadNum, SignPair,
                              _lift_common, _reduced, _xy, sqrt_rational)
from ribbonflow.freegrp import H, V, V_INV, Letter, Word, rho
from ribbonflow.graphs import (Heisenberg, IntegersZ, OracleFun, PathGraph,
                               SparseFun, TripodGraph, _numbered_ball,
                               pairing, upsilon_eval, vertices_in_ball)
from ribbonflow.measures import (DecayProfile, MatchedPair,
                                 NotRenormalizable, Witness, _cut_measure,
                                 _lift_plane, _renormalized,
                                 conjugate_boundary_point,
                                 decay_profile, decay_profiles,
                                 maharam_check, plane_point, survivor_check,
                                 transposed_surface, transversal_measure)
from ribbonflow.renorm import (ShrinkData, TailStatus, critical_times,
                               shrinking_sequence)
from ribbonflow.surface import Surface, _theta_parts

from leg_walk import leg_walk

THETA2 = (QuadNum(1), sqrt_rational(2) - 1)
THETA41 = (QuadNum(4), sqrt_rational(41) - 5)
THETA34 = (QuadNum(3), sqrt_rational(34) - 5)
HEISENBERG_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def gz_pair():
    """Two weightings of the half-line graph with matched sign data."""
    w1, w2 = gz_constant(), gz_exponential(2)
    return w1, w2, shrinking_sequence(QuadNum(2), THETA2), THETA41


def tripod_pair():
    w1, w2 = tripod_family(2), tripod_family(3)
    return w1, w2, shrinking_sequence(QuadNum('5/2'), THETA41), THETA34


def ball_window(graph, radius):
    return sorted(vertices_in_ball(graph, graph.root(), radius), key=repr)


def test_plane_point_scales_by_class():
    fam = gz_constant()
    f = plane_point(fam.graph, fam.weight, (QuadNum(3), QuadNum(-2)))
    assert f(0) == 3 * fam.weight(0)
    assert f(1) == -2 * fam.weight(1)
    assert f(-4) == 3 * fam.weight(-4)


def test_plane_point_intertwines_word_action():
    fam = gz_exponential(2)
    v = QVec2(QuadNum(2), QuadNum(-3))
    data = shrinking_sequence(fam.lam, THETA41)
    f = plane_point(fam.graph, fam.weight, v)
    for n in (0, 1, 2, 5):
        word = Word(reversed(data.increments[:n]))
        moved = rho(fam.lam, word) * v
        g = plane_point(fam.graph, fam.weight, moved)
        for u in (0, 1, -2, 3):
            assert upsilon_eval(fam.graph, word, f, u) == g(u)


def tree_vertex():
    """One vertex of the 3-tree, where every shear branches."""
    fam = ntree_constant(3)
    theta = (QuadNum(2), QuadNum('-3+sqrt(13)'))
    f = plane_point(fam.graph, fam.weight, theta)
    return fam.graph, f, shrinking_sequence(fam.lam, theta), [()]


def heisenberg_window():
    """A radius-2 window of a Heisenberg skew graph, whose A-vertices have
    double edges, under a direction with positive letters."""
    fam = character_eigen(Heisenberg(), HEISENBERG_GENS, (1, 1))
    other = character_eigen(Heisenberg(), HEISENBERG_GENS, (2, 1))
    f = plane_point(fam.graph, other.weight, (QuadNum(3), QuadNum(-2)))
    data = shrinking_sequence(fam.lam, (QuadNum(1), QuadNum('-2-sqrt(5)')))
    return fam.graph, f, data, ball_window(fam.graph, 2)


def matched_window(pair):
    """The pair's plane function on a radius-12 window, and those of its
    theta2 bumped by +-1/1000 and +-1/10 in y."""
    w1, w2, data, theta2 = pair()
    bumped = [plane_point(w1.graph, w2.weight,
                          (theta2[0], theta2[1] + QuadNum(bump)))
              for bump in ('1/1000', '-1/1000', '1/10', '-1/10')]
    return (w1.graph, plane_point(w1.graph, w2.weight, theta2), data,
            ball_window(w1.graph, 12), *bumped)


@pytest.mark.parametrize('case', [
    lambda: matched_window(gz_pair), lambda: matched_window(tripod_pair),
    tree_vertex, heisenberg_window], ids=['gz', 'tripod', 'tree',
                                          'heisenberg'])
def test_renormalized_matches_the_adjoint_route(case):
    graph, f, data, window, *bumped = case()
    depth = 8
    rows = kernel_rows(graph, f, data, depth, window)
    expected = []
    for n in range(depth + 1):
        word = Word(reversed(data.increments[:n]))
        expected += [(n, v, upsilon_eval(graph, word, f, v)) for v in window]
    assert rows == expected
    # the survivor check's witness, or its pass, is the adjoint rows' own,
    # on the pair and on directions off it
    assert survivor_check(graph, f, data, depth, window) == \
        adjoint_witness(graph, data, expected)
    for g in bumped:
        witness = adjoint_witness(graph, data, adjoint_rows(
            graph, g, data.increments, depth, window))
        # each bump breaks by depth 8
        assert witness is not None
        assert survivor_check(graph, g, data, depth, window) == witness
    # one pass over the window gives each vertex its own profile
    profiles = decay_profiles(graph, f, data, depth, window)
    assert profiles == [decay_profile(graph, f, v, data, depth)
                        for v in window]
    assert [p.values for p in profiles] == [
        tuple(abs(value) for _, u, value in expected if u == v)
        for v in window]


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair])
def test_renormalized_matches_the_plane_reduction_at_depth_64(pair):
    # g_n moves the plane function of an eigenfunction by moving its
    # direction under the shear representation at that eigenvalue
    w1, w2, data, theta2 = pair()
    graph = w1.graph
    f = plane_point(graph, w2.weight, theta2)
    window = ball_window(graph, 12)
    moved = [plane_point(graph, w2.weight, rho(
        w2.lam, Word(reversed(data.increments[:n]))) * QVec2(*theta2))
        for n in range(65)]
    rows = quad_rows(graph, f, data, 64, window)
    assert len(rows) == 65 * len(window)
    for n, v, value, _ in rows:
        assert value == moved[n](v), (n, v)


def adjoint_rows(graph, f, increments, depth, window):
    """The (n, v, value) rows of _renormalized through upsilon_eval, with
    each increment spelled out as |exp| unit letters."""
    rows = []
    for n in range(depth + 1):
        units = [Letter(l.gen, 1 if l.exp > 0 else -1)
                 for l in increments[:n] for _ in range(abs(l.exp))]
        word = Word(reversed(units))
        rows += [(n, v, upsilon_eval(graph, word, f, v)) for v in window]
    return rows


def adjoint_witness(graph, data, rows):
    """The first of the (n, v, value) rows, in their order, whose value
    has the sign opposite to the one the n-th quadrant gives v's class,
    as a Witness; None if there is none."""
    for n, v, value in rows:
        s = data.signs[n]
        want = 0 if s is None else (
            s.sx if graph.vertex_class(v) == 'a' else s.sy)
        if value.sign() * want < 0:
            return Witness(n, v, value.sign())
    return None


def int_rows(graph, f, data, depth, window):
    """(q, d, rows): the in-place pass of _renormalized read after every
    letter, rows holding (n, moved, sx, sy, v, a, b) at each window vertex
    in window order, so the value at v is (a + b*sqrt(d))/q."""
    window = tuple(window)
    q, d, A, B, groups, letters = _renormalized(graph, f, data, depth,
                                                window)
    where = sorted(groups['a'] + groups['b'])
    assert [k for k, _ in where] == list(range(len(window)))
    rows = [(n, moved, sx, sy, window[k], A[i], B[i])
            for n, moved, sx, sy in letters for k, i in where]
    return q, d, rows


def quad_rows(graph, f, data, depth, window):
    """The rows of _renormalized's pass as (n, v, value, sign_ok), each
    value built over the kernel's q and its sign read off the QuadNum."""
    q, d, rows = int_rows(graph, f, data, depth, window)
    out = []
    for n, _, sx, sy, v, a, b in rows:
        value = _reduced(a, b, q, d)
        s = sx if graph.vertex_class(v) == 'a' else sy
        out.append((n, v, value, value.sign() * s >= 0))
    return out


def kernel_rows(graph, f, data, depth, window):
    return [(n, v, value) for n, v, value, _ in
            quad_rows(graph, f, data, depth, window)]


def mixed_values(v):
    """ints, Fractions over 3 and 14, and sqrt(2) values, in turn."""
    return (v, Fraction(v, 3), Fraction(1 - v, 14),
            QuadNum(Fraction(1, 5), v, 2))[v % 4]


def mixed_values_tripod(v):
    return mixed_values(0 if v == ('c',) else 3 * v[1] + v[2])


def test_kernel_lifts_ints_fractions_and_roots():
    graph = PathGraph()
    data = shrinking_sequence(QuadNum(2), THETA2)
    window = ball_window(graph, 4)
    rows = kernel_rows(graph, mixed_values, data, 7, window)
    expected = adjoint_rows(graph, mixed_values, data.increments, 7, window)
    assert rows == expected
    assert [hash(value) for _, _, value in rows] == [
        hash(value) for _, _, value in expected]
    assert {value.field_disc for _, _, value in rows} == {0, 2}


def test_kernel_keeps_duplicate_window_vertices():
    w1, w2, data, theta2 = tripod_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    window = [('r', 1, 2), ('c',), ('r', 1, 2), ('r', 0, 1), ('c',)]
    rows = kernel_rows(w1.graph, f, data, 6, window)
    assert rows == adjoint_rows(w1.graph, f, data.increments, 6, window)
    assert [v for _, v, _ in rows[:len(window)]] == window


def test_kernel_at_depth_zero_reads_f():
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    window = [3, -1, 0, 3]
    rows = quad_rows(w1.graph, f, data, 0, window)
    assert [(n, v, value) for n, v, value, _ in rows] == [
        (0, v, f(v)) for v in window]
    assert all(ok for _, _, _, ok in rows)


def test_kernel_applies_any_integer_exponent():
    # a hand-built prefix: signs of None accept any value
    graph = TripodGraph()
    increments = (H, Letter('v', 3), H, V_INV, Letter('h', -2), V)
    data = SimpleNamespace(increments=increments,
                           signs=(None,) * (len(increments) + 1))
    window = ball_window(graph, 2)
    rows = kernel_rows(graph, mixed_values_tripod, data, 6, window)
    assert rows == adjoint_rows(graph, mixed_values_tripod, increments, 6,
                                window)


def hand_built(increments, signs):
    """ShrinkData with the given letters and quadrants; its vectors are
    not read by the survivor check."""
    return ShrinkData(lam=QuadNum(2), theta=QVec2(QuadNum(1), QuadNum(1)),
                      increments=tuple(increments), built=(),
                      signs=tuple(signs), status=TailStatus.CONTINUES)


def test_survivor_holds_the_unmoved_class_to_each_quadrant(monkeypatch):
    # 3 at the A-vertices (even) and -1 at the B-vertices of the path
    graph = PathGraph()
    f = OracleFun(lambda v: 3 if v % 2 == 0 else -1)
    window = (0, 1, 2, 3)
    # an axis, then h: the A values become 1, and the first quadrant
    # constrains the B values, which h did not move
    data = hand_built((H, V), (None, SignPair.PP, SignPair.PP))
    assert survivor_check(graph, f, data, 2, window) == Witness(1, 1, -1)
    assert _quad_survivor(graph, f, data, 2, window) == Witness(1, 1, -1)
    # the decay profiles mark the same vertices; hand-built quadrants
    # give no critical times
    monkeypatch.setattr(measures, 'critical_times', lambda data: ())
    assert [p.survivor_ok for p in decay_profiles(graph, f, data, 2,
                                                  window)] == [1, 0, 1, 0]
    # all positive: h makes the A values 5 and v the B values 11, and
    # the quadrant after v turns the unmoved A side negative
    f = OracleFun(lambda v: 3 if v % 2 == 0 else 1)
    data = hand_built((H, V), (SignPair.PP, SignPair.PP, SignPair.MP))
    assert survivor_check(graph, f, data, 2, window) == Witness(2, 0, 1)
    assert _quad_survivor(graph, f, data, 2, window) == Witness(2, 0, 1)
    assert survivor_check(graph, f, data, 1, window) is None
    assert [p.survivor_ok for p in decay_profiles(graph, f, data, 2,
                                                  window)] == [0, 1, 0, 1]


def test_decay_profiles_build_one_value_per_moved_letter(monkeypatch):
    # gz letters alternate h and v, so each window value moves on every
    # other letter: 1 + 8 QuadNums over 17 values, where one per value
    # would be 17
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    window = ball_window(w1.graph, 3)
    expected = _quad_decay(w1.graph, f, data, 16, window)
    calls = []

    def counted(*args):
        calls.append(args)
        return reduced(*args)

    reduced = measures._reduced
    monkeypatch.setattr(measures, '_reduced', counted)
    assert decay_profiles(w1.graph, f, data, 16, window) == expected
    assert len(calls) <= 9 * len(window)


def test_kernel_rejects_two_fields_and_floats():
    graph = PathGraph()
    data = shrinking_sequence(QuadNum(2), THETA2)
    roots = OracleFun(lambda v: sqrt_rational(2 if v < 3 else 3))
    with pytest.raises(FieldMixError):
        _renormalized(graph, roots, data, 4, (0,))
    # the two fields meet only outside the neighbourhood
    _renormalized(graph, roots, data, 2, (0,))
    with pytest.raises(TypeError):
        _renormalized(graph, lambda v: 0.5, data, 2, (0,))


def skew_pair():
    """Z's staircase weighted by chi = 4 and by chi = 1/4, both at 5/2."""
    w1 = character_eigen(IntegersZ(), (1, -1), 4)
    w2 = character_eigen(IntegersZ(), (1, -1), Fraction(1, 4))
    return w1, w2, shrinking_sequence(w1.lam, THETA41), THETA41


def both_routes(graph, f, data, depth, window):
    """int_rows for a plane function and for the same calls wrapped in a
    plain OracleFun, which reads every vertex."""
    return (int_rows(graph, f, data, depth, window),
            int_rows(graph, OracleFun(f), data, depth, window))


def _raises(*args):
    raise AssertionError('the plane function was called')


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair, skew_pair],
                         ids=['gz', 'tripod', 'skew'])
def test_plane_lift_gives_the_rows_of_every_read(pair, monkeypatch):
    w1, w2, data, theta2 = pair()
    graph = w1.graph
    bumped = (theta2[0], theta2[1] + QuadNum('1/1000'))
    for theta in (theta2, bumped, (QuadNum('2/3'), QuadNum('-5/7'))):
        f = plane_point(graph, w2.weight, theta)
        for depth, radius in ((6, 6), (10, 3)):
            window = ball_window(graph, radius)
            lifted, read = both_routes(graph, f, data, depth, window)
            assert lifted == read, (theta, depth)
    # the lift reads f's closed form, never the plane function's calls
    monkeypatch.setattr(measures._PlaneFun, '__call__', _raises)
    assert int_rows(graph, f, data, 10, window) == read


@pytest.mark.parametrize('fam, theta', [
    (gz_exponential(2), THETA41), (tripod_family(3), THETA34),
    (tripod_family(3), ('2/3', '-5/7')),
    (tripod_family(sqrt_rational(2)), (3, sqrt_rational(2) - 1)),
    (tripod_family(sqrt_rational(2)), ('2/3', '-5/7')),
    (gz_exponential(2), (0, THETA41[1])),
    (tripod_family(sqrt_rational(2)), (THETA41[0], 0))],
    ids=['gz', 'tripod', 'tripod-rational', 'tripod-sqrt2',
         'tripod-sqrt2-rational', 'zero-x', 'zero-y'])
def test_plane_lift_is_the_lift_of_every_read(fam, theta):
    # f rational (scaled by an irrational or a rational direction) or in
    # sqrt(2), and a zero scale on either class: the same ints, q and d
    graph = fam.graph
    f = plane_point(graph, fam.weight, tuple(map(QuadNum, theta)))
    _, order, _, _ = _numbered_ball(graph, (graph.root(),), 12)
    classes = list(map(graph.vertex_class, order))
    assert _lift_plane(f, order, classes) == _lift_common(map(f, order))


def test_plane_lift_keeps_the_perturbed_witnesses():
    # c07's perturbed directions break where the reads broke them
    want = {gz_pair: Witness(5, -10, -1), tripod_pair: Witness(3, ('c',), -1)}
    for pair, witness in want.items():
        w1, w2, data, theta2 = pair()
        bumped = (theta2[0], theta2[1] + QuadNum('1/1000'))
        f = plane_point(w1.graph, w2.weight, bumped)
        window = ball_window(w1.graph, 12)
        assert survivor_check(w1.graph, f, data, 12, window) == witness
        assert survivor_check(w1.graph, OracleFun(f), data, 12,
                              window) == witness


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair, skew_pair],
                         ids=['gz', 'tripod', 'skew'])
def test_matched_pair_builds_what_the_commands_read(pair):
    w1, w2, data, theta2 = pair()
    given = MatchedPair(w1, w2, data.theta, theta2, depth=12)
    derived = MatchedPair(w1, w2, data.theta, depth=12)
    assert given.data == derived.data == data
    assert given.matched and derived.matched
    assert derived.theta2 == given.derived
    window = ball_window(w1.graph, 3)
    for p in (given, derived):
        # on family1's very graph, so _renormalized takes the int lift
        assert p.plane.graph is p.graph is w1.graph
        assert survivor_check(p.graph, p.plane, p.data, 8, window) is None
    assert [s.weight for s in given.surfaces] == [w1.weight, w2.weight]


def test_matched_pair_keeps_the_perturbed_witnesses():
    # c07's perturbed directions are not matched, and a pair given one
    # still gives the survivor check its witness
    want = {gz_pair: Witness(5, -10, -1), tripod_pair: Witness(3, ('c',), -1)}
    for pair, witness in want.items():
        w1, w2, data, theta2 = pair()
        bumped = (theta2[0], theta2[1] + QuadNum('1/1000'))
        p = MatchedPair(w1, w2, data.theta, bumped, depth=12)
        assert not p.matched
        window = ball_window(p.graph, 12)
        assert survivor_check(p.graph, p.plane, p.data, 12,
                              window) == witness


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair, skew_pair],
                         ids=['gz', 'tripod', 'skew'])
def test_a_given_direction_is_matched_as_the_derived_wedge_says(
        pair, monkeypatch):
    w1, w2, data, theta2 = pair()
    derived = MatchedPair(w1, w2, data.theta, depth=12).derived
    given = [derived, -derived, 2 * derived,
             derived + QVec2(QuadNum(0), QuadNum('1/1000')), QVec2(*theta2),
             QVec2(QuadNum(4), sqrt_rational(42) - 5)]

    def parallel(theta):
        try:
            return not QVec2(*_xy(theta)).wedge(derived)
        except FieldMixError:
            return False

    want = list(map(parallel, given))
    assert want == [True, True, True, False, True, False]
    # decided with no square root and no derived direction
    monkeypatch.setattr(measures, 'matched_direction', _raises)
    monkeypatch.setattr(renorm, 'quad_sqrt', _raises)
    assert [MatchedPair(w1, w2, data.theta, theta, depth=12).matched
            for theta in given] == want


def test_matched_pair_derives_nothing_for_a_given_direction(monkeypatch):
    # survivor and decay read only the plane function and the shrink data
    monkeypatch.setattr(measures, 'matched_direction', _raises)
    w1, w2, data, theta2 = gz_pair()
    p = MatchedPair(w1, w2, THETA2, theta2, depth=12)
    assert p.plane.graph is w1.graph and len(p.surfaces) == 2


def test_matched_pair_refuses_the_plane_of_a_zero_theta2():
    # the zero function keeps every sign, so the survivor check passed it
    # and its decay rows were all 0; it is no multiple of the matched one
    p = MatchedPair(gz_constant(), gz_exponential(2), THETA2,
                    (QuadNum(0), QuadNum(0)), depth=12)
    assert not p.matched
    with pytest.raises(NotRenormalizable, match='^theta2 is the zero '
                       'vector, so it gives no measure$'):
        p.plane


def test_matched_pair_refusals():
    with pytest.raises(ValueError, match='^gz_constant and tripod t=2 '
                       'weight different graphs$'):
        MatchedPair(gz_constant(), tripod_family(2), THETA2)
    # a rational direction has no periodic tail
    with pytest.raises(NotRenormalizable, match=r'\(no_strict_shrinker\)'):
        MatchedPair(gz_constant(), gz_exponential(2), (1, 2))
    # the wedge of a sqrt(42) direction with the matched sqrt(41) one mixes
    # fields, and two directions in different fields are not parallel
    p = MatchedPair(gz_constant(), gz_exponential(2), THETA2,
                    (QuadNum(4), sqrt_rational(42) - 5))
    assert not p.matched
    # a negative multiple gives the same measure
    assert MatchedPair(gz_constant(), gz_exponential(2), THETA2,
                       (-QuadNum(4), 5 - sqrt_rational(41))).matched


def refusal(call):
    with pytest.raises((TypeError, FieldMixError)) as info:
        call()
    return type(info.value), str(info.value)


def test_plane_lift_refuses_as_every_read_does():
    graph = PathGraph()
    data = shrinking_sequence(QuadNum(2), THETA2)

    def refusals(f):
        return [refusal(lambda: _renormalized(graph, g, data, 4, (0,)))
                for g in (f, OracleFun(f))]

    # f in sqrt(2), the direction in sqrt(41): the scale's field first
    f = plane_point(graph, gz_exponential(sqrt_rational(2)).weight,
                    THETA41)
    assert refusals(f) == [(FieldMixError,
                            'cannot combine sqrt(41) with sqrt(2)')] * 2
    # rational x, irrational y: f's sqrt(2) on the A rows and y's sqrt(3)
    # on the B rows, each row's field alone a single one
    half = OracleFun(lambda v: sqrt_rational(2) if v % 2 == 0 else 1)
    f = plane_point(graph, half, (1, sqrt_rational(3)))
    assert refusals(f) == [(FieldMixError,
                            'cannot combine sqrt(2) with sqrt(3)')] * 2
    # a float weight, in an OracleFun and bare, and a bare text value,
    # which an OracleFun would parse but the product refuses
    weights = (OracleFun(lambda v: 0.5), lambda v: 0.5, lambda v: '1/2')
    assert [refusals(plane_point(graph, w, THETA41)) for w in weights] == [
        [(TypeError, 'not an exact number: 0.5')] * 2,
        [(TypeError, "unsupported operand type(s) for *: 'QuadNum' and "
                     "'float'")] * 2,
        [(TypeError, "can't multiply sequence by non-int of type "
                     "'QuadNum'")] * 2]
    # the first bad vertex decides: x*f(0) mixes two fields before f
    # gives a float at the next vertex
    f = plane_point(graph, OracleFun(lambda v: sqrt_rational(2) if v == 0
                                     else 0.5), (sqrt_rational(3), 1))
    assert refusals(f) == [(FieldMixError,
                            'cannot combine sqrt(3) with sqrt(2)')] * 2
    # a zero scale hides f's sqrt(2) on the A rows, so every read passes
    f = plane_point(graph, half, (0, sqrt_rational(3)))
    lifted, read = both_routes(graph, f, data, 4, (0, 1))
    assert lifted == read and read[1] == 3
    # and x's sqrt(3) meets only zeros, so the values stay rational
    f = plane_point(graph, OracleFun(lambda v: v % 2),
                    (sqrt_rational(3), 1))
    lifted, read = both_routes(graph, f, data, 4, (0, 1))
    assert lifted == read and read[1] == 0


def test_survivor_field_mix_exits_two(capsys):
    argv = ['survivor', '--family', 'gz_constant', '--family2',
            'gz_exponential:t=sqrt(2)', '--theta', '1, -1+sqrt(2)',
            '--theta2', '4, -5+sqrt(41)']
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: cannot combine sqrt(41) with sqrt(2)\n'


def test_kernel_rejects_negative_depth():
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    with pytest.raises(ValueError):
        _renormalized(w1.graph, f, data, -1, (0,))


def test_decay_profiles_check_critical_times_once(monkeypatch):
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    calls = []

    def counted(d):
        calls.append(d)
        return sign_sequence(d)

    sign_sequence = renorm.sign_sequence
    monkeypatch.setattr(renorm, 'sign_sequence', counted)
    first = decay_profiles(w1.graph, f, data, 6, (0, 1))
    assert decay_profiles(w1.graph, f, data, 6, (0, 1)) == first
    assert [decay_profile(w1.graph, f, v, data, 6) for v in (0, 1)] == first
    assert calls == [data]


def test_matched_pairs_share_sign_data():
    d1 = shrinking_sequence(QuadNum(2), THETA2)
    d2 = shrinking_sequence(QuadNum('5/2'), THETA41)
    d3 = shrinking_sequence(QuadNum('10/3'), THETA34)
    assert d1.increments[:13] == d2.increments[:13] == d3.increments[:13]
    assert d1.signs[:13] == d2.signs[:13] == d3.signs[:13]
    assert d1.period == d2.period == d3.period == (0, 2)


def test_gz_pair_survives_depth_twelve():
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    window = ball_window(w1.graph, 12)
    assert survivor_check(w1.graph, f, data, 12, window) is None


def test_tripod_pair_survives_depth_twelve():
    w1, w2, data, theta2 = tripod_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    window = ball_window(w1.graph, 12)
    assert survivor_check(w1.graph, f, data, 12, window) is None


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair])
def test_perturbed_direction_is_rejected(pair):
    w1, w2, data, theta2 = pair()
    nudged = (theta2[0], theta2[1] + QuadNum('1/1000'))
    f = plane_point(w1.graph, w2.weight, nudged)
    witness = survivor_check(w1.graph, f, data, 12, ball_window(w1.graph, 12))
    assert witness is not None
    assert witness.n <= 12
    assert witness.sign in (-1, 1)


def test_wrong_vector_is_rejected():
    w1, w2, data, theta2 = gz_pair()
    window = ball_window(w1.graph, 10)
    for v in ((QuadNum(1), QuadNum(0)), (QuadNum(1), QuadNum('1/3'))):
        f = plane_point(w1.graph, w2.weight, v)
        assert survivor_check(w1.graph, f, data, 10, window) is not None


def test_positive_function_passes_depth_zero():
    w1, _, data, _ = gz_pair()
    f = OracleFun(lambda v: QuadNum(1))
    assert survivor_check(w1.graph, f, data, 0, ball_window(w1.graph, 6)) \
        is None


def test_survivor_cone_is_convex():
    w1, w2, data, theta2 = gz_pair()
    other = gz_exponential(QuadNum('1/2'))
    assert other.lam == w2.lam
    f1 = plane_point(w1.graph, w2.weight, theta2)
    f2 = plane_point(w1.graph, other.weight, theta2)
    window = ball_window(w1.graph, 8)
    for q in (QuadNum(1), QuadNum('1/3'), QuadNum(5)):
        mix = OracleFun(lambda v, q=q: f1(v) + q * f2(v))
        assert survivor_check(w1.graph, mix, data, 8, window) is None


def test_square_minus_identity_preserves_survivors():
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    graph = w1.graph

    def two_step(v):
        total = -f(v)
        for u in graph.neighbors(v):
            for u2 in graph.neighbors(u):
                total = total + f(u2)
        return total

    g = OracleFun(two_step)
    lam2 = w2.lam * w2.lam
    for v in (0, 1, -3, 6):
        assert g(v) == (lam2 - 1) * f(v)
    assert survivor_check(graph, g, data, 8, ball_window(graph, 8)) is None


def test_depth_beyond_sign_data_raises():
    w1, w2, data, theta2 = gz_pair()
    f = plane_point(w1.graph, w2.weight, theta2)
    with pytest.raises(ValueError, match='shorter than'):
        survivor_check(w1.graph, f, data, len(data.signs), (0,))
    with pytest.raises(ValueError, match='shorter than'):
        decay_profile(w1.graph, f, 0, data, len(data.signs))


def test_decay_profile_monotone_with_halving():
    fam = gz_constant()
    data = shrinking_sequence(fam.lam, THETA2)
    f = plane_point(fam.graph, fam.weight, THETA2)
    prof = decay_profile(fam.graph, f, 0, data, 12)
    assert prof.values[0] == abs(f(0))
    assert all(prof.nonincreasing)
    assert prof.survivor_ok
    assert prof.critical == tuple(range(1, 13))
    assert prof.halving_index == 1
    assert prof.values[prof.halving_index] <= prof.values[0] / 2


def test_decay_profile_flags_non_survivor():
    w1, w2, data, theta2 = gz_pair()
    nudged = (theta2[0], theta2[1] + QuadNum('1/1000'))
    f = plane_point(w1.graph, w2.weight, nudged)
    witness = survivor_check(w1.graph, f, data, 12, ball_window(w1.graph, 12))
    prof = decay_profile(w1.graph, f, witness.vertex, data, 12)
    assert not prof.survivor_ok


# the matched-pair benchmark's windows: radius per depth, gz and tripod
JOB_RADIUS = {6: (12, 12), 10: (3, 3), 16: (3, 1)}


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair], ids=['gz',
                                                              'tripod'])
@pytest.mark.parametrize('depth', sorted(JOB_RADIUS))
def test_one_vertex_calls_give_the_window_rows(pair, depth):
    # each vertex's own decay_profile call, as the decay jobs make them,
    # gives its row of the one window pass and of the QuadNum oracle
    w1, w2, data, theta2 = pair()
    graph = w1.graph
    f = plane_point(graph, w2.weight, theta2)
    window = ball_window(graph, JOB_RADIUS[depth][pair is tripod_pair])
    rows = decay_profiles(graph, f, data, depth, window)
    assert [decay_profile(graph, f, v, data, depth) for v in window] == rows
    assert rows == _quad_decay(graph, f, data, depth, window)
    assert all(p.survivor_ok and all(p.nonincreasing) for p in rows)


def test_critical_times_need_repeated_quadrant():
    data = shrinking_sequence(QuadNum(2), THETA2)
    assert critical_times(data)[:6] == (1, 2, 3, 4, 5, 6)


def _quad_kernel(graph, f, data, depth, vertices):
    """The shear kernel as it yielded QuadNum rows, kept as the oracle for
    the int rows: (n, v, value, sign_ok), each value built from the ints
    over q and its sign read off the QuadNum."""
    if depth >= len(data.signs):
        raise ValueError('shrinking data shorter than requested depth')
    vertices = tuple(vertices)
    rings, order, index, nbrs = _numbered_ball(graph, vertices, depth)
    A, B, q, d = _lift_common(map(f, order))
    classes = list(map(graph.vertex_class, order))
    gathers = {'a': [], 'b': []}
    cuts = {'a': [], 'b': []}
    start = 0
    for ring in rings[:depth]:
        for i in range(start, start + len(ring)):
            gathers[classes[i]].append((i, nbrs[i]))
        start += len(ring)
        for c, todo in gathers.items():
            cuts[c].append(len(todo))
    rows = [(v, index[v], classes[index[v]] == 'a') for v in vertices]
    for n in range(depth + 1):
        if n:
            letter = data.increments[n - 1]
            e = letter.exp
            c = 'a' if letter.gen == 'h' else 'b'
            todo = gathers[c][:cuts[c][depth - n]]
            for xs in ((A, B) if d else (A,)):
                for w, nbrs in todo:
                    total = 0
                    for j in nbrs:
                        total += xs[j]
                    xs[w] += e * total
        s = data.signs[n]
        for v, i, on_a in rows:
            value = _reduced(A[i], B[i], q, d)
            sign = value.sign()
            yield n, v, value, not sign or s is None or sign == (
                s.sx if on_a else s.sy)


def _quad_survivor(graph, f, data, depth, window):
    for n, v, value, sign_ok in _quad_kernel(graph, f, data, depth, window):
        if not sign_ok:
            return Witness(n, v, value.sign())
    return None


def _quad_decay(graph, f, data, depth, window):
    """decay_profiles on the QuadNum rows, comparing QuadNums."""
    window = tuple(window)
    rows = list(_quad_kernel(graph, f, data, depth, window))
    crit = tuple(n for n in critical_times(data) if n <= depth)
    profiles = []
    for i in range(len(window)):
        _, _, values, signs_ok = zip(*rows[i::len(window)])
        values = tuple(map(abs, values))
        flags = tuple(b <= a for a, b in zip(values, values[1:]))
        halving = next((n for n in crit if values[n] <= values[0] / 2), None)
        profiles.append(DecayProfile(values, flags, crit, halving,
                                     all(signs_ok)))
    return profiles


def _assert_matches_the_quad_rows(graph, f, data, depth, window):
    assert survivor_check(graph, f, data, depth, window) == \
        _quad_survivor(graph, f, data, depth, window)
    got = decay_profiles(graph, f, data, depth, window)
    assert got == _quad_decay(graph, f, data, depth, window)
    # the same bits: each value is one canonical QuadNum
    for prof in got:
        assert all(type(v) is QuadNum for v in prof.values)
    return got


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair])
@pytest.mark.parametrize('theta2', [None, (QuadNum(4),
                                           QuadNum('-5+sqrt(42)'))],
                         ids=['matched', 'sqrt42'])
def test_int_rows_match_the_quad_rows(pair, theta2):
    w1, w2, data, matched = pair()
    graph = w1.graph
    f = plane_point(graph, w2.weight, theta2 or matched)
    window = ball_window(graph, 12)
    profiles = _assert_matches_the_quad_rows(graph, f, data, 12, window)
    if theta2 is None:
        assert all(p.survivor_ok and all(p.nonincreasing) for p in profiles)
    else:
        assert not all(p.survivor_ok for p in profiles)


def test_sqrt42_witness_is_the_readme_row():
    w1, w2, data, _ = gz_pair()
    f = plane_point(w1.graph, w2.weight, (QuadNum(4), QuadNum('-5+sqrt(42)')))
    window = ball_window(w1.graph, 12)
    assert survivor_check(w1.graph, f, data, 12, window) == \
        Witness(3, -10, -1)


SHRINK_DATA = [shrinking_sequence(QuadNum(2), THETA2),
               shrinking_sequence(QuadNum('5/2'), THETA41),
               shrinking_sequence(QuadNum(3), (QuadNum(2),
                                               QuadNum('-3+sqrt(13)')))]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_int_rows_match_the_quad_rows_on_small_ints(data):
    # small ints on a short stretch of the path, zero beyond it, some with
    # a sqrt(2) part: zero values, equal magnitudes and values at exactly
    # half the start are common
    shrink = data.draw(st.sampled_from(SHRINK_DATA))
    depth = data.draw(st.integers(min_value=0, max_value=6))
    ints = st.integers(min_value=-2, max_value=2)
    span = data.draw(st.lists(ints, min_size=1, max_size=12))
    roots = data.draw(st.lists(st.sampled_from((0, 0, 0, 1, -1)),
                               min_size=len(span), max_size=len(span)))
    values = {v: QuadNum(a, b, 2) for v, (a, b) in enumerate(zip(span, roots))}
    f = OracleFun(lambda v: values.get(v, 0))
    window = data.draw(st.lists(st.integers(min_value=-2, max_value=13),
                                min_size=1, max_size=5))
    _assert_matches_the_quad_rows(PathGraph(), f, shrink, depth, window)


# The full coding refinement, every cell split at every step: the oracle
# that the descent of transversal_measure, which follows one orbit, is
# held against.

_ZERO = QuadNum(0)


def _split(surface: Surface, theta, q, ln, a, t):
    """One return step of the cell of top-interval offsets [q, q + ln)
    that sits at t on the circle of a.

    Returns the circle a2 of the image, its length, and the starts of the
    sub-cells that the interval endpoints inside the image cut it into,
    in order: (offset, position past the image start on a2), the first
    being (q, image start) and the others the cut offsets of this step.
    """
    img = iet_step(surface, theta, HPoint(a, t))
    a2, t2 = img.a, img.t
    length = surface.circle_length(a2)
    ladder = surface.section(a2).cuts
    # cuts inside the image [t2, t2 + ln), which may run past the circle's
    # end; there the last cut is the first one again, so the wrapped list
    # skips cuts[0]
    end = t2 + ln
    ends = list(ladder[bisect_right(ladder, t2):bisect_left(ladder, end)])
    ends += [length + c for c in ladder[1:bisect_left(ladder, end - length)]]
    return a2, length, [(q, t2)] + [(q + (c - t2), c) for c in ends]


def _start_cell(surface: Surface, e):
    """The whole top interval of e as a cell (q, ln, a, t)."""
    a = surface.graph.alpha(e)
    return _ZERO, surface.width(e), a, surface.section(a).offset(e)


def _coding_grid(surface: Surface, theta, e, depth: int) -> dict:
    """Offsets in the top interval of e whose forward orbit meets an
    interval endpoint within the given number of steps, mapped to the
    step count of the first hit."""
    cells = [_start_cell(surface, e)]
    w = cells[0][1]
    grid = {_ZERO: 0, w: 0}
    for step in range(1, depth + 1):
        refined = []
        for q, ln, a, t in cells:
            a2, length, starts = _split(surface, theta, q, ln, a, t)
            offs = [off for off, _ in starts]
            for off in offs[1:]:
                grid.setdefault(off, step)
            for (off, c), end in zip(starts, offs[1:] + [q + ln]):
                refined.append((off, end - off, a2, c % length))
        cells = refined
    return grid


def lebesgue_staircase():
    fam = gz_constant()
    s = Surface.from_family(fam)
    f = plane_point(fam.graph, fam.weight, THETA2)
    return s, f


def test_transversal_full_edge_is_exact():
    s, f = lebesgue_staircase()
    for e in (0, -1, 3):
        tm = transversal_measure(s, f, THETA2, e, s.width(e), 5)
        assert tm.error == 0
        assert tm.value == abs(f(s.graph.beta(e)))


def test_transversal_matches_length_on_grid():
    s, f = lebesgue_staircase()
    y = THETA2[1]
    grid = _coding_grid(s, THETA2, 0, 10)
    assert len(grid) >= 10
    for q, steps in grid.items():
        assert _cut_measure(s, f, THETA2, 0, q, steps) == q * y


def test_transversal_adds_up_around_circle():
    s, f = lebesgue_staircase()
    y = THETA2[1]
    a = s.graph.alpha(0)
    total = QuadNum(0)
    for e in s.graph.edges_at(a):
        total += transversal_measure(s, f, THETA2, e, s.width(e), 4).value
    assert total == s.circle_length(a) * y


def test_transversal_monotone_and_bracketing():
    s, f = lebesgue_staircase()
    y = THETA2[1]
    last = QuadNum(0)
    for num in range(1, 8):
        t = s.width(0) * QuadNum(Fraction(num, 8))
        tm = transversal_measure(s, f, THETA2, 0, t, 8)
        assert tm.value <= t * y <= tm.value + tm.error
        assert tm.value >= last
        last = tm.value


def test_transversal_error_nonincreasing_in_depth():
    s, f = lebesgue_staircase()
    t = s.width(0) / 3
    errors = [transversal_measure(s, f, THETA2, 0, t, k).error
              for k in (2, 4, 6, 8, 10)]
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_transversal_rejects_point_outside_edge():
    s, f = lebesgue_staircase()
    with pytest.raises(ValueError):
        transversal_measure(s, f, THETA2, 0, s.width(0) + 1, 2)


def test_transversal_rejects_negative_depth():
    # as every ball walk refuses a negative radius
    s, f = lebesgue_staircase()
    with pytest.raises(ValueError, match='-3'):
        transversal_measure(s, f, THETA2, 0, s.width(0) / 3, -3)
    with pytest.raises(ValueError, match='-3'):
        conjugate_boundary_point(s, s, THETA2, THETA2, 0, 'bottom',
                                 s.width(0) / 3, -3)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_transversal_monotone_in_endpoint(p, q):
    s, f = lebesgue_staircase()
    lo, hi = sorted((p, q))
    w = s.width(0)
    a = transversal_measure(s, f, THETA2, 0, w * QuadNum(lo), 6)
    b = transversal_measure(s, f, THETA2, 0, w * QuadNum(hi), 6)
    assert a.value <= b.value
    assert a.value + a.error <= b.value + b.error


THETA1 = {gz_pair: THETA2, tripod_pair: THETA41}


def pair_sides(pair):
    """(surface, f, theta, edge) for the bottom and the left side of the
    root's base edge, as conjugate_boundary_point measures them."""
    w1, w2, _, theta2 = pair()
    s1 = Surface.from_family(w1)
    f = plane_point(w1.graph, w2.weight, theta2)
    x1, y1 = THETA1[pair]
    e = w1.graph.base_edge(w1.root)
    assert x1 > 0
    return [(s1, f, (x1, y1), s1.south(e)),
            (transposed_surface(s1), f, (y1, x1), s1.west(e))]


def grid_bracket(surface, f, theta, e, depth):
    """The sorted cuts of the full coding grid; the cell of them that
    holds t, as (offset, step) ends, one cut twice when t is on it; and
    the (value, error) that bracketing t between them gives."""
    grid = _coding_grid(surface, theta, e, depth)
    cuts = sorted(grid)
    ms = [_cut_measure(surface, f, theta, e, q, grid[q]) for q in cuts]

    def ends(t):
        i = bisect_left(cuts, t)
        return (i if cuts[i] == t else i - 1), i

    def cell(t):
        return tuple((cuts[i], grid[cuts[i]]) for i in ends(t))

    def bracket(t):
        lo, hi = ends(t)
        return ms[lo], ms[hi] - ms[lo]

    return cuts, cell, bracket


def staircase_edges(theta=THETA2):
    s, f = lebesgue_staircase()
    return [(s, f, theta, e) for e in (0, -1, 3)]


def staircase_rational_edges():
    """A rational direction, whose orbits of cuts meet cuts again: an end
    that a later step lands on keeps its first step."""
    return staircase_edges((QuadNum(1), QuadNum(2)))


def z_skew_sides():
    """Both sides of the root's base edge on the Z skew surface of the
    character 4, whose circles wrap images past their ends."""
    fam = character_eigen(IntegersZ(), (1, -1), 4)
    s = Surface.from_family(fam)
    theta = (sqrt_rational(2) / 2 - QuadNum('1/2'), QuadNum('1/2'))
    f = plane_point(fam.graph, fam.weight, theta)
    e = fam.graph.base_edge(fam.root)
    return [(s, f, theta, s.south(e)),
            (transposed_surface(s), f, theta[::-1], s.west(e))]


@pytest.mark.parametrize('sides', [
    lambda: pair_sides(gz_pair), lambda: pair_sides(tripod_pair),
    staircase_edges, staircase_rational_edges, z_skew_sides],
    ids=['gz_pair', 'tripod_pair', 'staircase', 'staircase_rational',
         'z_skew'])
def test_descent_matches_the_full_grid(sides):
    for surface, f, theta, e in sides():
        w = surface.width(e)
        for depth in (0, 1, 2, 5, 8, 12):
            cuts, cell, bracket = grid_bracket(surface, f, theta, e, depth)
            # the grid holds 0 and the full width
            ts = set(cuts) | {w * QuadNum(Fraction(k, 60))
                              for k in range(61)}
            for t in sorted(ts):
                tm = transversal_measure(surface, f, theta, e, t, depth)
                assert (tm.value, tm.error) == bracket(t), (depth, t)
                # each end carries the step the grid first cut it at
                assert measures._cell(surface, theta, e, t, depth) == cell(
                    t), (depth, t)


README_CONJUGATE = [
    'conjugate', '--family', 'gz_constant', '--family2',
    'gz_exponential:t=2', '--theta', '1, -1+sqrt(2)', '--theta2',
    '4, -5+sqrt(41)', '--depth', '12']


def test_measure_flows_at_most_two_chains(monkeypatch):
    chains, steps, inside = [], [], []

    def counted_chain(*args):
        chains.append(args)
        inside.append(args)
        try:
            return chain(*args)
        finally:
            inside.pop()

    def counted_land(*args):
        if not inside:
            steps.append(args)
        return land(*args)

    # the descent and the chains both land in _legs: the descent's
    # landings are those made outside a chain
    chain, land = measures._chain_crossings, dynamics._land
    monkeypatch.setattr(measures, '_chain_crossings', counted_chain)
    monkeypatch.setattr(dynamics, '_land', counted_land)
    for pair in (gz_pair, tripod_pair):
        for surface, f, theta, e in pair_sides(pair):
            w = surface.width(e)
            for depth in (4, 12):
                for k in (0, 1, 30, 59, 60):
                    del chains[:], steps[:]
                    transversal_measure(surface, f, theta, e,
                                        w * QuadNum(Fraction(k, 60)), depth)
                    assert 1 <= len(chains) <= 2
                    assert len(steps) <= depth
            # a cut first hit at step k stops the descent there
            grid = _coding_grid(surface, theta, e, 12)
            assert set(grid.values()) > {0, 1}
            for q, k in grid.items():
                del steps[:]
                transversal_measure(surface, f, theta, e, q, 12)
                assert len(steps) == k, (q, k)
    del chains[:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(README_CONJUGATE) == 0
    assert len(chains) <= 12


def _parent_chain_crossings(surface, theta, e, q, steps):
    """_chain_crossings as it was when each step looked its start up: the
    circle point at offset q reduced by hpoint, then each step's start
    resolved from the circle point where the last walk ended."""
    x, y = _theta_parts(theta)
    u = x / y
    terms = []
    w = surface.width(e)
    if 2 * q >= w and q > 0:
        terms.append((surface.graph.beta(e), 1))
    start = from_edge(surface, e, q)
    p = hpoint(surface, start.a, start.t)
    for _ in range(steps):
        e1, o = resolve(surface, p)
        legs = leg_walk(surface, u, surface.north(e1), o, _ZERO)
        h = surface.height(legs[0][0])
        for r, wr, x0, y0, x1, y1 in legs:
            if u > 0 and x0 < wr / 2 <= x1:
                terms.append((surface.graph.beta(r), 1))
            elif u < 0 and x1 <= wr / 2 < x0:
                terms.append((surface.graph.beta(r), -1))
            if y0 < h / 2 <= y1:
                terms.append((surface.graph.alpha(r), -1))
        r, _, _, _, x1, _ = legs[-1]
        p = from_edge(surface, r, x1)
    return SparseFun(terms)


STEEP = (100 + sqrt_rational(2), QuadNum(1))

CHAIN_CASES = {
    'gz': lambda: (Surface.from_family(gz_constant()), THETA2),
    'tripod2': lambda: (Surface.from_family(tripod_family(2)), THETA41),
    'tripod3': lambda: (Surface.from_family(tripod_family(3)), THETA34),
    'gz_rational': lambda: (Surface.from_family(gz_constant()),
                            (QuadNum(1), QuadNum(2))),
    'gz_leftward': lambda: (Surface.from_family(gz_constant()),
                            (QuadNum(-1), THETA2[1])),
    'z_skew': lambda: z_skew_sides()[0][::2],
    'gz_vertical': lambda: (Surface.from_family(gz_constant()),
                            (QuadNum(0), QuadNum(1))),
    'gz_steep': lambda: (Surface.from_family(gz_constant()), STEEP),
    'gz_steep_leftward': lambda: (Surface.from_family(gz_constant()),
                                  (-STEEP[0], STEEP[1])),
    'ntree_horo': lambda: (Surface.from_family(
        ntree_horofunction(3, QuadNum('1/2'))), THETA2),
    'heisenberg': lambda: (Surface.from_family(character_eigen(
        Heisenberg(), HEISENBERG_GENS, (1, 1))),
        (QuadNum(-3), sqrt_rational(5) / 2)),
    'tripod2_mirror': lambda: (transposed_surface(
        Surface.from_family(tripod_family(2))), THETA41[::-1]),
}


@pytest.mark.parametrize('name', sorted(CHAIN_CASES))
def test_chain_carries_the_walks_edge_and_offset(name):
    # each step starts where the last walk ended, with no lookup; the
    # full width is offset 0 of the east neighbor
    s, theta = CHAIN_CASES[name]()
    for e in s.graph.edges_at(s.graph.root()):
        w = s.width(e)
        for k in (0, 1, 8, 20, 33, 39, 40):
            q = w * QuadNum(Fraction(k, 40))
            for steps in (0, 1, 3, 9):
                got = measures._chain_crossings(s, theta, e, q, steps)
                assert got == _parent_chain_crossings(s, theta, e, q,
                                                      steps), (e, k, steps)


@pytest.mark.parametrize('sign', [1, -1], ids=['rightward', 'leftward'])
def test_steep_measure_takes_no_step_per_rectangle(sign):
    # a step is one floor pair per edge of its landing circle, however
    # many times the line winds round the cylinder; a walk over every
    # rectangle crossed needs about 10 s at 10**5
    w1, w2, _, theta2 = gz_pair()
    s = Surface.from_family(w1)
    f = plane_point(w1.graph, w2.weight, theta2)
    e = s.south(w1.graph.base_edge(w1.root))
    t = s.width(e) / 3
    for big in (10**5, 10**3):
        theta = (sign * (big + sqrt_rational(2)), QuadNum(1))
        start = time.perf_counter()
        tm = transversal_measure(s, f, theta, e, t, 12)
        assert time.perf_counter() - start < 1
    lo, hi = measures._cell(s, theta, e, t, 12)
    assert lo != hi
    value, upper = (abs(pairing(f, _parent_chain_crossings(s, theta, e,
                                                           *end)))
                    for end in (lo, hi))
    assert (tm.value, tm.error) == (value, upper - value)


def test_transposed_surface_swaps_roles():
    s = Surface.from_family(gz_exponential(2))
    ts = transposed_surface(s)
    for e in (0, 1, -2):
        assert ts.width(e) == s.height(e)
        assert ts.height(e) == s.width(e)
        assert ts.north(e) == s.east(e)
        assert ts.east(e) == s.north(e)


@pytest.mark.parametrize('fam', builtin_families(),
                         ids=lambda fam: fam.describe())
def test_transposed_surface_swaps_the_gluings(fam):
    # the mirror swaps the two ends of every edge and the two classes, so
    # turning about the A-end there is turning about the B-end here
    s = Surface.from_family(fam)
    ts = transposed_surface(s)
    g = fam.graph
    for v in vertices_in_ball(g, fam.root, 3):
        for e in g.edges_at(v):
            assert ts.east(e) == s.north(e)
            assert ts.west(e) == s.south(e)
            assert ts.north(e) == s.east(e)
            assert ts.width(e) == s.height(e)


@pytest.mark.parametrize('pair', [gz_pair, tripod_pair])
def test_conjugacy_keeps_one_mirror_per_surface(pair):
    # the left points of the benchmark's depth-8 conjugacy jobs: one
    # surface, whose mirror every call shares, against a fresh surface and
    # so a fresh mirror per call
    w1, w2, _, theta2 = pair()
    s1, s2 = Surface.from_family(w1), Surface.from_family(w2)
    assert transposed_surface(s1) is transposed_surface(s1)
    assert transposed_surface(s1) is not transposed_surface(
        Surface.from_family(w1))
    e = w1.graph.base_edge(w1.root)
    for k in range(1, 8):
        t = s1.height(e) * Fraction(k, 8)
        shared = conjugate_boundary_point(s1, s2, THETA1[pair], theta2, e,
                                          'left', t, 8)
        fresh = conjugate_boundary_point(Surface.from_family(w1), s2,
                                         THETA1[pair], theta2, e, 'left',
                                         t, 8)
        assert shared == fresh


def test_conjugacy_full_bottom_edge_exact():
    w1, w2, _, theta2 = gz_pair()
    s1, s2 = Surface.from_family(w1), Surface.from_family(w2)
    p = conjugate_boundary_point(s1, s2, THETA2, theta2, 0, 'bottom',
                                 s1.width(0), 6)
    assert p.x == s2.width(0)
    assert p.y == 0
    assert p.error == 0


def test_conjugacy_tripod_pair_bottom_edge():
    w1, w2, _, theta2 = tripod_pair()
    s1, s2 = Surface.from_family(w1), Surface.from_family(w2)
    e = w1.graph.edges_at(w1.graph.root())[0]
    p = conjugate_boundary_point(s1, s2, THETA41, theta2, e, 'bottom',
                                 s1.width(e), 6)
    assert p.x == s2.width(e)
    assert p.error == 0


def test_conjugacy_sends_corners_to_corners():
    w1, w2, _, theta2 = gz_pair()
    s1, s2 = Surface.from_family(w1), Surface.from_family(w2)
    e = 0
    zero = conjugate_boundary_point(s1, s2, THETA2, theta2, e, 'bottom', 0, 4)
    assert (zero.x, zero.y, zero.error) == (0, 0, 0)
    top = conjugate_boundary_point(s1, s2, THETA2, theta2, e, 'top',
                                   s1.width(e), 4)
    assert (top.x, top.y) == (s2.width(e), s2.height(e))
    left = conjugate_boundary_point(s1, s2, THETA2, theta2, e, 'left',
                                    s1.height(e), 4)
    assert (left.x, left.y, left.error) == (0, s2.height(e), 0)
    right = conjugate_boundary_point(s1, s2, THETA2, theta2, e, 'right',
                                     s1.height(e), 4)
    assert (right.x, right.y) == (s2.width(e), s2.height(e))


def test_conjugacy_identity_brackets_the_point():
    fam = gz_constant()
    s = Surface.from_family(fam)
    t = s.width(0) / 3
    p = conjugate_boundary_point(s, s, THETA2, THETA2, 0, 'bottom', t, 8)
    assert p.x <= t <= p.x + p.error


def test_conjugacy_rejects_unknown_side():
    s = Surface.from_family(gz_constant())
    with pytest.raises(ValueError):
        conjugate_boundary_point(s, s, THETA2, THETA2, 0, 'north', 0, 2)


def test_conjugacy_refuses_a_vertical_second_direction():
    # a side's image rescales by the second direction's component across
    # it, and a vertical direction's x component is 0
    s = Surface.from_family(gz_constant())
    vertical = (QuadNum(0), QuadNum(1))
    for side in ('bottom', 'top', 'left', 'right'):
        args = (s, s, THETA2, vertical, 0, side, s.width(0) / 2, 2)
        if side in ('left', 'right'):
            with pytest.raises(ValueError, match='vertical second direction'):
                conjugate_boundary_point(*args)
        else:
            conjugate_boundary_point(*args)


def test_boundary_map_intertwines_return_maps():
    w1, w2, _, theta2 = gz_pair()
    s1, s2 = Surface.from_family(w1), Surface.from_family(w2)
    y2 = abs(theta2[1])
    f = plane_point(w1.graph, w2.weight, theta2)

    def phi(e, t):
        tm = transversal_measure(s1, f, THETA2, e, t, 12)
        return from_edge(s2, e, tm.value / y2), tm.error

    checked = 0
    for q in sorted(_coding_grid(s1, THETA2, 0, 6)):
        if q == 0 or q == s1.width(0):
            continue
        p1 = from_edge(s1, 0, q)
        e1, o1 = resolve(s1, iet_step(s1, THETA2, p1))
        lhs, err = phi(e1, o1)
        img, err0 = phi(0, q)
        assert err0 == 0
        rhs = iet_step(s2, theta2, img)
        if err == 0:
            assert (lhs.a, lhs.t) == (rhs.a, rhs.t)
            checked += 1
    assert checked >= 4


def test_maharam_scaling_on_skew_family():
    fam = character_eigen(IntegersZ(), (1, -1), 4)
    chi = character(IntegersZ(), 4)
    assert maharam_check(fam.graph, chi, fam.weight, range(-8, 9)) is None
    broken = OracleFun(lambda v: fam.weight(v) + 1 if v == ('b', 3)
                       else fam.weight(v))
    assert maharam_check(fam.graph, chi, broken, range(-8, 9)) == 3

