"""Release checklist: one test per acceptance item, at the stated
tolerances.  Everything except the statistical occupation check is
exact arithmetic."""

import random
import time
from fractions import Fraction

import pytest

from ribbonflow.dynamics import (FloatState, SurfacePoint, flow_to_next_edge,
                                 flow_to_next_edge_float, hpoint, iet_step,
                                 iet_step_float, resolve, skew_orbit_float,
                                 skew_step)
from ribbonflow.eigen import (builtin_families, character_eigen, gz_constant,
                              gz_exponential, ntree_constant, spoke_profile,
                              tripod_family, verify_family)
from ribbonflow.exact import QuadNum, QVec2, SignPair, sqrt_rational
from ribbonflow.freegrp import (H, H_INV, V, V_INV, Letter, Word, bar, gamma,
                                rho, rho_letter, sign_act_letter)
from ribbonflow.graphs import (Heisenberg, IntegersZ, SkewGraph, SparseFun,
                               adjacency, chi, pairing, project_class,
                               upsilon, vertices_in_ball)
from ribbonflow.measures import (conjugate_boundary_point, decay_profile,
                                 plane_point, survivor_check)
from ribbonflow.renorm import (OmegaKind, TailStatus, critical_times,
                               direction_from_sequence, omega_test,
                               shrinking_sequence)
from ribbonflow.surface import Surface, ball_growth

GENS = (H, H_INV, V, V_INV)
LAMBDAS = (QuadNum(2), QuadNum('5/2'), QuadNum(3))
ALPHA = sqrt_rational(2) / 2
THETA2 = (QuadNum(1), QuadNum('-1+sqrt(2)'))
THETA41 = (QuadNum(4), QuadNum('-5+sqrt(41)'))
THETA34 = (QuadNum(3), QuadNum('-5+sqrt(34)'))
THETA13 = (QuadNum(2), QuadNum('-3+sqrt(13)'))


def random_word(rng, max_len):
    letters = []
    last = None
    for _ in range(rng.randint(0, max_len)):
        options = [l for l in GENS if last is None or l != last.inverse()]
        last = rng.choice(options)
        letters.append(last)
    return Word(letters)


def random_sparse(rng, verts):
    pairs = []
    for _ in range(rng.randint(1, 4)):
        c = Fraction(rng.choice([j for j in range(-9, 10) if j]),
                     rng.randint(1, 9))
        pairs.append((rng.choice(verts), QuadNum(c)))
    return SparseFun(pairs)


def staircase():
    g = SkewGraph(IntegersZ(), (1, -1))
    w = QuadNum(Fraction(1, 2))
    return Surface(g, lambda v: w, 2)


def stair_theta(alpha):
    half = QuadNum(Fraction(1, 2))
    return (QuadNum(alpha) - half, half)


def gz_pair():
    return gz_constant(), gz_exponential(2), THETA2, THETA41, \
        shrinking_sequence(2, THETA2)


def tripod_pair():
    return tripod_family(2), tripod_family(3), THETA41, THETA34, \
        shrinking_sequence(QuadNum('5/2'), THETA41)


def test_c01_shear_representation_exact_and_under_five_seconds():
    rng = random.Random(101)
    words = [random_word(rng, 12) for _ in range(1000)]
    t0 = time.perf_counter()
    for i, w in enumerate(words):
        lam = LAMBDAS[i % 3]
        k = rng.randint(0, len(w))
        m = rho(lam, w)
        assert m == rho(lam, w[:k]) * rho(lam, w[k:])
        assert rho(lam, gamma(w)) == m.inverse_transpose()
        if i % 4 == 0 and i + 1 < len(words):
            # adjacent pairs may cancel, unlike the splits above
            w2 = words[i + 1]
            assert rho(lam, w * w2) == m * rho(lam, w2)
    assert time.perf_counter() - t0 < 5.0


def test_c02_sign_table_matches_matrix_quadrants():
    rng = random.Random(202)
    for lam in LAMBDAS:
        for letter in GENS:
            m = rho_letter(lam, letter)
            for s in SignPair:
                want = sign_act_letter(letter, s)
                found = 0
                tries = 0
                while found < 100:
                    tries += 1
                    assert tries < 50000
                    x = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                    y = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                    v = QVec2(QuadNum(x * s.sx), QuadNum(y * s.sy))
                    img = m * v
                    old = max(abs(v.x), abs(v.y))
                    if not max(abs(img.x), abs(img.y)) > old:
                        continue
                    found += 1
                    assert img.quadrant() is want


def test_c03_period_two_benchmark_directions():
    data = shrinking_sequence(2, THETA2)
    assert data.status is TailStatus.PERIODIC
    assert data.period == (0, 2)
    for i, letter in enumerate(data.increments):
        assert letter == (H_INV if i % 2 == 0 else V_INV)
    ratio = QuadNum('3-2*sqrt(2)')
    for k in range(len(data.vectors) - 2):
        assert data.vectors[k + 2].x == ratio * data.vectors[k].x
        assert data.vectors[k + 2].y == ratio * data.vectors[k].y
    assert critical_times(data) == tuple(range(1, len(data.signs)))

    data3 = shrinking_sequence(3, THETA13)
    assert data3.status is TailStatus.PERIODIC
    for i, letter in enumerate(data3.increments):
        assert letter == (H_INV if i % 2 == 0 else V_INV)
    fixed = direction_from_sequence(3, period=tuple(data3.increments[:2]))
    slope = QuadNum('-3/2+1/2*sqrt(13)')
    assert fixed.y / fixed.x == slope
    assert THETA13[1] / THETA13[0] == slope


def test_c04_eigen_residuals_vanish_on_radius_20_balls():
    for fam in builtin_families():
        report = verify_family(fam, 20)
        assert report.ok, fam.describe()
        assert report.max_abs == QuadNum(0)
        if fam.name.startswith('ntree'):
            # every vertex of the regular 3-tree's radius-20 ball
            assert report.vertex_count == 1 + 3 * (2 ** 20 - 1)
    assert spoke_profile(2, 12) == tuple(QuadNum(i) for i in range(1, 13))


def test_c05_operator_identities_on_random_compact_functions():
    rng = random.Random(505)
    for fam in (gz_constant(), tripod_family(2), ntree_constant(3)):
        g = fam.graph
        verts = sorted(vertices_in_ball(g, fam.root, 3), key=repr)
        for _ in range(200):
            x = random_sparse(rng, verts)
            f = random_sparse(rng, verts)
            w = random_word(rng, 5)
            k = rng.choice([-6, -3, -1, 1, 2, 4, 7])
            ax = adjacency(g, x)
            assert adjacency(g, upsilon(g, Word([H]), x)) == \
                upsilon(g, Word([V]), ax)
            assert pairing(upsilon(g, Word([H]), f), x) == \
                pairing(f, upsilon(g, Word([V]), x))
            assert upsilon(g, Word([Letter('h', k)]), f) == \
                f + k * project_class(g, adjacency(g, f), 'a')
            assert adjacency(g, upsilon(g, w, x)) == \
                upsilon(g, bar(w), ax)
            assert upsilon(g, w, x) - x == chi(g, ax, w, SparseFun.zero())


def test_c06_geometric_flow_matches_interval_formula():
    cases = (
        (staircase(), stair_theta(ALPHA), ('a', 0), Fraction(1, 7)),
        (Surface.from_family(tripod_family(2)), THETA41, ('c',),
         Fraction(3, 11)),
    )
    for s, theta, a0, start in cases:
        theta_f = (float(theta[0]), float(theta[1]))
        p = hpoint(s, a0, QuadNum(start))
        for _ in range(10000):
            e, o = resolve(s, p)
            entry = SurfacePoint(s.north(e), o, QuadNum(0))
            q = iet_step(s, theta, p)
            assert flow_to_next_edge(s, theta, entry) == q
            a_f, t_f = flow_to_next_edge_float(s, theta_f, s.north(e),
                                               float(o), 0.0)
            q_f = iet_step_float(s, theta_f, FloatState(p.a, float(p.t)))
            assert a_f == q_f.a
            assert abs(t_f - q_f.t) <= 1e-9
            p = q


def test_c07_survivors_pass_and_perturbed_directions_fail():
    for make in (gz_pair, tripod_pair):
        fam1, fam2, theta1, theta2, data = make()
        g = fam1.graph
        window = sorted(vertices_in_ball(g, fam1.root, 12), key=repr)
        f = plane_point(g, fam2.weight, theta2)
        assert survivor_check(g, f, data, 12, window) is None
        bumped = (theta2[0], theta2[1] + QuadNum('1/1000'))
        witness = survivor_check(g, plane_point(g, fam2.weight, bumped),
                                 data, 12, window)
        assert witness is not None
        assert witness.n <= 12


def test_c08_decay_monotone_and_halved_by_last_critical_time():
    rng = random.Random(808)
    for make in (gz_pair, tripod_pair):
        fam1, fam2, theta1, theta2, data = make()
        g = fam1.graph
        f = plane_point(g, fam2.weight, theta2)
        verts = sorted(vertices_in_ball(g, fam1.root, 12), key=repr)
        last_critical = [n for n in critical_times(data) if n <= 12][-1]
        for v in rng.sample(verts, 20):
            profile = decay_profile(g, f, v, data, 12)
            assert profile.nonincreasing
            assert profile.values[last_critical] <= profile.values[0] / 2


def test_c09_growth_recurrence_with_tree_equalities():
    x, y = (1, 0, 0), (0, 1, 0)
    heis = character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                           (1, 1))
    # equality needs every layer vertex to carry exactly one outward
    # cylinder; sibling cylinders through a branching vertex share
    # boundary, which leaves the 3-tree and the Heisenberg graph
    # strictly below the bound
    cases = (
        (gz_constant(), True),
        (tripod_family(2), True),
        (ntree_constant(3), False),
        (heis, False),
    )
    for fam, expect_equality in cases:
        lam = QuadNum(fam.lam)
        lengths, sides = ball_growth(Surface.from_family(fam), 10)
        defects = [lam * lengths[n] - lengths[n - 1] - lengths[n + 1]
                   for n in range(1, 10)]
        assert all(d >= QuadNum(0) for d in defects)
        if expect_equality:
            assert all(d == QuadNum(0) for d in defects)
        else:
            assert any(d > QuadNum(0) for d in defects)


def test_c10_skew_rotation_matches_staircase_interval_map():
    s = staircase()
    theta = stair_theta(ALPHA)
    group, gens = s.graph.group, s.graph.generators
    state = (QuadNum(Fraction(1, 7)), 0)
    p = hpoint(s, ('a', 0), state[0])
    for _ in range(10000):
        state = skew_step(2, ALPHA, group, gens, state)
        p = iet_step(s, theta, p)
        assert p.a == ('a', state[1])
        assert p.t == state[0]


def test_c11_direction_classification_fixtures():
    res = omega_test(2, Fraction(1, 3))
    assert res.kind is OmegaKind.NOT_IN_OMEGA
    assert 'rational' in res.reason

    res = omega_test(2, ALPHA)
    assert res.kind is OmegaKind.IN_OMEGA
    assert res.data.status is TailStatus.PERIODIC

    res = omega_test(3, QuadNum('5/6+1/6*sqrt(5)'))
    assert res.kind is OmegaKind.NOT_IN_OMEGA
    assert 'excluded tail' in res.reason


def test_c12_conjugacy_sends_full_bottom_edges_to_full_widths():
    for make in (gz_pair, tripod_pair):
        fam1, fam2, theta1, theta2, data = make()
        s1 = Surface.from_family(fam1)
        s2 = Surface.from_family(fam2)
        e = s1.graph.base_edge(fam1.root)
        res = conjugate_boundary_point(s1, s2, theta1, theta2, e, 'bottom',
                                       s1.width(e), 14)
        want = s2.width(e)
        assert abs(res.x - want) <= QuadNum('1/1000000')
        assert res.x == want
        assert res.y == QuadNum(0)
        assert res.error == QuadNum(0)


@pytest.mark.slow_nongating
def test_c13_occupation_ratio_of_unit_cells():
    # statistical only: returns to one fiber correlate with the circle
    # coordinate, so this ratio equidistributes very slowly
    orbit = skew_orbit_float(2, float(ALPHA), IntegersZ(), (1, -1),
                             (0.04, 0), 1000000)
    lo = sum(1 for x, g in orbit if g == 0 and x < 0.5)
    hi = sum(1 for x, g in orbit if g == 0 and x >= 0.5)
    assert lo and hi
    assert 0.9 <= lo / hi <= 1.1
