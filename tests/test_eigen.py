"""Eigenfunction families, exact residual checks, spoke profiles."""

import argparse
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribbonflow.exact import FieldMixError, QuadNum, as_quad, sqrt_rational
from ribbonflow import cli
from ribbonflow.graphs import (Cyclic, FreeGroup, Heisenberg, IntegerLattice,
                               IntegersZ, OracleFun, RegularTree, SkewGraph,
                               vertices_in_ball)
from ribbonflow.eigen import (EigenFamily, builtin_families, character,
                              character_eigen, family_eigen, gz_constant,
                              gz_exponential, ntree_constant,
                              ntree_horofunction, spoke_profile,
                              spoke_threshold, tripod_family, verify_eigen,
                              verify_eigen_tree, verify_family)
from ribbonflow.eigen import _KEEP, _block_depth, _chi_values
from ribbonflow.measures import maharam_check

ROOT2 = QuadNum(0, 1, 2)
HALF = Fraction(1, 2)


def test_pow_basics():
    t = QuadNum(Fraction(3, 2))
    assert t ** 0 == 1
    assert t ** 3 == QuadNum(Fraction(27, 8))
    assert t ** -2 == QuadNum(Fraction(4, 9))
    assert ROOT2 ** 2 == 2


@given(st.fractions(min_value=Fraction(1, 5), max_value=5,
                    max_denominator=10),
       st.integers(-6, 6), st.integers(-6, 6))
def test_pow_is_multiplicative(t, a, b):
    t = QuadNum(t)
    assert t ** (a + b) == t ** a * t ** b


def test_power_oracle_refuses_a_vertex_that_is_no_int():
    fam = gz_exponential(2)
    with pytest.raises(TypeError,
                       match=r"pow\(\): 'QuadNum' and 'float'$"):
        fam(3.0)
    assert fam(3) == 8


def test_every_builtin_family_has_zero_residuals():
    for fam in builtin_families():
        report = verify_family(fam, 6)
        assert report.ok, fam.describe()
        assert report.max_abs == 0


def test_builtin_values_are_positive():
    for fam in builtin_families():
        for v in vertices_in_ball(fam.graph, fam.root, 5):
            assert fam(v) > 0, fam.describe()


def test_gz_families():
    fam = gz_constant()
    assert fam.lam == 2
    assert fam(7) == 1
    fam = gz_exponential(2)
    assert fam.lam == QuadNum(Fraction(5, 2))
    assert fam(3) == 8
    assert fam(-2) == QuadNum(Fraction(1, 4))
    assert gz_exponential(ROOT2).lam == QuadNum(0, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        gz_exponential(0)


def test_tripod_values():
    fam = tripod_family(2)
    assert fam.lam == QuadNum(Fraction(5, 2))
    assert fam(('c',)) == 3
    assert fam(('r', 0, 1)) == QuadNum(Fraction(5, 2))
    # recurrence route: lam * f(1) - f(center) = 25/4 - 3
    assert fam(('r', 2, 2)) == QuadNum(Fraction(13, 4))
    fam = tripod_family(ROOT2)
    assert fam.lam == QuadNum(0, Fraction(3, 2), 2)
    assert fam(('r', 1, 2)) == QuadNum(Fraction(3, 2))
    assert fam(('r', 1, 1)) == QuadNum(0, Fraction(3, 2), 2)


def test_tripod_rejects_fast_decay():
    with pytest.raises(ValueError):
        tripod_family(Fraction(6, 5))
    with pytest.raises(ValueError):
        tripod_family(-2)
    tripod_family(ROOT2)  # the boundary decay rate is fine


def test_horofunction_neighbor_ratios_split():
    n, s = 4, QuadNum(Fraction(1, 3))
    fam = ntree_horofunction(n, s)
    graph = fam.graph
    for v in vertices_in_ball(graph, (), 5):
        ratios = sorted(str(fam(w) / fam(v)) for w in graph.neighbors(v))
        assert ratios == sorted([str(1 / s)] + [str(s)] * (n - 1))


@given(st.integers(2, 5),
       st.fractions(min_value=Fraction(1, 6), max_value=4,
                    max_denominator=8))
def test_tree_eigenvalue_respects_spectral_radius(n, s):
    lam = ntree_horofunction(n, s).lam
    assert lam * lam >= 4 * (n - 1)
    assert ntree_constant(n).lam == n


def test_character_on_staircase_skew():
    fam = character_eigen(IntegersZ(), (1, -1), 4)
    assert fam.lam == QuadNum(Fraction(5, 2))
    assert fam(('a', 1)) == QuadNum(Fraction(1, 4))
    assert fam(('b', 1)) == QuadNum(Fraction(1, 8))
    assert fam(('b', 0)) == QuadNum(Fraction(1, 2))
    # the eigenvalue (1+t)/sqrt(t) may widen a rational field
    fam = character_eigen(IntegersZ(), (1, -1), 2)
    assert fam.lam == QuadNum(0, Fraction(3, 2), 2)
    assert character_eigen(IntegersZ(), (1, -1), 1).lam == 2


@pytest.mark.parametrize('group, generators, lam', [
    (IntegerLattice(2), ((1, 0), (0, 1), (-1, 0), (0, -1)),
     2 * sqrt_rational(6)),
    (FreeGroup(2), ((1,), (2,), (-2,), (-1,)), sqrt_rational(858) / 6),
], ids=['Z^2', 'free'])
def test_character_on_lattice_and_free_group(group, generators, lam):
    fam = character_eigen(group, generators, (2, 3))
    assert fam.lam == lam
    report = verify_family(fam, 4)
    assert report.ok and report.vertex_count > 40


def test_character_trivial_gives_valence():
    x, y = (1, 0, 0), (0, 1, 0)
    fam = character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                          (1, 1))
    assert fam.lam == 4
    assert fam(fam.root) == 1
    fam = character_eigen(Cyclic(3), (1, 1, 1), 1)
    assert fam.lam == 3


def test_character_must_respect_relations():
    with pytest.raises(ValueError):
        character_eigen(Cyclic(3), (1, 1, 1), 2)


_FREE2 = FreeGroup(2)
# (group, random elements, number of character values) per encoding
_HOMOMORPHISM_CASES = [
    (IntegersZ(), st.integers(-12, 12), 1),
    (IntegerLattice(2), st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
     2),
    (Cyclic(3), st.integers(-12, 12), 1),
    (_FREE2, st.lists(st.sampled_from((1, -1, 2, -2)), max_size=8).map(
        lambda word: _FREE2.op((), tuple(word))), 2),
    (Heisenberg(), st.tuples(*[st.integers(-6, 6)] * 3), 2),
]


@pytest.mark.parametrize('group, elements, need', _HOMOMORPHISM_CASES,
                         ids=['Z', 'Z^2', 'cyclic', 'free', 'heisenberg'])
@given(data=st.data())
def test_character_is_a_homomorphism(group, elements, need, data):
    # chi(g_n) ... chi(g_1) = chi(e) = 1 on every skew graph's relation,
    # which is why character_eigen checks no relation itself
    positive = st.fractions(min_value=Fraction(1, 9), max_value=9,
                            max_denominator=9)
    values = (1,) if isinstance(group, Cyclic) else tuple(
        data.draw(st.lists(positive, min_size=need, max_size=need)))
    chi = character(group, values)
    a, b = data.draw(elements), data.draw(elements)
    assert chi(group.op(a, b)) == chi(a) * chi(b)
    assert chi(group.identity) == 1


HEIS_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
LATTICE_GENS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# (group, generators, chi) of one character family per group
CHARACTERS = [
    (IntegersZ(), (1, -1), 4),
    (IntegerLattice(2), LATTICE_GENS, (2, 3)),
    (Cyclic(3), (1, 1, 1), 1),
    (FreeGroup(2), ((1,), (2,), (-2,), (-1,)), (2, 3)),
    (Heisenberg(), HEIS_GENS, (HALF, 1)),
]


@pytest.mark.parametrize('group, generators, values', CHARACTERS,
                         ids=['Z', 'Z^d', 'cyclic', 'free', 'heisenberg'])
def test_character_b_values_are_the_neighbour_average(group, generators,
                                                      values):
    # the closed form (delta/lam)/chi(g) at b_g against the route it
    # replaced: the average of the A-neighbours' values against lam
    fam = character_eigen(group, generators, values)
    b_side = [v for v in vertices_in_ball(fam.graph, fam.root, 4)
              if v[0] == 'b']
    assert len(b_side) > 1
    for b in b_side:
        total = sum(map(fam, fam.graph.neighbors(b)), QuadNum(0))
        assert fam(b) == total / fam.lam, b
    chi = character(group, values)
    assert maharam_check(fam.graph, chi, fam.weight,
                         [g for _, g in b_side]) is None


@pytest.mark.parametrize('group, generators, values', CHARACTERS,
                         ids=['Z', 'Z^d', 'cyclic', 'free', 'heisenberg'])
def test_character_weight_multiplies_as_it_divided(monkeypatch, group,
                                                   generators, values):
    # the weight multiplies by the character of the inverse values; the
    # division by chi it replaced gives the same canonical numbers, as
    # does a product by one at A-vertices, which reads make no more
    fam = character_eigen(group, generators, values)
    chi = character(group, values)
    inv_chi = character(group, [1 / v for v in _chi_values(values)])
    delta = sum((QuadNum(1) / chi(eta) for eta in fam.graph.etas),
                QuadNum(0))
    scale = {'a': QuadNum(1), 'b': delta / fam.lam}
    ball = vertices_in_ball(fam.graph, fam.root, 6)
    assert len(ball) >= 6
    products = []
    mul = QuadNum.__mul__

    def counted(x, y):
        products.append(None)
        return mul(x, y)

    for v in ball:
        with monkeypatch.context() as m:
            m.setattr(QuadNum, '__mul__', counted)
            del products[:]
            inv_chi(v[1])
            alone = len(products)
            del products[:]
            got = fam(v)
        # one product at a B-vertex, by delta/lam, none at an A-vertex
        assert len(products) == alone + (v[0] == 'b'), v
        for want in (scale[v[0]] / chi(v[1]), scale[v[0]] * inv_chi(v[1])):
            assert (got._a, got._b, got._q, got._d) == \
                (want._a, want._b, want._q, want._d), v


def test_character_weight_calls_no_graph_method(monkeypatch):
    fam = character_eigen(Heisenberg(), HEIS_GENS, (2, 1))
    ball = vertices_in_ball(fam.graph, fam.root, 3)
    calls = []
    neighbors = SkewGraph.neighbors

    def counted(graph, v):
        calls.append(v)
        return neighbors(graph, v)

    monkeypatch.setattr(SkewGraph, 'neighbors', counted)
    for v in ball:
        fam(v)
    assert calls == []
    # so a residual check fetches the neighbours of each vertex once
    report = verify_family(fam, 3)
    assert report.ok and len(calls) == report.vertex_count


def test_family_eigen_resolves_a_group_name_with_its_size():
    # the character family once resolved a name only on the CLI, so this
    # route raised for want of d
    by_name = family_eigen('character', group='Z^d', d=2,
                           generators=LATTICE_GENS, chi=(2, 3))
    args = argparse.Namespace(group='Z^d', d='2', chi='(2,3)',
                              generators=repr(LATTICE_GENS))
    by_flags = cli._family('character', args)
    assert by_name.graph.group == by_flags.graph.group == IntegerLattice(2)
    direct = character_eigen(IntegerLattice(2), LATTICE_GENS, (2, 3))
    assert by_name.lam == by_flags.lam == direct.lam
    assert by_name.params == by_flags.params
    for v in vertices_in_ball(by_name.graph, by_name.root, 3):
        assert by_name(v) == by_flags(v)
    with pytest.raises(ValueError, match='Group'):
        character_eigen('Z', (1, -1), 4)


def test_cyclic_character_is_trivial():
    # chi(1)^3 = chi(0) = 1: the value 4 passed the relation check of
    # (1, -1) and gave values that are not an eigenfunction
    with pytest.raises(ValueError, match='trivial'):
        character_eigen(Cyclic(3), (1, -1), 4)
    assert verify_family(character_eigen(Cyclic(3), (1, -1), 1), 4).ok


def test_character_rejects_bad_values():
    with pytest.raises(ValueError):
        character(IntegersZ(), -2)
    with pytest.raises(ValueError):
        character(IntegersZ(), (2, 3))
    with pytest.raises(ValueError):
        character(Heisenberg(), 2)


def test_character_eigenvalue_must_stay_quadratic():
    with pytest.raises(ValueError):
        character_eigen(IntegersZ(), (1, -1), 1 + ROOT2)


def test_family_eigen_dispatch():
    assert family_eigen('gz_constant').lam == 2
    assert family_eigen('tripod', t=2).name == 'tripod'
    assert family_eigen('ntree_horo', n=3, s=HALF).lam == 3
    assert family_eigen('ntree_constant', n=5).lam == 5
    fam = family_eigen('character', group='Z', generators=(1, -1), chi=4)
    assert fam.lam == QuadNum(Fraction(5, 2))
    with pytest.raises(ValueError):
        family_eigen('harmonic')


@pytest.mark.parametrize('name,params,missing', [
    ('tripod', {}, 't'),
    ('ntree_horo', {'n': 3}, 's'),
    ('character', {'group': 'Z', 'chi': 4}, 'generators'),
])
def test_family_eigen_names_missing_parameter(name, params, missing):
    with pytest.raises(ValueError, match="%s needs parameter '%s'"
                       % (name, missing)):
        family_eigen(name, **params)


def test_perturbed_constant_residuals_are_local():
    fam = gz_constant()
    bumped = OracleFun(lambda v: 2 if v == 0 else 1)
    report = verify_eigen(fam.graph, bumped, fam.lam, 5)
    assert not report.ok
    got = {v: r for v, r in report.nonzero}
    assert got == {0: QuadNum(-2), -1: QuadNum(1), 1: QuadNum(1)}
    assert report.nonzero_count == 3
    assert report.max_abs == 2


def test_tree_walk_matches_generic_walk():
    # the block walk lifts each block apart, so it checks the one lift of
    # the whole ball's values and lam together in verify_eigen
    tree = RegularTree(3)
    horo = ntree_horofunction(3, HALF)
    root_horo = ntree_horofunction(3, ROOT2 / 2)

    def bumped(fam):
        return OracleFun(lambda v: fam(v) + (1 if v == (0, 1) else 0))

    # (values, lam, radius, nonzero count); an irrational lam against
    # rational values leaves every residual nonzero, all 22 of radius 3
    cases = ((bumped(horo), horo.lam, 5, 4),
             (bumped(root_horo), root_horo.lam, 5, 4),
             (horo.weight, horo.lam + ROOT2, 3, 22))
    for fn, lam, radius, count in cases:
        slow = verify_eigen(tree, fn, lam, radius)
        fast = verify_eigen_tree(tree, fn, lam, radius)
        assert slow.vertex_count == fast.vertex_count
        assert slow.nonzero_count == fast.nonzero_count == count
        assert sorted(slow.nonzero) == sorted(fast.nonzero)
        assert slow.max_abs == fast.max_abs
    for walk in (verify_eigen, verify_eigen_tree):
        with pytest.raises(TypeError):
            walk(tree, lambda v: 0.5, 1, 2)
        with pytest.raises(FieldMixError):
            walk(tree, root_horo.weight, QuadNum(0, 1, 3), 2)


ROOT3 = QuadNum(0, 1, 3)
WALKS = [verify_eigen, verify_eigen_tree]
WRAPS = [OracleFun, lambda fn: fn]


@pytest.mark.parametrize('wrap', WRAPS, ids=['oracle', 'bare'])
@pytest.mark.parametrize('walk', WALKS)
def test_first_bad_value_read_decides_the_error(walk, wrap):
    # both walks read (), (0,) and (1,) first: a field mix met before a
    # float is a FieldMixError, a float met before a mix a TypeError
    tree = RegularTree(3)
    seen = []
    assert walk(tree, wrap(lambda v: seen.append(v) or 1), 3, 2).ok
    first = seen[:3]
    assert first == [(), (0,), (1,)]
    for values, error, match in (
            ((1 + ROOT2, 1 + ROOT3, 0.5), FieldMixError,
             r'^cannot combine sqrt\(2\) with sqrt\(3\)$'),
            ((1 + ROOT2, 0.5, 1 + ROOT3), TypeError,
             r'^not an exact number: 0\.5$')):
        bad = dict(zip(first, values))
        with pytest.raises(error, match=match):
            walk(tree, wrap(lambda v: bad.get(v, 1)), 3, 2)


def _closed_forms():
    """(closed form, lam, nonzero count) on the 3-tree at radius 5, whose
    values are ints, Fractions and parseable strings; bumps leave a few
    nonzero residuals, and an irrational lam against rational values
    leaves all 94, more than a report keeps."""
    horo = ntree_horofunction(3, HALF)
    root_horo = ntree_horofunction(3, ROOT2 / 2)
    bumps = {(0,), (1, 1), (2, 0, 1)}
    return ((lambda v: 1, 3, 0),
            (lambda v: 1 + (v in bumps), 3, 12),
            (lambda v: horo(v).as_fraction(), horo.lam, 0),
            (lambda v: horo(v).as_fraction() + (v in bumps), horo.lam, 12),
            (lambda v: horo(v).as_fraction(), horo.lam + ROOT2, 94),
            (lambda v: str(root_horo(v)), root_horo.lam, 0),
            (lambda v: str(root_horo(v) + (v in bumps)), root_horo.lam, 12))


@pytest.mark.parametrize('walk', WALKS)
def test_bare_closed_form_reports_as_its_oracle_does(walk):
    # the walks read an OracleFun's closed form without its wrapper, and
    # the lift coerces each value as the wrapper did, by as_quad
    tree = RegularTree(3)
    for fn, lam, count in _closed_forms():
        wrapped = walk(tree, OracleFun(fn), lam, 5)
        assert walk(tree, fn, lam, 5) == wrapped
        assert walk(tree, lambda v: as_quad(fn(v)), lam, 5) == wrapped
        assert wrapped.vertex_count == 94
        assert wrapped.nonzero_count == count
        assert len(wrapped.nonzero) == min(count, _KEEP)
    for fn in (lambda v: 0.5, lambda v: 1 if v else 0.5):
        for wrap in WRAPS:
            with pytest.raises(TypeError, match='not an exact number'):
                walk(tree, wrap(fn), 3, 5)


def test_ball_walk_reads_the_oracle_once_per_vertex():
    # the block walk's twin is test_block_walk_reads_each_vertex_once
    fam = ntree_horofunction(3, HALF)
    seen = []

    def value(v):
        seen.append(v)
        return fam(v)

    assert verify_eigen(fam.graph, OracleFun(value), fam.lam, 7).ok
    ball = vertices_in_ball(fam.graph, fam.root, 8)
    assert len(seen) == len(ball) and set(seen) == ball


@pytest.mark.parametrize('walk', [verify_eigen, verify_eigen_tree])
def test_negative_radius_is_refused_on_both_routes(walk):
    with pytest.raises(ValueError, match='radius must be >= 0, got -1'):
        walk(RegularTree(3), ntree_constant(3).weight, 3, -1)


def test_negative_radius_is_refused_for_every_family():
    for fam in (ntree_constant(3), gz_constant()):
        with pytest.raises(ValueError, match='radius must be >= 0'):
            verify_family(fam, -1)


def _tree_oracles(n):
    """(oracle, lam) pairs on the n-tree whose residuals the two walks
    must agree on: bumps at depths 0, 1, k - 1, k and k + 1 of two
    branches, on a rational and an irrational horofunction, and an
    irrational lam against rational values, which leaves every residual
    nonzero."""
    k = _block_depth(n)
    horo = ntree_horofunction(n, HALF)
    root_horo = ntree_horofunction(n, ROOT2 / 2)
    bumps = {()} | {(j,) + (n - 2,) * (depth - 1)
                    for j in (0, n - 1) for depth in (1, k - 1, k, k + 1)}

    def bumped(fam):
        return OracleFun(lambda v: fam(v) + (1 if v in bumps else 0))

    return ((bumped(horo), horo.lam), (bumped(root_horo), root_horo.lam),
            (horo.weight, horo.lam + ROOT2))


@pytest.mark.parametrize('n', [2, 3, 4])
def test_block_walk_matches_the_ball_walk(n):
    k = _block_depth(n)
    tree = RegularTree(n)
    for radius in sorted({0, 1, k - 1, k, k + 1, 2 * k + 1}):
        for fn, lam in _tree_oracles(n):
            ball = verify_eigen(tree, fn, lam, radius)
            blocks = verify_eigen_tree(tree, fn, lam, radius)
            assert blocks.vertex_count == ball.vertex_count
            assert blocks.nonzero_count == ball.nonzero_count > 0
            assert blocks.max_abs == ball.max_abs
            if ball.nonzero_count <= _KEEP:
                assert sorted(blocks.nonzero) == sorted(ball.nonzero)
            else:
                assert len(blocks.nonzero) == len(ball.nonzero) == _KEEP


def test_block_walk_sees_fields_mix_across_blocks():
    # two sibling pairs just past the radius carry 1 +- sqrt(2) and
    # 1 +- sqrt(3): every residual stays 0, no one block holds both
    # fields, and the ball route's one lift sees them together
    tree = RegularTree(3)
    radius = _block_depth(3) + 1

    def pair(branch, root):
        path = (branch,) + (1,) * (radius - 1)
        return {path + (0,): 1 + root, path + (1,): 1 - root}

    one = pair(0, ROOT2)
    both = {**one, **pair(2, QuadNum(0, 1, 3))}
    assert verify_eigen_tree(tree, OracleFun(lambda v: one.get(v, 1)), 3,
                             radius).ok
    fn = OracleFun(lambda v: both.get(v, 1))
    mix = r'^cannot combine sqrt\(%d\) with sqrt\(%d\)$'
    for walk in (verify_eigen, verify_eigen_tree):
        with pytest.raises(FieldMixError, match=mix % (2, 3)):
            walk(tree, fn, 3, radius)
    # the block walk names the field its earlier blocks saw first, here
    # lam's; the ball walk's one lift meets lam last
    three = pair(2, QuadNum(0, 1, 3))
    fn = OracleFun(lambda v: three.get(v, 1))
    for walk, fields in ((verify_eigen, (3, 2)), (verify_eigen_tree, (2, 3))):
        with pytest.raises(FieldMixError, match=mix % fields):
            walk(tree, fn, ROOT2, radius)


@pytest.mark.parametrize('radius', [0, 1, 7, 9])
def test_block_walk_reads_each_vertex_once(radius):
    fam = ntree_horofunction(3, HALF)
    seen = []

    def value(v):
        seen.append(v)
        return fam(v)

    report = verify_eigen_tree(fam.graph, OracleFun(value), fam.lam, radius)
    assert report.ok
    ball = vertices_in_ball(fam.graph, fam.root, radius + 1)
    assert len(seen) == len(ball)
    assert set(seen) == ball


_RESIDUAL_ORDER = """
from ribbonflow.eigen import tripod_family, verify_eigen
from ribbonflow.graphs import OracleFun
fam = tripod_family(2)
bumps = (('r', 0, 5), ('r', 2, 3))
fn = OracleFun(lambda v: fam(v) + (1 if v in bumps else 0))
print([v for v, _ in verify_eigen(fam.graph, fn, fam.lam, 8).nonzero])
"""


def test_residuals_come_in_ring_order_under_any_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / 'src')
    path = os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')]))
    outs = {subprocess.run([sys.executable, '-c', _RESIDUAL_ORDER],
                           env=dict(os.environ, PYTHONPATH=path,
                                    PYTHONHASHSEED=seed),
                           capture_output=True, text=True, timeout=60,
                           check=True).stdout
            for seed in ('0', '1', '2')}
    assert len(outs) == 1
    # ring k of the tripod holds position k of rays 0, 1 and 2 in turn
    want = [('r', 2, 2), ('r', 2, 3), ('r', 0, 4), ('r', 2, 4), ('r', 0, 5),
            ('r', 0, 6)]
    assert outs.pop() == '%r\n' % want


_BLOCK_ORDER = """
from ribbonflow.eigen import ntree_constant, verify_eigen_tree
from ribbonflow.graphs import OracleFun
fam = ntree_constant(3)
bumps = ((2, 0), (0, 1, 1), (0, 0, 0, 0))
fn = OracleFun(lambda v: 1 + (v in bumps))
print([v for v, _ in verify_eigen_tree(fam.graph, fn, fam.lam, 7).nonzero])
"""


def test_tree_residuals_come_in_block_order_under_any_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / 'src')
    path = os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')]))
    outs = {subprocess.run([sys.executable, '-c', _BLOCK_ORDER],
                           env=dict(os.environ, PYTHONPATH=path,
                                    PYTHONHASHSEED=seed),
                           capture_output=True, text=True, timeout=60,
                           check=True).stdout
            for seed in ('0', '1', '2')}
    assert len(outs) == 1
    # radius 7 on the 3-tree: the root's block covers depths 0 and 1, and
    # 6-deep blocks hang from the depth-2 vertices; blocks come depth
    # first in child order, and each lists its vertices ring by ring
    want = [(2,),
            (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 1),
            (0, 1), (0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1),
            (2, 0), (2, 0, 0), (2, 0, 1)]
    assert outs.pop() == '%r\n' % want


def test_block_walk_memory_stays_far_below_the_ball():
    fam = ntree_horofunction(3, HALF)
    peaks = []
    for walk in (verify_eigen, verify_eigen_tree):
        tracemalloc.start()
        try:
            assert walk(fam.graph, fam.weight, fam.lam, 12).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    ball, blocks = peaks
    assert blocks * 20 < ball, peaks


@pytest.mark.parametrize('fam', [ntree_constant(3),
                                 ntree_horofunction(3, HALF)])
def test_streamed_tree_family_matches_ball_walk(fam):
    streamed = verify_family(fam, 6)
    walked = verify_eigen(fam.graph, fam.weight, fam.lam, 6)
    assert streamed.vertex_count == walked.vertex_count == 1 + 3 * (2**6 - 1)
    assert streamed.nonzero == walked.nonzero == ()
    assert streamed.nonzero_count == walked.nonzero_count == 0
    assert streamed.max_abs == walked.max_abs == 0


def test_report_formatting():
    rep = verify_family(gz_constant(), 3)
    assert 'all zero' in str(rep)
    assert rep.vertex_count == 7


def test_spoke_profile_values():
    assert spoke_profile(2, 6) == tuple(QuadNum(j) for j in range(1, 7))
    assert spoke_profile(Fraction(5, 2), 3) == \
        (QuadNum(1), QuadNum(Fraction(5, 2)), QuadNum(Fraction(21, 4)))
    assert spoke_profile(2, 1) == (QuadNum(1),)
    with pytest.raises(ValueError):
        spoke_profile(Fraction(3, 2), 4)
    with pytest.raises(ValueError):
        spoke_profile(2, 0)


@pytest.mark.parametrize('lam', [QuadNum(2), QuadNum(Fraction(5, 2)),
                                 QuadNum(0, Fraction(3, 2), 2), QuadNum(3)])
def test_spoke_profile_satisfies_recurrence(lam):
    w = spoke_profile(lam, 8)
    for j in range(2, 8):
        assert w[j] == lam * w[j - 1] - w[j - 2]
    assert all(val > 0 for val in w)


def test_spoke_threshold_values():
    assert spoke_threshold(2) == 1
    assert spoke_threshold(Fraction(5, 2)) == QuadNum(Fraction(1, 2))
    assert spoke_threshold(QuadNum(0, Fraction(3, 2), 2)) == \
        QuadNum(0, Fraction(1, 2), 2)
    assert spoke_threshold(3) == QuadNum(Fraction(3, 2), Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        spoke_threshold(1)


def test_neighbor_ratios_meet_the_spoke_bound():
    for fam in builtin_families():
        try:
            bound = spoke_threshold(fam.lam)
        except FieldMixError:
            # threshold radical incompatible with the family's field
            continue
        for v in vertices_in_ball(fam.graph, fam.root, 4):
            fv = fam(v)
            for w in fam.graph.neighbors(v):
                assert fam(w) / fv >= bound, fam.describe()
