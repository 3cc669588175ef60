"""Eigenfunction families, exact residual checks, spoke profiles."""

import argparse
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribbonflow.exact import FieldMixError, QuadNum, sqrt_rational
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


@pytest.mark.parametrize('group, generators, lam, elements', [
    (IntegerLattice(2), ((1, 0), (0, 1), (-1, 0), (0, -1)),
     2 * sqrt_rational(6), [(0, 0), (1, 0), (-2, 3), (5, -1), (-4, -4)]),
    (FreeGroup(2), ((1,), (2,), (-2,), (-1,)), sqrt_rational(858) / 6,
     [(), (1,), (-2,), (1, 2, -1), (2, 2, -1, 2), (-1, -2, 1)]),
], ids=['Z^2', 'free'])
def test_character_on_lattice_and_free_group(group, generators, lam,
                                             elements):
    fam = character_eigen(group, generators, (2, 3))
    assert fam.lam == lam
    report = verify_family(fam, 4)
    assert report.ok and report.vertex_count > 40
    chi = character(group, (2, 3))
    for a in elements:
        for b in elements:
            assert chi(group.op(a, b)) == chi(a) * chi(b)


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
    # the streamed walk adds QuadNums, so it checks the int lift of the
    # values and lam together in verify_eigen
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
    with pytest.raises(TypeError):
        verify_eigen(tree, lambda v: 0.5, 1, 2)
    with pytest.raises(FieldMixError):
        verify_eigen(tree, root_horo.weight, QuadNum(0, 1, 3), 2)


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
