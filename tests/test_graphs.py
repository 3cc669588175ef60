"""Graph families, group encodings, and the operator calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonflow.exact import QuadNum
from ribbonflow.freegrp import (H, H_INV, IDENTITY, LETTERS, V, V_INV, Letter,
                                Word, bar, gamma)
from ribbonflow.graphs import (Cyclic, FreeGroup, Heisenberg, IntegerLattice,
                               IntegersZ, OracleFun, PathGraph, RegularTree,
                               RibbonGraph, SkewGraph, SparseFun, TripodGraph,
                               adjacency,
                               _numbered_ball, _shear, chi, make_group,
                               pairing, project_class, upsilon, upsilon_eval,
                               vertices_in_ball)
from ribbonflow.surface import Surface

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

words = st.lists(st.sampled_from(LETTERS), max_size=5).map(Word)

X = (1, 0, 0)
Y = (0, 1, 0)
X_INV = (-1, 0, 0)
Y_INV = (0, -1, 0)

GRAPHS = [
    ('gz', PathGraph(), 0),
    ('tripod', TripodGraph(), ('c',)),
    ('ntree3', RegularTree(3), ()),
    ('staircase', SkewGraph(IntegersZ(), (1, -1)), ('a', 0)),
    ('heisenberg', SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV)),
     ('a', (0, 0, 0))),
]


@st.composite
def sparse_funs(draw):
    data = draw(st.dictionaries(st.integers(min_value=-6, max_value=6),
                                rationals, max_size=5))
    return SparseFun(data)


# --- graph families ---

@pytest.mark.parametrize('name,graph,root', GRAPHS)
def test_edges_join_a_to_b(name, graph, root):
    for v in vertices_in_ball(graph, root, 4):
        for e in graph.edges_at(v):
            a, b = graph.alpha(e), graph.beta(e)
            assert graph.vertex_class(a) == 'a'
            assert graph.vertex_class(b) == 'b'
            assert e in graph.edges_at(a)
            assert e in graph.edges_at(b)
            assert v in (a, b)


@pytest.mark.parametrize('name,graph,root', GRAPHS)
def test_rotations_cycle_through_star(name, graph, root):
    # the gluings read no weight: east/west turn about the A-end of an
    # edge, north/south about its B-end
    surface = Surface(graph, None, 1)
    for v in vertices_in_ball(graph, root, 3):
        about_a = graph.vertex_class(v) == 'a'
        step = surface.east if about_a else surface.north
        back = surface.west if about_a else surface.south
        start = graph.base_edge(v)
        seen = []
        e = start
        while True:
            seen.append(e)
            assert back(step(e)) == e
            e = step(e)
            if e == start:
                break
        assert sorted(map(repr, seen)) == \
            sorted(map(repr, graph.edges_at(v)))


@pytest.mark.parametrize('name,graph,root', GRAPHS)
def test_neighbors_match_edge_ends(name, graph, root):
    for v in vertices_in_ball(graph, root, 3):
        ends = [(graph.alpha(e), graph.beta(e)) for e in graph.edges_at(v)]
        assert graph.neighbors(v) == tuple(a if b == v else b
                                           for a, b in ends)


def _raises(*args):
    raise AssertionError('neighbors read the near end of an edge')


def test_neighbors_read_one_end(monkeypatch):
    # an A-vertex's neighbours are the B-ends of its edges, and a
    # B-vertex's the A-ends: the near end is never computed
    graph = SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV))
    a, b = ('a', (1, 2, 3)), ('b', (1, 2, 3))
    want = graph.neighbors(a), graph.neighbors(b)
    with monkeypatch.context() as patch:
        patch.setattr(SkewGraph, 'alpha', _raises)
        assert graph.neighbors(a) == want[0]
    with monkeypatch.context() as patch:
        patch.setattr(SkewGraph, 'beta', _raises)
        assert graph.neighbors(b) == want[1]
    # and so does the edge-derived default the closed form replaces
    with monkeypatch.context() as patch:
        patch.setattr(SkewGraph, 'alpha', _raises)
        assert RibbonGraph.neighbors(graph, a) == want[0]
    with monkeypatch.context() as patch:
        patch.setattr(SkewGraph, 'beta', _raises)
        assert RibbonGraph.neighbors(graph, b) == want[1]


# every builtin graph, with the six skew cases of the skew-surface checks:
# Z twice, Z^2, Heisenberg, the free group on 2 letters and Z/3
CLOSED_FORM_GRAPHS = [
    ('path', PathGraph()),
    ('tripod', TripodGraph()),
    ('tree2', RegularTree(2)),
    ('tree3', RegularTree(3)),
    ('z', SkewGraph(IntegersZ(), (1, -1))),
    ('z-three', SkewGraph(IntegersZ(), (2, -1, -1))),
    ('z2', SkewGraph(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))),
    ('heisenberg', SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV))),
    ('free2', SkewGraph(FreeGroup(2), ((1,), (-1,), (2,), (-2,)))),
    ('cyclic3', SkewGraph(Cyclic(3), (1, 2))),
]


@pytest.mark.parametrize('name,graph', CLOSED_FORM_GRAPHS,
                         ids=[c[0] for c in CLOSED_FORM_GRAPHS])
def test_closed_form_neighbors_are_the_edge_derived_ones(name, graph):
    # the same tuple: order, multiplicity and (for Z/3's double edges)
    # repeats included
    assert type(graph).neighbors is not RibbonGraph.neighbors
    ball = _numbered_ball(graph, (graph.root(),), 6)[1]
    assert len(ball) >= 6
    for v in ball:
        assert graph.neighbors(v) == RibbonGraph.neighbors(graph, v), v


big_ints = st.integers(-10 ** 30, 10 ** 30)


@given(a=big_ints, b=big_ints, d=st.integers(1, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_builtin_group_ops_are_the_python_bodies(a, b, d, data):
    # Z adds by operator.add and Z^d by map(operator.add): the same
    # elements as the Python bodies they replaced
    assert IntegersZ().op(a, b) == a + b
    elements = st.tuples(*[big_ints] * d)
    u, v = data.draw(elements), data.draw(elements)
    assert IntegerLattice(d).op(u, v) == tuple(x + y for x, y in zip(u, v))


SKEW_NEIGHBORS = {
    'z': (SkewGraph(IntegersZ(), (1, -1)), st.integers(-10 ** 20, 10 ** 20)),
    'z2': (SkewGraph(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1))),
           st.tuples(big_ints, big_ints)),
    'heisenberg': (SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV)),
                   st.tuples(big_ints, big_ints, big_ints)),
}


@given(data=st.data(), name=st.sampled_from(sorted(SKEW_NEIGHBORS)),
       kind=st.sampled_from('ab'))
@settings(max_examples=100, deadline=None)
def test_skew_neighbors_are_the_edge_derived_ones_anywhere(data, name, kind):
    # far from the root too, where the ball checks above do not reach
    graph, elements = SKEW_NEIGHBORS[name]
    v = (kind, data.draw(elements))
    assert graph.neighbors(v) == RibbonGraph.neighbors(graph, v)


@pytest.mark.parametrize('name,graph', CLOSED_FORM_GRAPHS,
                         ids=[c[0] for c in CLOSED_FORM_GRAPHS])
def test_closed_form_neighbors_number_the_ball_as_before(name, graph,
                                                         monkeypatch):
    root = graph.root()
    near = _numbered_ball(graph, (root,), 2)[1]
    cases = [((root,), 6), ((near[-1], root, near[-1], near[1]), 4)]
    got = [_numbered_ball(graph, sources, r) for sources, r in cases]
    monkeypatch.setattr(type(graph), 'neighbors', RibbonGraph.neighbors)
    assert got == [_numbered_ball(graph, sources, r) for sources, r in cases]


def test_gz_layout():
    g = PathGraph()
    assert g.vertex_class(0) == 'a'
    assert g.vertex_class(1) == 'b'
    assert (g.alpha(0), g.beta(0)) == (0, 1)
    assert (g.alpha(1), g.beta(1)) == (2, 1)
    assert g.neighbors(0) == (-1, 1)
    assert g.neighbors(3) == (2, 4)


def test_tripod_center_and_rays():
    g = TripodGraph()
    assert g.vertex_class(('c',)) == 'a'
    assert len(g.edges_at(('c',))) == 3
    assert (g.alpha(('e', 1, 1)), g.beta(('e', 1, 1))) == \
        (('c',), ('r', 1, 1))
    assert (g.alpha(('e', 1, 2)), g.beta(('e', 1, 2))) == \
        (('r', 1, 2), ('r', 1, 1))
    assert g.neighbors(('r', 0, 2)) == (('r', 0, 1), ('r', 0, 3))
    assert g.vertex_class(('r', 2, 5)) == 'b'


def test_ntree_valence_is_constant():
    g = RegularTree(3)
    for v in [(), (0,), (2, 1), (1, 0, 1)]:
        assert len(g.edges_at(v)) == 3
    assert g.neighbors((0,)) == ((), (0, 0), (0, 1))
    with pytest.raises(ValueError):
        RegularTree(1)
    for n in (Fraction(5, 2), QuadNum('5/2'), 2.0):
        with pytest.raises(ValueError, match='integer'):
            RegularTree(n)


def test_skew_requires_cyclically_trivial_generators():
    SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV))
    with pytest.raises(ValueError):
        SkewGraph(Heisenberg(), (X, Y, X_INV, Y_INV))
    with pytest.raises(ValueError):
        SkewGraph(IntegersZ(), (1, 1))
    with pytest.raises(ValueError):
        SkewGraph(IntegersZ(), ())


@pytest.mark.parametrize('group, members, strangers', [
    (IntegersZ(), (0, -3, 7), (1.5, '1', (1,), True)),
    (Cyclic(3), (0, 2, -1), (1.5, (1,))),
    (IntegerLattice(2), ((0, 0), (1, -5)), ((1, 0, 5), (1,), [1, 0], 1,
                                            (1.0, 0))),
    (Heisenberg(), ((0, 0, 0), (1, -1, 2)), (1, (1, 0), [1, 0, 0])),
    (FreeGroup(2), ((), (1, -2, -2), (2,)), ((3,), (0,), (1, -1), 1,
                                            [1])),
], ids=repr)
def test_group_membership(group, members, strangers):
    for a in members:
        assert a in group
        group.check(a)
    for a in strangers:
        assert a not in group
        with pytest.raises(ValueError, match='is not an element of %s'
                           % type(group).__name__):
            group.check(a)


def test_skew_graph_checks_its_generators():
    # IntegerLattice.op zips, so a 3-tuple in Z^2 used to pass silently
    with pytest.raises(ValueError, match=r'^\(1, 0, 5\) is not an element '
                       r'of IntegerLattice\(d=2\)$'):
        SkewGraph(IntegerLattice(2), ((1, 0, 5), (-1, 0, -5)))
    with pytest.raises(ValueError, match='^1 is not an element'):
        SkewGraph(Heisenberg(), (1, -1))
    for bad in (0, 'x', 1.5):
        with pytest.raises(ValueError, match='must be a positive integer'):
            Cyclic(bad)


def test_staircase_skew_is_the_integer_path():
    skew = SkewGraph(IntegersZ(), (1, -1))
    path = PathGraph()

    def embed(v):
        kind, g = v
        return 2 * g if kind == 'a' else 2 * g + 1

    for v in vertices_in_ball(skew, ('a', 0), 6):
        got = sorted(embed(w) for w in skew.neighbors(v))
        want = sorted(path.neighbors(embed(v)))
        assert got == want


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3)), min_size=2, max_size=3))
def test_heisenberg_axioms(elts):
    grp = Heisenberg()
    a, b = elts[0], elts[1]
    c = elts[2] if len(elts) > 2 else grp.identity
    assert grp.op(grp.op(a, b), c) == grp.op(a, grp.op(b, c))
    assert grp.op(a, grp.inv(a)) == grp.identity
    assert grp.op(grp.inv(a), a) == grp.identity
    assert grp.op(a, grp.identity) == a


def test_free_group_reduces():
    grp = FreeGroup(2)
    assert grp.op((1, 2), (-2, -1)) == ()
    assert grp.op((1,), (1,)) == (1, 1)
    assert grp.inv((1, -2)) == (2, -1)


def test_cyclic_and_lattice():
    cyc = Cyclic(3)
    assert cyc.op(2, 2) == 1
    assert cyc.inv(1) == 2
    lat = IntegerLattice(2)
    assert lat.op((1, 2), (3, -5)) == (4, -3)
    assert lat.inv((1, -1)) == (-1, 1)
    assert lat.identity == (0, 0)


def test_make_group_dispatch():
    assert isinstance(make_group('heisenberg'), Heisenberg)
    assert make_group('Z^d', d=2, m=5).identity == (0, 0)
    with pytest.raises(ValueError):
        make_group('tetrahedral')
    with pytest.raises(ValueError, match="group Z\\^d needs parameter 'd'"):
        make_group('Z^d')


def test_groups_compare_by_value():
    assert make_group('Z') == IntegersZ()
    assert hash(make_group('Z^d', d=2)) == hash(IntegerLattice(2))
    assert Cyclic(3) != Cyclic(4)
    assert IntegerLattice(1) != FreeGroup(1)
    assert vars(SkewGraph(IntegersZ(), (1, -1))) == \
        vars(SkewGraph(make_group('Z'), (1, -1)))


RING_GRAPHS = [g for g in GRAPHS if g[0] != 'staircase']


@pytest.mark.parametrize('name,graph,root', RING_GRAPHS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rings_are_distance_shells(name, graph, root, data):
    near = sorted(vertices_in_ball(graph, root, 2), key=repr)
    sources = data.draw(st.lists(st.sampled_from(near), min_size=1,
                                 max_size=4))
    radius = data.draw(st.integers(min_value=0, max_value=4))
    rings = _numbered_ball(graph, sources, radius)[0]
    assert len(rings) == radius + 1
    assert rings[0] == tuple(dict.fromkeys(sources))
    flat = [v for ring in rings for v in ring]
    assert len(flat) == len(set(flat))
    for k in range(1, radius + 1):
        earlier = {u for ring in rings[:k - 1] for u in ring}
        for v in rings[k]:
            near_v = set(graph.neighbors(v))
            assert near_v & set(rings[k - 1])
            assert not near_v & earlier
        # and ring k holds every new neighbour of ring k - 1
        close = earlier.union(rings[k - 1], rings[k])
        assert {w for u in rings[k - 1] for w in graph.neighbors(u)} <= close


def _ring_numbering(graph, sources, radius):
    """The numbered ball as it was built from a separate ring walk, kept
    as the oracle for the one-pass walk: ring k + 1 holds the unseen
    neighbours of ring k in first-fetch order, and the numbers and
    neighbour indices are read off the finished rings."""
    neighbours = []
    rings = [tuple(dict.fromkeys(sources))]
    seen = set(rings[0])
    for _ in range(radius):
        fetched = tuple(map(graph.neighbors, rings[-1]))
        neighbours += fetched
        ring = tuple(dict.fromkeys(w for ws in fetched for w in ws
                                   if w not in seen))
        seen.update(ring)
        rings.append(ring)
    order = [u for ring in rings for u in ring]
    index = {u: i for i, u in enumerate(order)}
    nbrs = [[index[w] for w in ws] for ws in neighbours]
    return rings, order, index, nbrs


WALK_CASES = [
    ('path', PathGraph(), 16),
    ('tripod', TripodGraph(), 10),
    ('ntree3', RegularTree(3), 6),
    ('heisenberg', SkewGraph(Heisenberg(), (X, X_INV, Y, Y_INV)), 5),
]


@pytest.mark.parametrize('name,graph,radius', WALK_CASES,
                         ids=[c[0] for c in WALK_CASES])
def test_one_pass_walk_numbers_as_the_ring_walk(name, graph, radius):
    root = graph.root()
    for r in range(radius + 1):
        assert _numbered_ball(graph, (root,), r) == \
            _ring_numbering(graph, (root,), r), r
    # several sources, repeated, in any order, and radius 0
    near = _ring_numbering(graph, (root,), 2)[1]
    sources = (near[-1], root, near[-1], near[1], root)
    for r in (0, 1, 3):
        assert _numbered_ball(graph, sources, r) == \
            _ring_numbering(graph, sources, r), r
    assert vertices_in_ball(graph, root, radius) == set(
        _ring_numbering(graph, (root,), radius)[1])


@pytest.mark.parametrize('name,graph,radius', WALK_CASES,
                         ids=[c[0] for c in WALK_CASES])
def test_walks_refuse_a_negative_radius(name, graph, radius):
    with pytest.raises(ValueError, match='radius must be >= 0'):
        _numbered_ball(graph, (graph.root(),), -1)
    with pytest.raises(ValueError, match='radius must be >= 0'):
        vertices_in_ball(graph, graph.root(), -1)


# --- sparse functions ---

@given(sparse_funs(), sparse_funs())
def test_sparse_algebra(x, y):
    assert x + y == y + x
    assert (x - y) + y == x
    assert 0 * x == SparseFun.zero()
    assert Fraction(2) * x == x + x
    assert not SparseFun.zero()


def test_sparse_drops_zeros():
    x = SparseFun([(0, 1), (0, -1), (3, Fraction(1, 2))])
    assert x.support() == frozenset([3])
    assert x(0) == QuadNum(0)
    assert x(3) == QuadNum(Fraction(1, 2))
    # repeated int, Fraction and irrational terms on one key are summed,
    # and a key whose terms cancel is dropped
    r2 = QuadNum(0, 1, 2)
    y = SparseFun([(1, 2), (1, Fraction(-1, 3)), (1, r2), (2, r2), (1, -r2),
                   (2, Fraction(3, 4)), (2, -r2), (2, Fraction(-3, 4)),
                   (4, 0), (1, 1)])
    assert y.support() == frozenset([1])
    assert y(1) == QuadNum(Fraction(8, 3))
    assert y(2) == y(4) == QuadNum(0)
    assert SparseFun({5: r2}) - SparseFun([(5, r2)]) == SparseFun.zero()
    assert SparseFun([(6, 1)]) + SparseFun([(6, r2)]) == \
        SparseFun([(6, 1 + r2)])
    # a single int or Fraction term reads back as a QuadNum; a float raises
    for val in (3, Fraction(-2, 5)):
        got = SparseFun([(7, val)])(7)
        assert type(got) is QuadNum and got == val
    for data in ([(0, 1.5)], {0: 1.5}):
        with pytest.raises(TypeError):
            SparseFun(data)


def test_oracle_coerces_values():
    f = OracleFun(lambda v: Fraction(v, 2))
    assert f(3) == QuadNum(Fraction(3, 2))
    assert isinstance(f(1), QuadNum)


@given(sparse_funs())
def test_class_projections_split(x):
    g = PathGraph()
    assert project_class(g, x, 'a') + project_class(g, x, 'b') == x


# --- adjacency and shears ---

def test_adjacency_on_basis():
    g = PathGraph()
    assert adjacency(g, SparseFun.basis(0)) == \
        SparseFun([(-1, 1), (1, 1)])
    t = TripodGraph()
    assert adjacency(t, SparseFun.basis(('c',))) == \
        SparseFun([(('r', i, 1), 1) for i in range(3)])


@given(sparse_funs(), sparse_funs())
def test_adjacency_is_symmetric(f, x):
    g = PathGraph()
    assert pairing(adjacency(g, f), x) == pairing(f, adjacency(g, x))


def test_shear_basis_values():
    g = PathGraph()
    e0, e1 = SparseFun.basis(0), SparseFun.basis(1)
    assert upsilon(g, Word([H]), e0) == e0
    assert upsilon(g, Word([V]), e0) == SparseFun([(0, 1), (-1, 1), (1, 1)])
    assert upsilon(g, Word([V]), e1) == e1
    assert upsilon(g, Word([H]), e1) == SparseFun([(1, 1), (0, 1), (2, 1)])


def test_shear_drops_cancelled_terms():
    # h adds x(-1) + x(1) = 1 at 0, where x was -1
    got = _shear(PathGraph(), H, SparseFun({0: -1, 1: 1}))
    assert got == SparseFun({1: 1, 2: 1})
    assert got.support() == frozenset([1, 2])


quads2 = st.tuples(rationals, rationals).map(lambda ab: QuadNum(*ab, 2))


@pytest.mark.parametrize('name,graph,root', RING_GRAPHS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shear_matches_operator_route(name, graph, root, data):
    # the heisenberg skew graph joins b at g to a at g by two edges
    near = sorted(vertices_in_ball(graph, root, 2), key=repr)
    x = SparseFun(data.draw(st.lists(
        st.tuples(st.sampled_from(near), st.one_of(rationals, quads2)),
        max_size=8)))
    before = dict(x.items())
    for letter in LETTERS + (Letter('h', 3), Letter('v', -2)):
        other = 'b' if letter.gen == 'h' else 'a'
        assert _shear(graph, letter, x) == x + letter.exp * adjacency(
            graph, project_class(graph, x, other))
    assert dict(x.items()) == before


@given(sparse_funs(), st.integers(min_value=-3, max_value=3))
def test_shear_powers_are_affine(x, k):
    g = PathGraph()
    got = upsilon(g, Word.from_str('h^%d' % k), x)
    bump = project_class(g, adjacency(g, x), 'a')
    assert got == x + k * bump
    got = upsilon(g, Word.from_str('v^%d' % k), x)
    bump = project_class(g, adjacency(g, x), 'b')
    assert got == x + k * bump


@given(words, words, sparse_funs())
def test_word_action_composes(w1, w2, x):
    g = PathGraph()
    assert upsilon(g, w1 * w2, x) == upsilon(g, w1, upsilon(g, w2, x))


@given(words, sparse_funs())
def test_adjacency_swaps_the_shears(w, x):
    g = PathGraph()
    assert adjacency(g, upsilon(g, w, x)) == \
        upsilon(g, bar(w), adjacency(g, x))


@given(words, sparse_funs(), sparse_funs())
def test_word_action_adjoint(w, f, x):
    g = PathGraph()
    assert pairing(upsilon(g, w, f), x) == \
        pairing(f, upsilon(g, gamma(w.inverse()), x))


# --- evaluation against oracles ---

@given(words, sparse_funs(), st.integers(min_value=-2, max_value=2))
def test_eval_route_matches_sparse_route(w, x, v):
    g = PathGraph()
    assert upsilon_eval(g, w, x, v) == upsilon(g, w, x)(v)


def test_eval_on_constant_function():
    g = PathGraph()
    one = OracleFun(lambda v: 1)
    assert upsilon_eval(g, Word([V]), one, 1) == QuadNum(3)
    assert upsilon_eval(g, Word([H]), one, 1) == QuadNum(1)
    assert upsilon_eval(g, Word([H]), one, 0) == QuadNum(3)


@given(words, st.integers(min_value=-2, max_value=2))
def test_adjacency_kernel_is_fixed(w, v):
    g = PathGraph()
    pattern = (1, 1, -1, -1)
    f = OracleFun(lambda n: pattern[n % 4])
    assert upsilon_eval(g, w, f, v) == QuadNum(pattern[v % 4])


# --- perturbed action ---

@given(sparse_funs(), sparse_funs())
def test_chi_identity_word(y, z):
    g = PathGraph()
    assert chi(g, y, IDENTITY, z) == z


@given(sparse_funs())
def test_chi_single_letters(y):
    g = PathGraph()
    zero = SparseFun.zero()
    assert chi(g, y, Word([H]), zero) == project_class(g, y, 'a')
    assert chi(g, y, Word([V_INV]), zero) == -1 * project_class(g, y, 'b')


def test_chi_recovers_word_action_examples():
    g = PathGraph()
    for w, v, diff in [
        (Word([V, H_INV]), 0, SparseFun([(-1, 1), (1, 1)])),
        (Word([H, H]), 1, SparseFun([(0, 2), (2, 2)])),
    ]:
        x = SparseFun.basis(v)
        y = adjacency(g, x)
        assert upsilon(g, w, x) - x == chi(g, y, w, SparseFun.zero())
        assert upsilon(g, w, x) - x == diff


@settings(max_examples=60)
@given(words, sparse_funs())
def test_chi_recovers_word_action(w, x):
    g = PathGraph()
    y = adjacency(g, x)
    assert upsilon(g, w, x) - x == chi(g, y, w, SparseFun.zero())


@given(words, sparse_funs(), sparse_funs(), sparse_funs())
def test_chi_affine_in_the_seed(w, y, z1, z2):
    g = PathGraph()
    assert chi(g, y, w, z1 + z2) == chi(g, y, w, z1) + upsilon(g, w, z2)


@given(words, sparse_funs(), sparse_funs())
def test_chi_linear_in_the_perturbation(w, y1, y2):
    g = PathGraph()
    zero = SparseFun.zero()
    assert chi(g, y1 + y2, w, zero) == \
        chi(g, y1, w, zero) + chi(g, y2, w, zero)
