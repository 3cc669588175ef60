"""Rectangle geometry, the homology calculus, and growth sequences."""

import hashlib
import re
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonflow.eigen import (builtin_families, character_eigen, gz_constant,
                              gz_exponential, ntree_constant,
                              ntree_horofunction, tripod_family)
from ribbonflow.exact import QuadNum, as_quad
from ribbonflow.freegrp import Word, gamma
from ribbonflow.graphs import (Heisenberg, IntegerLattice, IntegersZ,
                               FreeGroup, OracleFun, PathGraph, SparseFun,
                               TripodGraph, _numbered_ball, pairing, upsilon,
                               vertices_in_ball)
from ribbonflow.measures import transposed_surface
from ribbonflow.surface import (Surface, ball_growth, phi_homology,
                                svg_truncation, z_class)


def heisenberg_constant():
    x, y = (1, 0, 0), (0, 1, 0)
    return character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                           (1, 1))


def test_rectangle_sides_constant():
    s = Surface.from_family(gz_constant())
    assert s.width(0) == 1 and s.height(0) == 1
    assert s.east(0) == -1 and s.west(-1) == 0
    assert s.north(0) == 1 and s.south(1) == 0
    assert s.circle_length(0) == 2


def test_rectangle_sides_exponential():
    s = Surface.from_family(gz_exponential(2))
    # edge n joins vertices n and n+1, widths come from the odd side
    assert s.width(0) == 2 and s.height(0) == 1
    assert s.width(1) == 2 and s.height(1) == 4
    assert s.edge_offsets(0) == {-1: QuadNum(0), 0: QuadNum('1/2')}


def horizontal(e):
    return SparseFun.basis(('h', e))


def vertical(e):
    return SparseFun.basis(('v', e))


def test_z_class_frozen():
    s = Surface.from_family(gz_constant())
    assert z_class(s, horizontal(0)) == SparseFun({1: 1})
    assert z_class(s, vertical(0)) == SparseFun({0: -1})
    h = SparseFun([(('h', 0), 2), (('v', 1), -3)])
    assert z_class(s, h) == SparseFun({1: 2, 2: 3})


def test_xi_pair_bottom_edge():
    # pairing a plane-style function with a full bottom edge reads off
    # the y coordinate scaled by the edge width
    fam = gz_exponential(2)
    s = Surface.from_family(fam)
    x, y = QuadNum('1/3'), QuadNum('1/5')

    def plane(v):
        return (x if v % 2 == 0 else y) * fam.weight(v)

    f = OracleFun(plane)
    for e in (-2, 0, 3):
        want = y * s.width(e)
        assert pairing(f, z_class(s, horizontal(e))) == want
    assert pairing(f, z_class(s, vertical(0))) == \
        -x * s.height(0)


def test_phi_letters_frozen():
    s = Surface.from_family(gz_constant())
    h_word = Word.from_str('h')
    v_word = Word.from_str('v')
    sigma = vertical(0)
    assert phi_homology(s, h_word, sigma) == (
        sigma + horizontal(-1) + horizontal(0))
    assert phi_homology(s, h_word, horizontal(5)) == (
        horizontal(5))
    assert phi_homology(s, v_word, horizontal(0)) == (
        horizontal(0) + vertical(0)
        + vertical(1))
    assert phi_homology(s, Word.from_str('h^-1'), sigma) == (
        sigma - horizontal(-1) - horizontal(0))
    # inverse letters undo each other
    assert phi_homology(s, Word.from_str('h^-1 h'), sigma) == sigma


def _words(max_len=3):
    return st.lists(
        st.sampled_from(['h', 'v', 'h^-1', 'v^-1']),
        max_size=max_len).map(lambda ls: Word.from_str(' '.join(ls)))


def _classes(edges):
    sym = st.tuples(st.sampled_from(['h', 'v']), st.sampled_from(edges))
    term = st.tuples(sym, st.integers(min_value=-3, max_value=3))
    return st.lists(term, max_size=4).map(SparseFun)


@settings(max_examples=120, deadline=None)
@given(w1=_words(), w2=_words(), h=_classes(list(range(-4, 5))))
def test_phi_word_action(w1, w2, h):
    s = Surface.from_family(gz_constant())
    both = phi_homology(s, w1 * w2, h)
    assert both == phi_homology(s, w1, phi_homology(s, w2, h))


@settings(max_examples=150, deadline=None)
@given(g=_words(4), h=_classes(list(range(-4, 5))))
def test_pullback_compatibility_path(g, h):
    s = Surface.from_family(gz_exponential(2))
    left = upsilon(s.graph, g, z_class(s, h))
    right = z_class(s, phi_homology(s, gamma(g), h))
    assert left == right


@settings(max_examples=80, deadline=None)
@given(g=_words(3),
       h=_classes([('e', i, k) for i in range(3) for k in (1, 2, 3)]))
def test_pullback_compatibility_tripod(g, h):
    s = Surface.from_family(tripod_family(2))
    left = upsilon(s.graph, g, z_class(s, h))
    right = z_class(s, phi_homology(s, gamma(g), h))
    assert left == right


def test_growth_constant_path():
    fam = gz_constant()
    lengths, sides = ball_growth(Surface.from_family(fam), 8)
    assert lengths == tuple(QuadNum(4) for _ in range(9))
    assert sides == tuple(QuadNum(1) for _ in range(9))


def test_growth_tripod_frozen():
    fam = tripod_family(2)
    lengths, sides = ball_growth(Surface.from_family(fam), 2)
    assert lengths[0] == 15
    assert lengths[1] == QuadNum('39/2')
    # three consecutive terms satisfy the tree recurrence exactly
    assert lengths[2] == fam.lam * lengths[1] - lengths[0]
    assert sides[0] == 3


def test_growth_rejects_b_root():
    # the mirror surface swaps the vertex classes, so its root is a
    # B-vertex
    mirror = transposed_surface(Surface.from_family(gz_constant()))
    assert mirror.graph.vertex_class(mirror.graph.root()) == 'b'
    with pytest.raises(ValueError, match='A-vertex'):
        ball_growth(mirror, 2)


@pytest.mark.parametrize('fam,exact', [
    (gz_constant(), True),
    (gz_exponential(2), True),
    (tripod_family(2), True),
    # branching frontiers stack sibling cylinders directly on one
    # another, so part of each new boundary is swallowed and the
    # recurrence bound is strict
    (ntree_constant(3), False),
    (heisenberg_constant(), False),
])
def test_growth_recurrence(fam, exact):
    lengths, _ = ball_growth(Surface.from_family(fam), 8)
    slack_seen = False
    for n in range(1, 8):
        bound = fam.lam * lengths[n] - lengths[n - 1]
        assert lengths[n + 1] <= bound
        if exact:
            assert lengths[n + 1] == bound
        elif lengths[n + 1] < bound:
            slack_seen = True
    if not exact:
        assert slack_seen


def test_growth_branching_frontier_frozen():
    # constant weight on the 3-valent tree doubles the frontier each
    # layer, while the recurrence bound compounds faster
    fam = ntree_constant(3)
    lengths, _ = ball_growth(Surface.from_family(fam), 3)
    assert list(lengths) == [6, 12, 24, 48]
    assert fam.lam * lengths[1] - lengths[0] == 30


def test_growth_ratio_dichotomy():
    fam = tripod_family(2)
    lengths, _ = ball_growth(Surface.from_family(fam), 26)
    ratio = float(lengths[26]) / float(lengths[25])
    # eigenvalue 5/2 splits into rates 2 and 1/2; a growing union locks
    # onto the expanding one
    assert abs(ratio - 2.0) < 1e-6


def _turn(graph, e, v, step):
    edges = graph.edges_at(v)
    return edges[(edges.index(e) + step) % len(edges)]


def _ball_growth_reference(graph, weight, root, n_max):
    """The layered growth walked from scratch: layer n is the neighbours
    of layer n-1, and every rectangle tests all four gluings, read from
    the cyclic orders at its two ends."""
    lengths = []
    max_sides = []
    layer = {root}
    for n in range(n_max + 1):
        if n:
            layer = {w for v in layer for w in graph.neighbors(v)}
        rect = set()
        for v in layer:
            rect.update(graph.edges_at(v))
        boundary = QuadNum(0)
        widest = QuadNum(0)
        for e in rect:
            width = as_quad(weight(graph.beta(e)))
            height = as_quad(weight(graph.alpha(e)))
            a, b = graph.alpha(e), graph.beta(e)
            for step in (1, -1):
                if _turn(graph, e, b, step) not in rect:
                    boundary = boundary + width
                if _turn(graph, e, a, step) not in rect:
                    boundary = boundary + height
            side = width if width > height else height
            if side > widest:
                widest = side
        lengths.append(boundary)
        max_sides.append(widest)
    return tuple(lengths), tuple(max_sides)


GROWTH_FAMILIES = builtin_families() + (
    character_eigen(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)),
                    (2, 3)),
    character_eigen(FreeGroup(2), ((1,), (2,), (-2,), (-1,)), (2, 3)),
)


def _growth_depth(fam):
    """40 on the gz, tripod and Z-character graphs, whose balls grow
    linearly; 10 on the trees, the Z^2 lattice and Heisenberg, which has
    double edges."""
    graph = fam.graph
    linear = (isinstance(graph, (PathGraph, TripodGraph))
              or isinstance(getattr(graph, 'group', None), IntegersZ))
    return 40 if linear else 10


@pytest.mark.parametrize('fam', GROWTH_FAMILIES,
                         ids=lambda fam: fam.describe())
def test_growth_matches_the_rewalked_reference(fam):
    surface = Surface.from_family(fam)
    depth = _growth_depth(fam)
    lengths, sides = _ball_growth_reference(fam.graph, fam.weight, fam.root,
                                            depth)
    for n in range(depth + 1):
        assert ball_growth(surface, n) == (lengths[:n + 1], sides[:n + 1])


def _heisenberg_character():
    x, y = (1, 0, 0), (0, 1, 0)
    return character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                           (2, 1))


def _ball_growth_rereading(surface, n_max):
    """ball_growth as it read both sides of every rectangle of the union
    again on every layer, kept as the oracle for its per-call table of
    sides."""
    graph = surface.graph
    unions = (set(), set())
    lengths = []
    max_sides = []
    for n, ring in enumerate(_numbered_ball(graph, (graph.root(),),
                                            n_max)[0]):
        rect = unions[n % 2]
        rect.update(chain.from_iterable(map(graph.edges_at, ring)))
        out, back = ((surface.east, surface.west) if n % 2 else
                     (surface.north, surface.south))
        boundary = widest = QuadNum(0)
        for e in rect:
            w, h = surface.width(e), surface.height(e)
            side = h if n % 2 else w
            if out(e) not in rect:
                boundary = boundary + side
            if back(e) not in rect:
                boundary = boundary + side
            widest = max(widest, w, h)
        lengths.append(boundary)
        max_sides.append(widest)
    return tuple(lengths), tuple(max_sides)


@pytest.mark.parametrize('fam', [
    tripod_family(2), gz_constant(), ntree_horofunction(3, QuadNum('1/2')),
    _heisenberg_character()], ids=['tripod', 'gz', 'horo', 'heisenberg'])
def test_growth_reads_each_rectangle_once(fam, monkeypatch):
    surface = Surface.from_family(fam)
    for depth in range(11):
        assert ball_growth(surface, depth) == \
            _ball_growth_rereading(surface, depth), depth
    reads = []
    width, height = Surface.width, Surface.height
    monkeypatch.setattr(Surface, 'width',
                        lambda self, e: reads.append(e) or width(self, e))
    monkeypatch.setattr(Surface, 'height',
                        lambda self, e: reads.append(e) or height(self, e))
    ball_growth(surface, 10)
    assert reads and len(reads) == 2 * len(set(reads))


def test_growth_turns_linearly_in_depth(monkeypatch):
    # each ring's rectangles are met once: the union rescan made about 4x
    # the gluing lookups at twice the depth of a path
    surface = Surface.from_family(gz_constant())
    calls = []
    for name in ('north', 'south', 'east', 'west'):
        turn = getattr(Surface, name)
        monkeypatch.setattr(Surface, name, lambda self, e, turn=turn:
                            calls.append(e) or turn(self, e))
    counts = []
    for depth in (100, 200):
        calls.clear()
        ball_growth(surface, depth)
        counts.append(len(calls))
    assert 0 < counts[1] <= 2.2 * counts[0]


@pytest.mark.parametrize('name,fam,radius,digest', [
    ('tripod', tripod_family(2), 3,
     'c416f57d993aaa1a76a4d9023d64d83c3c39c93539a0afadf65ddce6c93777a1'),
    ('tripod', tripod_family(2), 5,
     '303237dd00ff6ff7fd8711fc5efb0b11fa469950bc64ef887c6981c9cb946d01'),
    ('Z', character_eigen(IntegersZ(), (1, -1), 4), 3,
     '13aa752f7467f6c0be2e9bff13a151ce26b2ccbae18fccf9eeb0ae34d1ee1a1a'),
    ('Z', character_eigen(IntegersZ(), (1, -1), 4), 5,
     'f11c164557372cc5814d66de5143a1f16e35a5ef74bfa1bff13b8ddeab2153ba'),
    ('heisenberg', _heisenberg_character(), 3,
     '0c1d02dd444eefb6acdacf7dfbe88be802d17b0535f1f77a7c53271f8373d9b1'),
    ('heisenberg', _heisenberg_character(), 5,
     '9a81f382e30a368869b17e7f0123daeac1001a7c833cc23b47920ed834d31868'),
])
def test_svg_truncation_bytes_are_pinned(name, fam, radius, digest):
    art = svg_truncation(Surface.from_family(fam), radius=radius)
    assert hashlib.sha256(art.encode()).hexdigest() == digest


@pytest.mark.parametrize('fam', [tripod_family(2), ntree_constant(3),
                                 _heisenberg_character()],
                         ids=['tripod', '3-tree', 'heisenberg'])
def test_section_offsets_are_running_sums_of_widths(fam):
    s = Surface.from_family(fam)
    graph = fam.graph
    circles = [v for v in vertices_in_ball(graph, graph.root(), 4)
               if graph.vertex_class(v) == 'a']
    assert len(circles) > 3
    for a in circles:
        total, running = QuadNum(0), {}
        for e in graph.edges_at(a):
            assert s.section(a).offset(e) == total
            running[e] = total
            total = total + s.width(e)
        assert s.section(a).cuts[-1] == total
        offsets = s.edge_offsets(a)
        assert offsets == running and list(offsets) == list(running)


def test_svg_truncation_deterministic():
    s = Surface.from_family(gz_constant())
    one = svg_truncation(s, radius=3)
    two = svg_truncation(s, radius=3)
    assert one == two
    assert one.startswith('<svg ')
    assert one.count('<rect') >= 5


def test_svg_truncation_weights_scale():
    s = Surface.from_family(gz_exponential(2))
    art = svg_truncation(s, radius=1)
    assert '<svg' in art and '</svg>' in art
    # edges -1 (1/2 by 1), -2 (1/2 by 1/4) and 0 (2 by 1): the base
    # edge and its north and east neighbours, in repr order, 48 pixels to
    # a unit of length
    sizes = re.findall(r'<rect [^>]*width="([^"]*)" height="([^"]*)"', art)
    assert sizes == [('24.00', '48.00'), ('24.00', '12.00'),
                     ('96.00', '48.00')]
