"""The translation surface built from a ribbon graph and an eigenfunction.

Every edge e carries a rectangle of width w(beta(e)) and height
w(alpha(e)).  The right side of a rectangle is glued to the left side of
its east neighbor (rotation about the A-end), the top to the bottom of
its north neighbor (rotation about the B-end).  Horizontal cylinders are
the east-orbits, one per A-vertex; vertical cylinders the north-orbits,
one per B-vertex.  The eigen-relation makes every cylinder have inverse
modulus lam.

Relative homology classes are integer combinations of oriented rectangle
sides, held as SparseFuns over the side symbols ('h', e), the bottom edge
of the rectangle over e oriented rightward, and ('v', e), its left edge
oriented upward; tops and right sides are the bottoms and lefts of the
north and east neighbors, so each surface edge has one symbol.  z_class
pairs classes with cylinder cores, giving a vertex function, and
phi_homology is the shear action on classes.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .exact import QuadNum, QVec2, _lift_common, _xy, as_quad
from .freegrp import Letter, Word
from .graphs import RibbonGraph, SparseFun, _numbered_ball

_ZERO = QuadNum(0)


class Section(NamedTuple):
    """The horizontal circle at an A-vertex: its bottom edges, their exact
    cuts and the cuts' int lift.  edges[i] covers the top interval
    [cuts[i], cuts[i+1]), so 0 = cuts[0] < ... < cuts[-1], the sum of the
    widths; lift is (A, B, q, d) with cuts[i] == (A[i] + B[i]*sqrt(d))/q,
    for the exact step's bisection, as Surface.float_cuts rounds the cuts
    for the float step's."""

    edges: tuple
    cuts: tuple
    lift: tuple

    def offset(self, e) -> QuadNum:
        """Circle coordinate of the left end of e's interval."""
        return self.cuts[self.edges.index(e)]


class Landing(NamedTuple):
    """Where S takes the top interval of an edge e: the circle a of the
    A-vertex of north(e), the cut of north(e) on it, the weight of a and
    the circle's length lam * weight."""

    a: object
    cut: QuadNum
    weight: QuadNum
    length: QuadNum


class Kept(dict):
    """A table that builds the entry for a key on its first read, as
    build(key), and keeps it.  A build that raises keeps nothing, so the
    next read of that key raises again."""

    __slots__ = ('build',)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Jumps(Kept):
    """Each edge's jump for one direction, built from its landing on
    first read: the circle a, base = cut + r * weight and the circle's
    length, so that offset o of the edge's top interval lands at
    base + o, one sum.  base and the length are lifted to ints over one
    denominator q, each with its own field: the entry is
    (a, A, B, d, LA, LB, ld, q) for base = (A + B*sqrt(d))/q and
    length = (LA + LB*sqrt(ld))/q.  The table also keeps the direction's
    u = x/y and r = u mod lam."""

    __slots__ = ('u', 'r')

    def __init__(self, landings, u, lam):
        self.u = u
        # lam + u names the surface's field first in a FieldMixError
        self.r = r = (lam + u) % lam

        def jump(e):
            a2, cut, w, length = landings[e]
            base = cut + r * w
            q = math.lcm(base._q, length._q)
            s, k = q // base._q, q // length._q
            return (a2, base._a * s, base._b * s, base._d,
                    length._a * k, length._b * k, length._d, q)

        super().__init__(jump)


def _upward(y):
    """y, a flow direction's vertical entry, if it is positive."""
    if not y > 0:
        raise ValueError('direction must point upward')
    return y


def _theta_parts(theta):
    """The entries (x, y) of a flow direction as QuadNums; y > 0."""
    v = QVec2(*_xy(theta))
    return v.x, _upward(v.y)


class _Transposed(RibbonGraph):
    """The same graph with the two vertex classes swapped: on the mirror
    surface vertical cylinders become horizontal, so vertical transversals
    reuse the horizontal machinery."""

    def __init__(self, graph: RibbonGraph):
        self._graph = graph

    def vertex_class(self, v) -> str:
        return 'b' if self._graph.vertex_class(v) == 'a' else 'a'

    def edges_at(self, v) -> tuple:
        return self._graph.edges_at(v)

    def alpha(self, e):
        return self._graph.beta(e)

    def beta(self, e):
        return self._graph.alpha(e)

    def root(self):
        return self._graph.root()


class Surface:
    """Rectangles over the edges of a graph, glued by the ribbon structure.

    What the surface derives from its graph and weight is kept in Kept
    tables, each entry built on its first read: the widths and heights
    behind width and height, and the tables its readers subscript,
    sections and landings for the exact step, float_cuts and
    float_landings, their rounded copies, for the float step.  The jump
    table of the last direction and the mirror surface are kept too.
    """

    def __init__(self, graph: RibbonGraph, weight, lam):
        self.graph = graph
        self.weight = weight
        self.lam = as_quad(lam)
        self._widths = Kept(lambda e: weight(graph.beta(e)))
        self._heights = Kept(lambda e: weight(graph.alpha(e)))
        self.sections = Kept(self._section)
        self.landings = Kept(self._landing)
        # rounded once for the float step: exact runs never round, so a
        # cut beyond the float range fails only a float run
        self.float_cuts = Kept(
            lambda a: tuple(map(float, self.sections[a].cuts)))
        self.float_landings = Kept(self._float_landing)
        self._rotation = None

    @classmethod
    def from_family(cls, family) -> 'Surface':
        return cls(family.graph, family.weight, family.lam)

    def width(self, e) -> QuadNum:
        return self._widths[e]

    def height(self, e) -> QuadNum:
        return self._heights[e]

    def _turn(self, e, v, step: int):
        """The edge step places after e in the cyclic order at v."""
        edges = self.graph.edges_at(v)
        return edges[(edges.index(e) + step) % len(edges)]

    def east(self, e):
        return self._turn(e, self.graph.alpha(e), 1)

    def west(self, e):
        return self._turn(e, self.graph.alpha(e), -1)

    def north(self, e):
        return self._turn(e, self.graph.beta(e), 1)

    def south(self, e):
        return self._turn(e, self.graph.beta(e), -1)

    def circle_length(self, v) -> QuadNum:
        return self.lam * self.weight(v)

    def _section(self, a) -> Section:
        """The cut circle at an A-vertex."""
        edges = self.graph.edges_at(a)
        cuts = [_ZERO]
        for e in edges:
            cuts.append(cuts[-1] + self.width(e))
        return Section(edges, tuple(cuts), _lift_common(cuts))

    def _landing(self, e) -> Landing:
        """Where S takes the top interval of e.

        The width of e, the cut and the weight are checked here, once,
        so that a point at offset o in [0, width(e)] turned by w*r, for
        0 <= r < lam, lands at cut + o + w*r >= 0; that sum is below
        2 * length when the cuts fill the circle, as eigen weights make
        them do.
        """
        e2 = self.north(e)
        a2 = self.graph.alpha(e2)
        cut = self.sections[a2].offset(e2)
        w = self.weight(a2)
        if not (cut >= 0 and w > 0 and self.width(e) > 0):
            raise ValueError('rectangle sides must be positive where '
                             'the top of edge %r lands' % (e,))
        return Landing(a2, cut, w, self.circle_length(a2))

    def _float_landing(self, e) -> Landing:
        """The landing of e with its cut, weight and length rounded."""
        a2, cut, w, length = self.landings[e]
        return Landing(a2, float(cut), float(w), float(length))

    def rotation(self, theta) -> Jumps:
        """The rotation R^u for the upward direction theta = (x, y),
        u = x/y, as its jump table, kept for the last direction.

        R^u turns the circle of weight w by u*w mod lam*w, which is
        w * r for r = u mod lam when w > 0 and lam > 0 (the modulus
        refuses any other lam): one value, the table's r, serves every
        circle, and the table adds r * w to each landing's cut once.  The
        last direction is matched before any check, as a direction that
        failed one never becomes the last: the same tuple object at once,
        since a tuple cannot change, else by value equality of (x, y), as
        a list or a QVec2 may have changed in place; a QuadNum hash would
        build Fractions.  A new direction drops the table.
        """
        last = self._rotation
        if last is not None:
            if theta is last[0] and type(theta) is tuple:
                return last[3]
            x, y = _xy(theta)
            if ((x is last[1] or x == last[1])
                    and (y is last[2] or y == last[2])):
                return last[3]
        x, y = _theta_parts(theta)
        jumps = Jumps(self.landings, x / y, self.lam)
        self._rotation = (theta, x, y, jumps)
        return jumps

    @cached_property
    def mirror(self) -> 'Surface':
        """The same rectangles with the vertex classes swapped, so that
        vertical cylinders become horizontal; built on first read and kept
        while the surface lives."""
        return Surface(_Transposed(self.graph), self.weight, self.lam)

    def edge_offsets(self, a) -> dict:
        """Left-endpoint coordinate of each bottom edge along the
        horizontal circle at an A-vertex, read off the kept section; no
        library code calls it, and the benchmark's tracer counts it."""
        sec = self.sections[a]
        return dict(zip(sec.edges, sec.cuts))


def z_class(surface: Surface, h: SparseFun) -> SparseFun:
    """Intersection numbers with cylinder cores, as a vertex function.

    A rightward bottom edge sits in the vertical cylinder of its
    B-vertex and crosses the core once positively; an upward left edge
    sits in the horizontal cylinder of its A-vertex and crosses
    negatively.
    """
    graph = surface.graph
    return SparseFun((graph.beta(e), c) if kind == 'h' else
                     (graph.alpha(e), -c) for (kind, e), c in h.items())


def phi_letter(surface: Surface, letter: Letter, h: SparseFun) -> SparseFun:
    """One shear letter acting on homology: an h-power fixes horizontal
    classes and pushes vertical ones around the horizontal cylinder of
    their A-vertex, and dually for v-powers."""
    graph = surface.graph
    # the core of the horizontal cylinder at an A-vertex is homologous to
    # the full circle of its bottom edges; dually for vertical cylinders
    pushed = [((letter.gen, e2), c * letter.exp)
              for (kind, e), c in h.items() if kind != letter.gen
              for e2 in graph.edges_at(
                  graph.alpha(e) if kind == 'v' else graph.beta(e))]
    return SparseFun(chain(h.items(), pushed))


def phi_homology(surface: Surface, word: Word, h: SparseFun) -> SparseFun:
    """The word action on classes, rightmost letter first."""
    for letter in reversed(tuple(word)):
        h = phi_letter(surface, letter, h)
    return h


def _svg_escape(s: str) -> str:
    return (s.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;'))


def _glued(surface: Surface, e, x, y) -> tuple:
    """The rectangles glued to the right, left, top and bottom sides of e,
    each with the lower-left corner it takes when drawn against e's
    corner (x, y)."""
    west, south = surface.west(e), surface.south(e)
    return ((surface.east(e), x + surface.width(e), y),
            (west, x - surface.width(west), y),
            (surface.north(e), x, y + surface.height(e)),
            (south, x, y - surface.height(south)))


class BudgetExhausted(Exception):
    """A drawing needs more shapes than its budget allows."""


def svg_truncation(surface: Surface, radius: int = 3, budget=None) -> str:
    """A staircase-style SVG of the rectangles within a few east/north
    steps of the root's base edge, 48 pixels to a unit of length.
    A budget bounds the rectangles placed: BudgetExhausted is raised
    before one more would be.

    Rectangles are laid out so east neighbors sit to the right and north
    neighbors above.  Side pairs glued in the surface but not adjacent
    in the drawing get matching labels.  The layout and the labels read
    the gluings from one table, _glued: a neighbor is adjacent in the
    drawing exactly when it sits at the corner that table gives it.
    """
    graph = surface.graph
    center = graph.base_edge(graph.root())
    scale = 48.0
    placed = {center: (_ZERO, _ZERO)}

    def collides(x2, y2, e2):
        w2, h2 = surface.width(e2), surface.height(e2)
        for e3, (x3, y3) in placed.items():
            if (x2 < x3 + surface.width(e3) and x3 < x2 + w2
                    and y2 < y3 + surface.height(e3) and y3 < y2 + h2):
                return True
        return False

    frontier = [center]
    for ring in range(1, radius + 1):
        nxt = []
        for e in frontier:
            east, west, north, south = _glued(surface, e, *placed[e])
            for e2, x2, y2 in (east, north, west, south):
                if e2 not in placed and not collides(x2, y2, e2):
                    if len(placed) == budget:
                        raise BudgetExhausted(
                            'budget exhausted: ring %d of --depth %d places '
                            'more than %d rectangles' % (ring, radius, budget))
                    placed[e2] = (x2, y2)
                    nxt.append(e2)
        frontier = nxt

    # a side whose glued partner is drawn elsewhere gets a label, numbered
    # in order of first use and keyed by the rectangle whose right ('r')
    # or top ('t') side it is
    labels = {}
    rects = []
    texts = []
    for e in sorted(placed, key=repr):
        x, y = placed[e]
        fx, fy = float(x), float(y)
        fw, fh = float(surface.width(e)), float(surface.height(e))
        rects.append((fx, fy, fw, fh))
        texts.append((fx + fw / 2, fy + fh / 2, _svg_escape(str(e)),
                      'middle'))
        glued = _glued(surface, e, x, y)
        (_, right, _), (west, _, _), (_, _, top), (south, _, _) = glued
        seams = (((e, 'r'), float(right), fy + fh / 2, 'end'),
                 ((west, 'r'), fx, fy + fh / 2, 'start'),
                 ((e, 't'), fx + fw / 2, float(top), 'middle'),
                 ((south, 't'), fx + fw / 2, fy, 'middle'))
        for (e2, x2, y2), (key, tx, ty, anchor) in zip(glued, seams):
            if e2 in placed and placed[e2] != (x2, y2):
                name = labels.setdefault(key, str(len(labels) + 1))
                texts.append((tx, ty, name, anchor))

    xs = [r[0] for r in rects] + [r[0] + r[2] for r in rects]
    ys = [r[1] for r in rects] + [r[1] + r[3] for r in rects]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.5
    width = (x1 - x0 + 2 * pad) * scale
    height = (y1 - y0 + 2 * pad) * scale

    def sx(x):
        return (x - x0 + pad) * scale

    def sy(y):
        # svg y axis points down
        return (y1 - y + pad) * scale

    out = ['<svg xmlns="http://www.w3.org/2000/svg" '
           'width="%.1f" height="%.1f" viewBox="0 0 %.1f %.1f">'
           % (width, height, width, height)]
    out.append('<g fill="none" stroke="black" stroke-width="1">')
    for x, y, w, h in rects:
        out.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"/>'
                   % (sx(x), sy(y + h), w * scale, h * scale))
    out.append('</g>')
    out.append('<g font-family="monospace" font-size="%.1f" fill="black">'
               % (scale / 4))
    for x, y, s, anchor in texts:
        out.append('<text x="%.2f" y="%.2f" text-anchor="%s">%s</text>'
                   % (sx(x), sy(y), anchor, s))
    out.append('</g>')
    out.append('</svg>')
    return '\n'.join(out)


def ball_growth(surface: Surface, n_max: int):
    """Boundary lengths and largest rectangle sides of the nested
    cylinder unions grown from the graph's root, an A-vertex.

    Layer 0 is the root's horizontal cylinder; layer n collects the
    cylinders of all neighbors of layer n-1, alternating between
    vertical and horizontal.  The graph is bipartite and connected, so
    the neighbors of the neighbors of a layer include the layer itself:
    layer n is rings n, n-2, ... of one ball walk from the root, and
    each parity keeps one rectangle set grown by the edges of its new
    ring.  A layer holds vertices of one class, so the gluings about its
    own end (east and west about an A-vertex, north and south about a
    B-vertex) stay inside the union; only the other two can cross the
    boundary, adding widths to an A-layer and heights to a B-layer.

    The growth goes ring by ring, in time linear in the ball: each
    parity keeps its boundary and its widest side, and a rectangle is
    met once, when its ring is added.  Two glued sides have one length,
    so a new rectangle takes off its side once for each gluing it
    closes with a rectangle already in the union and adds it once for
    each gluing still open.

    Returns (lengths, max_sides), each a tuple of n_max + 1 exact
    values; lengths obey length[n+1] <= lam * length[n] - length[n-1],
    with equality on trees.
    """
    graph = surface.graph
    root = graph.root()
    if graph.vertex_class(root) != 'a':
        raise ValueError('growth layers start from an A-vertex')
    unions = (set(), set())
    lengths = []
    max_sides = []
    for n, ring in enumerate(_numbered_ball(graph, (root,), n_max)[0]):
        p = n % 2
        rect = unions[p]
        out, back = ((surface.east, surface.west) if p else
                     (surface.north, surface.south))
        # the layer grows from layer n - 2; an edge has one end of each
        # class, so the ring's edges are all new to the union
        boundary, widest = ((lengths[n - 2], max_sides[n - 2]) if n > 1
                            else (_ZERO, _ZERO))
        for e in chain.from_iterable(map(graph.edges_at, ring)):
            # the gluings e leaves open less those it closes; a
            # rectangle glued to itself is neither
            o, b = out(e), back(e)
            k = (-1 if o in rect else o != e) + (-1 if b in rect else b != e)
            rect.add(e)
            w, h = surface.width(e), surface.height(e)
            if k:
                boundary = boundary + (h if p else w) * k
            widest = max(widest, w, h)
        lengths.append(boundary)
        max_sides.append(widest)
    return tuple(lengths), tuple(max_sides)
