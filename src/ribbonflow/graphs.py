"""Bipartite ribbon graphs and the operator calculus on vertex functions.

Graphs are lazy and label-based: a vertex or edge is a small hashable tuple
whose structure is computed on demand, so infinite families cost nothing
until walked.  A graph is its structure maps: the class of a vertex, its
incident edges in cyclic order, the two ends of an edge and a root.  Every
edge joins an A-vertex to a B-vertex.  The rotations about the two ends of
an edge, which glue the rectangles, are read from the cyclic orders by
their one reader, `surface.Surface`.  `RibbonGraph.neighbors` derives
the neighbours of a vertex from its edges, for any graph; the builtin
graphs give them in closed form, the same tuple in the same cyclic order
and with the same multiplicity, and the derived default is their oracle.

Vertex functions come in two flavors: exact sparse dictionaries with finite
support, and closed-form oracles.  All operators here (adjacency, the shears
H and V, their word action, and the perturbed action) keep sparse functions
sparse and exact.  The constructor of a sparse function adds repeated
vertices and drops zeros; a shear instead accumulates into one copy of its
input, with one add per source term and incident edge.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from itertools import chain
from typing import Callable

from .exact import QuadNum, as_quad
from .freegrp import Letter, Word, gamma

_ZERO = QuadNum(0)


class RibbonGraph(ABC):
    """A connected bipartite graph with cyclically ordered edge ends."""

    @abstractmethod
    def vertex_class(self, v) -> str:
        """'a' or 'b'."""

    @abstractmethod
    def edges_at(self, v) -> tuple:
        """Incident edges in cyclic order."""

    @abstractmethod
    def alpha(self, e):
        """The A-endpoint of the edge."""

    @abstractmethod
    def beta(self, e):
        """The B-endpoint of the edge."""

    @abstractmethod
    def root(self):
        """A canonical starting vertex for walks and truncations."""

    def base_edge(self, v):
        return self.edges_at(v)[0]

    def neighbors(self, v) -> tuple:
        """Adjacent vertices in cyclic order, with multiplicity.

        Every edge joins the two classes, so the far end of each edge at
        v is its B-end when v is an A-vertex and its A-end otherwise.
        """
        far = self.beta if self.vertex_class(v) == 'a' else self.alpha
        return tuple(map(far, self.edges_at(v)))


def _check_radius(radius: int) -> None:
    """Refuse a negative radius, for every walk over a ball."""
    if radius < 0:
        raise ValueError('radius must be >= 0, got %r' % radius)


def _numbered_ball(graph: RibbonGraph, sources, radius: int) -> tuple:
    """(rings, order, index, nbrs): the vertices within the radius of the
    sources numbered ring by ring, for the integer kernels and the ball
    walks.

    One walk numbers each vertex when it first reaches it, so order lists
    rings 0..radius in turn, each in first-fetch order, and index maps
    each vertex to its number.  nbrs[i] holds the numbers of the
    neighbours of order[i], with multiplicity and in cyclic order, for
    each vertex of rings 0..radius-1: those are the vertices whose
    neighbours all lie in the ball.  rings[k] is the tuple of vertices at
    distance k.
    """
    _check_radius(radius)
    order = list(dict.fromkeys(sources))
    index = {u: i for i, u in enumerate(order)}
    nbrs = []
    ends = [0, len(order)]
    neighbors = graph.neighbors
    for _ in range(radius):
        for u in order[ends[-2]:]:
            js = []
            for w in neighbors(u):
                i = index.get(w)
                if i is None:
                    i = index[w] = len(order)
                    order.append(w)
                js.append(i)
            nbrs.append(js)
        ends.append(len(order))
    rings = [tuple(order[i:j]) for i, j in zip(ends, ends[1:])]
    return rings, order, index, nbrs


def vertices_in_ball(graph: RibbonGraph, root, radius: int) -> set:
    """All vertices within the given graph distance of the root."""
    return set(_numbered_ball(graph, (root,), radius)[2])


class PathGraph(RibbonGraph):
    """The two-sided infinite path on the integers; even vertices are A.

    Edge n joins vertices n and n + 1.
    """

    def root(self):
        return 0

    def vertex_class(self, v) -> str:
        return 'a' if v % 2 == 0 else 'b'

    def edges_at(self, v) -> tuple:
        return (v - 1, v)

    def alpha(self, e):
        return e if e % 2 == 0 else e + 1

    def beta(self, e):
        return e + 1 if e % 2 == 0 else e

    def neighbors(self, v) -> tuple:
        return (v - 1, v + 1)


class TripodGraph(RibbonGraph):
    """Three rays joined at a central A-vertex.

    Vertices: ('c',) and ('r', i, k) for ray i in {0,1,2} and k >= 1.
    Edge ('e', i, k) joins position k-1 to position k along ray i.
    """

    def root(self):
        return ('c',)

    def vertex_class(self, v) -> str:
        if v == ('c',):
            return 'a'
        return 'b' if v[2] % 2 == 1 else 'a'

    def edges_at(self, v) -> tuple:
        if v == ('c',):
            return (('e', 0, 1), ('e', 1, 1), ('e', 2, 1))
        _, i, k = v
        return (('e', i, k), ('e', i, k + 1))

    def _endpoint(self, e, offset):
        _, i, k = e
        k += offset
        return ('c',) if k == 0 else ('r', i, k)

    def alpha(self, e):
        return self._endpoint(e, -1 if e[2] % 2 == 1 else 0)

    def beta(self, e):
        return self._endpoint(e, 0 if e[2] % 2 == 1 else -1)

    def neighbors(self, v) -> tuple:
        if v == ('c',):
            return (('r', 0, 1), ('r', 1, 1), ('r', 2, 1))
        _, i, k = v
        return (('c',) if k == 1 else ('r', i, k - 1), ('r', i, k + 1))


class RegularTree(RibbonGraph):
    """The infinite tree with constant valence n >= 2.

    Vertices are tuples of child indices from the root (); class is the
    parity of the depth.  The edge to a vertex from its parent is labeled
    by the child vertex.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError('valence must be an integer >= 2, got %s' % n)
        self.n = n

    def root(self):
        return ()

    def vertex_class(self, v) -> str:
        return 'a' if len(v) % 2 == 0 else 'b'

    def edges_at(self, v) -> tuple:
        down = tuple(('e', v + (j,)) for j in
                     range(self.n if v == () else self.n - 1))
        if v == ():
            return down
        return (('e', v),) + down

    def alpha(self, e):
        child = e[1]
        return child if len(child) % 2 == 0 else child[:-1]

    def beta(self, e):
        child = e[1]
        return child if len(child) % 2 == 1 else child[:-1]

    def neighbors(self, v) -> tuple:
        if v == ():
            return tuple([(j,) for j in range(self.n)])
        return (v[:-1], *[v + (j,) for j in range(self.n - 1)])


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ValueError('%s must be a positive integer, got %r'
                         % (what, value))
    return value


class Group(ABC):
    """A countable group with hashable canonical element encodings.

    Two groups are equal when they have the same type and parameters.
    op may be a builtin: IntegersZ's is operator.add, held as a
    staticmethod so that an instance can still set its own op.
    """

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), tuple(sorted(vars(self).items()))))

    def __repr__(self):
        return '%s(%s)' % (type(self).__name__, ', '.join(
            '%s=%r' % kv for kv in sorted(vars(self).items())))

    @property
    @abstractmethod
    def identity(self): ...

    @abstractmethod
    def op(self, a, b): ...

    @abstractmethod
    def inv(self, a): ...

    @abstractmethod
    def __contains__(self, a) -> bool:
        """Whether a encodes an element of the group."""

    def check(self, a) -> None:
        """Raise a ValueError naming a when it encodes no element.

        op and inv take encodings on trust, so inputs are checked once,
        where they enter: a generator tuple, not every orbit step.
        """
        if a not in self:
            raise ValueError('%r is not an element of %r' % (a, self))


def _int_tuple(a, length: int) -> bool:
    return (type(a) is tuple and len(a) == length
            and all(type(x) is int for x in a))


class IntegersZ(Group):
    identity = 0

    op = staticmethod(operator.add)

    def inv(self, a):
        return -a

    def __contains__(self, a) -> bool:
        return type(a) is int


class Cyclic(Group):
    def __init__(self, m: int):
        self.m = _positive_int(m, 'order')

    identity = 0

    def op(self, a, b):
        return (a + b) % self.m

    def inv(self, a):
        return (-a) % self.m

    def __contains__(self, a) -> bool:
        # any int names its residue class: op and inv reduce mod m
        return type(a) is int


class IntegerLattice(Group):
    """Z^d with componentwise addition on d-tuples."""

    def __init__(self, d: int):
        self.d = _positive_int(d, 'rank')

    @property
    def identity(self):
        return (0,) * self.d

    def op(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def __contains__(self, a) -> bool:
        return _int_tuple(a, self.d)


class Heisenberg(Group):
    """Integer triples with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""

    identity = (0, 0, 0)

    def op(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a):
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def __contains__(self, a) -> bool:
        return _int_tuple(a, 3)


class FreeGroup(Group):
    """Free group on k letters; elements are reduced tuples of nonzero
    signed indices in {-k..-1, 1..k}."""

    def __init__(self, k: int):
        self.k = _positive_int(k, 'rank')

    identity = ()

    def op(self, a, b):
        out = list(a)
        for s in b:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def inv(self, a):
        return tuple(-s for s in reversed(a))

    def __contains__(self, a) -> bool:
        return (type(a) is tuple
                and all(type(s) is int and 0 < abs(s) <= self.k for s in a)
                and all(s != -t for s, t in zip(a, a[1:])))


class SkewGraph(RibbonGraph):
    """The ribbon graph of a group with a cyclically trivial generator tuple.

    Generators (g_1, ..., g_n) must compose to the identity as g_n...g_1.
    A-vertices ('a', g) and B-vertices ('b', g) are indexed by the group;
    edge ('e', g, i), i = 1..n, joins a at eta_i * g to b at g, where
    eta_1 = e and eta_i = g_{i-1}...g_1.  The cyclic order at a B-vertex is
    the tuple position; at an A-vertex it is the eta index.
    """

    def __init__(self, group: Group, generators):
        self.group = group
        self.generators = tuple(generators)
        n = len(self.generators)
        if n < 1:
            raise ValueError('need at least one generator')
        for gen in self.generators:
            group.check(gen)
        acc = group.identity
        etas = []
        for gen in self.generators:
            etas.append(acc)
            acc = group.op(gen, acc)
        if acc != group.identity:
            raise ValueError('generator product g_n...g_1 is not the identity')
        self.etas = tuple(etas)  # etas[i-1] = eta_i
        self._eta_invs = tuple(map(group.inv, etas))
        self.n = n

    def root(self):
        return ('a', self.group.identity)

    def vertex_class(self, v) -> str:
        return v[0]

    def edges_at(self, v) -> tuple:
        kind, g = v
        if kind == 'b':
            return tuple(('e', g, i) for i in range(1, self.n + 1))
        op = self.group.op
        return tuple(('e', op(h, g), i)
                     for i, h in enumerate(self._eta_invs, 1))

    def alpha(self, e):
        _, g, i = e
        return ('a', self.group.op(self.etas[i - 1], g))

    def beta(self, e):
        _, g, i = e
        return ('b', g)

    def neighbors(self, v) -> tuple:
        kind, g = v
        op = self.group.op
        if kind == 'a':
            return tuple([('b', op(h, g)) for h in self._eta_invs])
        return tuple([('a', op(eta, g)) for eta in self.etas])


_GROUPS = {
    'Z': (IntegersZ, ()),
    'Z^d': (IntegerLattice, ('d',)),
    'cyclic': (Cyclic, ('m',)),
    'free': (FreeGroup, ('k',)),
    'heisenberg': (Heisenberg, ()),
}


def _build_named(kind: str, table: dict, name: str, params: dict):
    """Call the builder of table[name] = (builder, keys) on params[keys]."""
    if name not in table:
        raise ValueError('unknown %s %r' % (kind, name))
    build, keys = table[name]
    for key in keys:
        if key not in params:
            raise ValueError('%s %s needs parameter %r' % (kind, name, key))
    return build(*(params[key] for key in keys))


def make_group(name: str, /, **params) -> Group:
    """Build a named group: Z, Z^d, cyclic, free or heisenberg."""
    return _build_named('group', _GROUPS, name, params)


class SparseFun:
    """An exact, finitely supported vertex function."""

    __slots__ = ('_data',)

    def __init__(self, data=()):
        store = {}
        for v, val in (data.items() if isinstance(data, dict) else data):
            old = store.get(v)
            if old is not None:
                store[v] = old + val
            else:
                store[v] = val if type(val) is QuadNum else as_quad(val)
        self._data = {v: c for v, c in store.items() if c}

    @classmethod
    def _of(cls, data: dict) -> 'SparseFun':
        """Wrap a dict of nonzero QuadNums as it is, without copying."""
        out = object.__new__(cls)
        out._data = data
        return out

    @classmethod
    def basis(cls, v) -> 'SparseFun':
        return cls([(v, 1)])

    @classmethod
    def zero(cls) -> 'SparseFun':
        return cls()

    def support(self) -> frozenset:
        return frozenset(self._data)

    def items(self):
        return self._data.items()

    def __call__(self, v) -> QuadNum:
        return self._data.get(v, _ZERO)

    def __add__(self, other: 'SparseFun') -> 'SparseFun':
        return SparseFun(chain(self.items(), other.items()))

    def __sub__(self, other: 'SparseFun') -> 'SparseFun':
        return SparseFun(chain(self.items(),
                               ((v, -c) for v, c in other.items())))

    def __rmul__(self, scalar) -> 'SparseFun':
        return SparseFun([(v, scalar * c) for v, c in self._data.items()])

    def __eq__(self, other):
        if not isinstance(other, SparseFun):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))

    def __bool__(self):
        return bool(self._data)

    def __repr__(self):
        body = ', '.join('%r: %s' % (v, c) for v, c in sorted(
            self._data.items(), key=repr))
        return 'SparseFun({%s})' % body


class OracleFun:
    """A vertex function given by a closed form."""

    __slots__ = ('_fn',)

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, v) -> QuadNum:
        out = self._fn(v)
        return out if type(out) is QuadNum else as_quad(out)


def _closed_form(fn: Callable) -> Callable:
    """The closed form behind an OracleFun, for a walk that reads every
    value through as_quad itself (as `exact._lift_common` does) and so
    needs no wrapper around each read; any other callable as it is."""
    return fn._fn if type(fn) is OracleFun else fn


def project_class(graph: RibbonGraph, x: SparseFun, cls: str) -> SparseFun:
    """Restrict a sparse function to the A- or B-vertices."""
    return SparseFun([(v, c) for v, c in x.items()
                      if graph.vertex_class(v) == cls])


def adjacency(graph: RibbonGraph, x: SparseFun) -> SparseFun:
    """A(x)(v) = sum of x over the neighbors of v, with multiplicity."""
    return SparseFun((w, c) for v, c in x.items()
                     for w in graph.neighbors(v))


def pairing(f, x: SparseFun) -> QuadNum:
    """Sum of x(v) * f(v) over the support of x."""
    total = _ZERO
    for v, c in x.items():
        total = total + c * f(v)
    return total


def _shear(graph: RibbonGraph, letter: Letter, x: SparseFun) -> SparseFun:
    """x plus the letter's exponent times the neighbour sums of x at the
    A-vertices (h) or the B-vertices (v).

    Every edge joins the two classes, so those sums read only the other
    class of x: each of its terms, times the exponent, is added into one
    copy of x at every neighbour, with multiplicity, and zeros are dropped
    once at the end.  x itself is left as it was.  Words hold exponents
    +-1, but a Letter built directly may carry any integer.
    """
    source = 'b' if letter.gen == 'h' else 'a'
    exp = letter.exp
    vertex_class, neighbors = graph.vertex_class, graph.neighbors
    out = dict(x._data)
    for v, c in x._data.items():
        if vertex_class(v) != source:
            continue
        if exp != 1:
            c = -c if exp == -1 else exp * c
        for w in neighbors(v):
            old = out.get(w)
            out[w] = c if old is None else old + c
    return SparseFun._of({v: c for v, c in out.items() if c})


def upsilon(graph: RibbonGraph, word: Word, x: SparseFun) -> SparseFun:
    """The word action generated by h -> H and v -> V, rightmost first.

    One letter sends x to x +- (the class-projected adjacency image), so
    support grows by at most one ball per letter and stays finite.
    """
    for letter in reversed(tuple(word)):
        x = _shear(graph, letter, x)
    return x


def upsilon_eval(graph: RibbonGraph, word: Word, f, v) -> QuadNum:
    """Value of the word action on a (possibly non-compact) function.

    Uses the adjoint identity: the action of g on f, evaluated at v, pairs
    f against the action of gamma(g^{-1}) on the basis function at v.
    """
    dual = upsilon(graph, gamma(word.inverse()), SparseFun.basis(v))
    return pairing(f, dual)


def chi(graph: RibbonGraph, y: SparseFun, word: Word,
        z: SparseFun) -> SparseFun:
    """The y-perturbed word action applied to z, rightmost letter first.

    Each h-letter adds its exponent times the A-part of y after shearing,
    each v-letter the B-part.
    """
    for letter in reversed(tuple(word)):
        cls = 'a' if letter.gen == 'h' else 'b'
        z = _shear(graph, letter, z) + \
            letter.exp * project_class(graph, y, cls)
    return z
