"""Closed-form positive eigenfunctions of the adjacency operator.

Each family packages a graph, an eigenvalue, and a value oracle that
satisfies A(w) = lam * w exactly at every vertex.  Every oracle is a
closed form that reads no graph, the character family's on both vertex
classes of its skew graph.  verify_eigen reports
the residuals over a ball, which must be identically zero; nothing here
is approximate.  It reads the same numbered neighbourhood
(`graphs._numbered_ball`) and int lift as the shear kernel behind the
renormalized values in `measures`, and lists residuals in ring order.
Regular trees are walked by verify_eigen_tree in blocks, each one
numbering template placed at its top, and list residuals in block
order.  Both walks form residuals with one int kernel, `_int_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable

from .exact import (FieldMixError, QuadNum, _lift_common, _reduced, as_quad,
                    quad_sqrt)
from .graphs import (Cyclic, FreeGroup, Group, Heisenberg, IntegerLattice,
                     IntegersZ, OracleFun, PathGraph, RegularTree,
                     RibbonGraph, SkewGraph, TripodGraph, _build_named,
                     _numbered_ball, make_group)

_ONE = QuadNum(1)
_ZERO = QuadNum(0)


def _power_cache(base: QuadNum) -> Callable[[int], QuadNum]:
    table = {0: _ONE, 1: base}

    def power(k: int) -> QuadNum:
        got = table.get(k)
        if got is None:
            got = table[k] = base ** k
        return got

    return power


def _product(values) -> QuadNum:
    out = _ONE
    for v in values:
        out = out * v
    return out


@dataclass(frozen=True)
class EigenFamily:
    """A graph together with a positive adjacency eigenfunction."""

    name: str
    graph: RibbonGraph
    lam: QuadNum
    weight: OracleFun
    params: tuple = ()

    @property
    def root(self):
        return self.graph.root()

    def __call__(self, v) -> QuadNum:
        return self.weight(v)

    def describe(self) -> str:
        extra = ' '.join('%s=%s' % (k, val) for k, val in self.params)
        return ('%s %s' % (self.name, extra)).strip()


def gz_constant() -> EigenFamily:
    return EigenFamily('gz_constant', PathGraph(), QuadNum(2),
                       OracleFun(lambda v: _ONE))


def gz_exponential(t) -> EigenFamily:
    """f(n) = t^n on the integer path, eigenvalue t + 1/t."""
    t = as_quad(t)
    if not t > 0:
        raise ValueError('growth rate must be positive')
    power = _power_cache(t)
    return EigenFamily('gz_exponential', PathGraph(), t + _ONE / t,
                       OracleFun(power), (('t', t),))


def tripod_family(t) -> EigenFamily:
    """Exponentially decaying values along three rays, matched at the center.

    The center takes the value 3 and ray position k takes a*t^k + b*t^-k,
    with a, b pinned by the recurrence and the matching condition.  Both
    coefficients stay nonnegative only for t^2 >= 2.
    """
    t = as_quad(t)
    if not t > 0:
        raise ValueError('decay rate must be positive')
    tt = t * t
    if tt < 2:
        raise ValueError('values go negative down the rays for t^2 < 2')
    a = (tt - 2) / (tt - 1)
    b = (2 * tt - 1) / (tt - 1)
    power = _power_cache(t)

    def value(v):
        if v == ('c',):
            return QuadNum(3)
        k = v[2]
        return a * power(k) + b * power(-k)

    return EigenFamily('tripod', TripodGraph(), t + _ONE / t,
                       OracleFun(value), (('t', t),))


def ntree_constant(n: int) -> EigenFamily:
    return EigenFamily('ntree_constant', RegularTree(n), as_quad(n),
                       OracleFun(lambda v: _ONE), (('n', n),))


def _toward_end(v) -> int:
    """Signed distance against the all-zeros ray: depth minus twice the
    length of the leading zero run."""
    z = 0
    for j in v:
        if j:
            break
        z += 1
    return len(v) - 2 * z


def ntree_horofunction(n: int, s) -> EigenFamily:
    """f = s^(horofunction toward the all-zeros end) on the regular n-tree.

    Every vertex sees exactly one neighbor one step nearer the end and
    n - 1 neighbors one step farther, so the eigenvalue is 1/s + (n-1)s.
    """
    tree = RegularTree(n)   # validates n before (n - 1) * s reads it
    s = as_quad(s)
    if not s > 0:
        raise ValueError('ratio must be positive')
    lam = _ONE / s + (n - 1) * s
    power = _power_cache(s)
    return EigenFamily('ntree_horo', tree, lam,
                       OracleFun(lambda v: power(_toward_end(v))),
                       (('n', n), ('s', s)))


def _chi_values(values) -> tuple:
    """A character's values on the standard generators, read once: one
    number or a flat tuple of numbers, as exact numbers."""
    vals = values if isinstance(values, (list, tuple)) else (values,)
    if any(isinstance(v, (list, tuple)) for v in vals):
        raise ValueError("family character takes a number or a flat tuple "
                         "of numbers for 'chi', got %r" % (values,))
    return tuple(map(as_quad, vals))


def character(group: Group, values) -> Callable:
    """The multiplicative extension of positive values on the standard
    generators: one value for Z or a cyclic group, d for Z^d, k for the
    free group, and two (the x and y shifts) for Heisenberg.

    The extension uses the canonical coordinates of each encoding.  On a
    cyclic group chi(1)^m = chi(0) = 1, so its one positive character is
    trivial and any other value is refused.
    """
    vals = _chi_values(values)
    if not all(v > 0 for v in vals):
        raise ValueError('character values must be positive')
    powers = [_power_cache(v) for v in vals]
    if isinstance(group, IntegersZ):
        need, chi = 1, lambda g: powers[0](g)
    elif isinstance(group, Cyclic):
        if any(v != 1 for v in vals):
            raise ValueError('a positive character of a cyclic group is '
                             'trivial: chi takes 1')
        need, chi = 1, lambda g: _ONE
    elif isinstance(group, IntegerLattice):
        need = group.d
        chi = lambda g: _product(p(x) for p, x in zip(powers, g))
    elif isinstance(group, Heisenberg):
        need, chi = 2, lambda g: powers[0](g[0]) * powers[1](g[1])
    elif isinstance(group, FreeGroup):
        need = group.k
        chi = lambda g: _product(powers[abs(j) - 1](1 if j > 0 else -1)
                                 for j in g)
    else:
        raise ValueError('no character encoding for %s'
                         % type(group).__name__)
    if len(vals) != need:
        raise ValueError('expected %d character values, got %d'
                         % (need, len(vals)))
    return chi


def character_eigen(group: Group, generators, values) -> EigenFamily:
    """The eigenfunction of a character chi on a skew graph, in closed
    form on both vertex classes: 1/chi(g) at a_g and (delta/lam)/chi(g)
    at b_g.

    With delta and eps the sums of 1/chi and chi over the partial
    products eta_i, the eigenvalue is sqrt(delta * eps).  b_g neighbours
    the a_(eta_i g), and chi is multiplicative, so the average of 1/chi
    over them against lam is (delta/lam)/chi(g); f(b_g) * chi(g) is then
    constant, the Maharam property.  The square root may widen a rational
    field by one radical; it must not leave a quadratic one.
    """
    if not isinstance(group, Group):
        raise ValueError('group takes a Group, got %r' % (group,))
    if not isinstance(generators, (tuple, list)):
        raise ValueError('generators take a tuple, got %r' % (generators,))
    graph = SkewGraph(group, generators)
    vals = _chi_values(values)
    chi = character(group, vals)
    if _product(chi(g) for g in graph.generators) != 1:
        raise ValueError('character does not respect the defining relation')
    eta_vals = [chi(g) for g in graph.etas]
    eps = sum(eta_vals, _ZERO)
    delta = sum((_ONE / val for val in eta_vals), _ZERO)
    lam = quad_sqrt(delta * eps)
    discs = {x.field_disc for x in eta_vals + [lam] if x.field_disc}
    if len(discs) > 1:
        raise ValueError('eigenvalue leaves the quadratic coefficient field')
    scale = {'a': _ONE, 'b': delta / lam}
    return EigenFamily('character', graph, lam,
                       OracleFun(lambda v: scale[v[0]] / chi(v[1])),
                       (('chi', ','.join(map(str, vals))),))


_FAMILIES = {
    'gz_constant': (gz_constant, ()),
    'gz_exponential': (gz_exponential, ('t',)),
    'tripod': (tripod_family, ('t',)),
    'ntree_constant': (ntree_constant, ('n',)),
    'ntree_horo': (ntree_horofunction, ('n', 's')),
    'character': (character_eigen, ('group', 'generators', 'chi')),
}


def family_eigen(name: str, /, **params) -> EigenFamily:
    """Build a named family: gz_constant, gz_exponential, tripod,
    ntree_constant, ntree_horo, or character.  The character family's
    group may be named, as by make_group, with its size key beside it.
    A parameter that neither the family nor its group reads, a missing
    one, or a tuple where a number is taken, is a ValueError naming it.
    chi takes a number or a flat tuple of numbers."""
    if name not in _FAMILIES:
        raise ValueError('unknown family %r' % name)
    taken = _FAMILIES[name][1]
    group = params.get('group')
    if 'group' in taken and isinstance(group, str):
        group = params['group'] = make_group(group, **params)
    reads = taken + tuple(vars(group)) if isinstance(group, Group) else taken
    for key, value in params.items():
        if key not in reads:
            raise ValueError('family %s takes no parameter %r' % (name, key))
        if key in ('t', 'n', 's') and isinstance(value, tuple):
            raise ValueError('family %s takes a number for %r, got %r'
                             % (name, key, value))
    return _build_named('family', _FAMILIES, name, params)


def builtin_families() -> tuple:
    """The stock instances exercised by the verification suites."""
    x, y = (1, 0, 0), (0, 1, 0)
    return (
        gz_constant(),
        gz_exponential(2),
        gz_exponential(QuadNum(0, 1, 2)),
        tripod_family(QuadNum(0, 1, 2)),
        tripod_family(2),
        tripod_family(3),
        ntree_constant(3),
        ntree_horofunction(3, QuadNum('1/2')),
        character_eigen(IntegersZ(), (1, -1), 4),
        character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                        (1, 1)),
        character_eigen(Heisenberg(), (x, (-1, 0, 0), y, (0, -1, 0)),
                        (2, 1)),
    )


@dataclass(frozen=True)
class ResidualReport:
    """Exact accounting of A f - lam f over a ball."""

    radius: int
    vertex_count: int
    nonzero: tuple
    nonzero_count: int
    max_abs: QuadNum

    @property
    def ok(self) -> bool:
        return self.nonzero_count == 0

    def __str__(self):
        state = 'all zero' if self.ok else \
            '%d nonzero, max |residual| %s' % (self.nonzero_count,
                                               self.max_abs)
        return 'residuals on %d vertices (radius %d): %s' % (
            self.vertex_count, self.radius, state)


# nonzero residuals a report lists; its count and max cover all of them
_KEEP = 64


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise ValueError('radius must be >= 0, got %r' % radius)


def _tally(radius: int, parts) -> ResidualReport:
    """Fold the parts of one walk into a report: each part is a count of
    checked vertices and the (vertex, residual) pairs of its nonzero
    residuals."""
    nonzero = []
    visited = count = 0
    max_abs = _ZERO
    for size, pairs in parts:
        visited += size
        for v, res in pairs:
            count += 1
            mag = abs(res)
            if mag > max_abs:
                max_abs = mag
            if len(nonzero) < _KEEP:
                nonzero.append((v, res))
    return ResidualReport(radius, visited, tuple(nonzero), count, max_abs)


def _int_residuals(order, nbrs, lifted):
    """The nonzero residuals A f - lam f at order[i], for i < len(nbrs),
    as (vertex, residual) pairs in index order.

    nbrs[i] holds the indices of the neighbours of order[i], and lifted
    is `_lift_common` of the values at all indices followed by lam: ints
    (A + B*sqrt(d))/q.  A residual is then int sums over q^2, and a
    QuadNum is built only for a nonzero one.
    """
    A, B, q, d = lifted
    la, lb = A[-1], B[-1]
    for i, js in enumerate(nbrs):
        a, b = A[i], B[i]
        ra = q * sum(map(A.__getitem__, js)) - la * a - lb * b * d
        rb = q * sum(map(B.__getitem__, js)) - la * b - lb * a if d else 0
        if ra or rb:
            yield order[i], _reduced(ra, rb, q * q, d)


def verify_eigen(graph: RibbonGraph, fn, lam, radius: int) -> ResidualReport:
    """Residual A f - lam f at every vertex within the radius of the
    graph's root, in ring order.

    Reads the same numbered neighbourhood and int lift as the shear
    kernel of `measures`: the ball is numbered out to radius + 1, so each
    vertex is evaluated once, and f and lam are lifted together to ints
    over one denominator for `_int_residuals`.  Values that are not exact
    numbers raise TypeError, and two fields raise FieldMixError.
    """
    _check_radius(radius)
    _, order, _, nbrs = _numbered_ball(graph, (graph.root(),), radius + 1)
    lifted = _lift_common(chain(map(fn, order), (as_quad(lam),)))
    return _tally(radius, [(len(nbrs), _int_residuals(order, nbrs, lifted))])


# the most vertices one block of the tree walk holds; the blocks are the
# deepest that fit, 6 deep on the 3-tree
_BLOCK_VERTICES = 128


def _block_depth(n: int) -> int:
    """The depth of the tree walk's blocks below a non-root vertex of the
    regular n-tree: the deepest block of at most _BLOCK_VERTICES
    vertices, and at least 1."""
    depth, size, ring = 1, n, n - 1
    while size + ring * (n - 1) <= _BLOCK_VERTICES:
        ring *= n - 1
        size += ring
        depth += 1
    return depth


def _template(n: int, depth: int, root: bool) -> tuple:
    """(paths, nbrs, leaves): the numbering shared by every block of one
    shape.

    paths lists the paths from the block's top to its vertices, ring by
    ring out to the depth and in child order, so the top is 0.  nbrs[i]
    holds the indices of the neighbours of vertex i, for the vertices
    above the last ring; the top's parent, outside the block, has the
    index len(paths).  leaves pairs each vertex of the last ring, the top
    of a block below, with its parent.  A root block's top is the tree's
    root, which has n children and no parent.
    """
    paths, up, nbrs = [()], [None], []
    start = 0
    for _ in range(depth):
        end = len(paths)
        for i in range(start, end):
            first = len(paths)
            for j in range(n if root and not i else n - 1):
                paths.append(paths[i] + (j,))
                up.append(i)
            nbrs.append((up[i], *range(first, len(paths))))
        start = end
    nbrs[0] = nbrs[0][1:] if root else (len(paths), *nbrs[0][1:])
    leaves = [(i, up[i]) for i in range(start, len(paths))]
    return paths, nbrs, leaves


def _tree_blocks(n: int, fn, lam: QuadNum, radius: int):
    """The parts of the tree walk, one per block, in block order.

    The root block's depth is what is left of radius + 1 over whole
    blocks, so every block below it is _block_depth(n) deep and none is
    left thin at the bottom.  Each shape is numbered once per walk; a
    cache kept across walks raised the eigen benchmark's peak RSS.  Blocks
    are taken depth first, those below one block in the order of their
    tops.  Each oracle value is read once: a block's last ring hands its
    values, with those of its parents, down to the blocks below.
    """
    depth = _block_depth(n)
    first = radius % depth + 1
    crown = _template(n, first, True)
    below = _template(n, depth, False) if first <= radius else None
    field = 0
    stack = [((), fn(()), ())]
    while stack:
        top, f_top, up = stack.pop()
        span = depth if top else first
        paths, nbrs, leaves = below if top else crown
        order = [top + p for p in paths]
        values = [f_top]
        values += map(fn, islice(order, 1, None))
        lifted = _lift_common(chain(values, up, (lam,)))
        d = lifted[3]
        if d != field and d:
            if field:
                raise FieldMixError('cannot combine sqrt(%d) with sqrt(%d)'
                                    % (field, d))
            field = d
        yield len(nbrs), _int_residuals(order, nbrs, lifted)
        if len(top) + span <= radius:
            stack.extend((order[i], values[i], (values[j],))
                         for i, j in reversed(leaves))


def verify_eigen_tree(tree: RegularTree, fn, lam,
                      radius: int) -> ResidualReport:
    """verify_eigen specialized to the regular tree rooted at (), walked
    by blocks instead of over a materialized ball, since a radius-20 ball
    of the 3-tree has millions of vertices.

    Below a non-root vertex every subtree of one depth has one shape, so
    a block is one numbering template (`_template`) placed at its top.  A
    block reads the oracle once per vertex, lifts its values and lam with
    one `_lift_common`, and hands them to `_int_residuals`, as
    verify_eigen does; memory is one block and the stack of pending tops.
    Nonzero residuals come in block order: the root's block first, then
    the blocks below each block in turn, depth first in child order, and
    within a block ring by ring in child order.  Errors are those of
    verify_eigen.
    """
    _check_radius(radius)
    return _tally(radius, _tree_blocks(tree.n, fn, as_quad(lam), radius))


def verify_family(family: EigenFamily, radius: int) -> ResidualReport:
    """Residual check with the traversal suited to the family's graph:
    regular trees are walked by blocks, other graphs over a materialized
    ball; both form residuals with the one int kernel `_int_residuals`."""
    if isinstance(family.graph, RegularTree):
        return verify_eigen_tree(family.graph, family.weight, family.lam,
                                 radius)
    return verify_eigen(family.graph, family.weight, family.lam, radius)


def spoke_profile(lam, k: int) -> tuple:
    """Values 1, lam, lam^2 - 1, ... of the eigen-recurrence along a path
    hanging off a graph, normalized to start at 1.

    At lam = 2 this is 1, 2, 3, ...; above 2 it grows like the larger
    root of z^2 - lam z + 1.
    """
    lam = as_quad(lam)
    if lam < 2:
        raise ValueError('profile needs an eigenvalue of at least 2')
    if k < 1:
        raise ValueError('need a positive length')
    prev, cur = _ZERO, _ONE
    out = []
    for _ in range(k):
        out.append(cur)
        prev, cur = cur, lam * cur - prev
    return tuple(out)


def spoke_threshold(lam) -> QuadNum:
    """The contraction bound (lam - sqrt(lam^2 - 4)) / 2.

    Away from hanging paths, no neighbor ratio of a positive
    eigenfunction drops below this value.
    """
    lam = as_quad(lam)
    if lam < 2:
        raise ValueError('threshold needs an eigenvalue of at least 2')
    return (lam - quad_sqrt(lam * lam - 4)) / 2
