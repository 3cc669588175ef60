"""Greedy renormalization of directions under the rank-2 shear group.

A direction is repeatedly shrunk by the unique generator that strictly
decreases its length, producing a geodesic ray in the group together with a
quadrant (sign) sequence and its critical times.  Rays whose tails are
constant, or alternate between h and v^-1 (or between h^-1 and v), do not
renormalize; everything here classifies directions and sequences against
those exclusions in exact arithmetic.

No shear matrix is built to decide which generator shrinks: h^k sends
(x, y) to (x + k*lam*y, y), so the squared norm changes by
k*lam*y * (2x + k*lam*y), and v^k likewise with x and y swapped.  The
letter strictly shrinks the vector exactly when those two factors have
opposite signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import cycle, islice
from typing import Sequence

from .exact import QuadNum, QVec2, SignPair, _xy, as_quad, quad_sqrt
from .freegrp import (H, H_INV, LETTERS, V, V_INV, Letter, Word, rho,
                      sign_act_letter)


def _direction(theta) -> QVec2:
    """theta as an exact vector, refusing the zero vector."""
    theta = QVec2(*_xy(theta))
    if not (theta.x or theta.y):
        raise ValueError('zero vector has no direction')
    return theta


def _check_gen(letter: Letter) -> None:
    """Refuse a letter of any generator but h and v, at every lam."""
    if letter.gen not in ('h', 'v'):
        raise ValueError('bad letter %r' % (letter,))


def shrink_membership(lam, letter: Letter, theta) -> bool:
    """Whether the generator strictly shrinks the vector (norm route).

    The letter h^k changes the squared norm of (x, y) by
    k*lam*y * (2x + k*lam*y), and v^k by k*lam*x * (2y + k*lam*x); it
    shrinks when the two factors have opposite signs.  The sign of
    k*lam is read with the rest, so any exponent and any lam are taken.
    """
    _check_gen(letter)
    theta = _direction(theta)
    step = as_quad(lam) * letter.exp
    x, y = theta.x, theta.y
    if letter.gen == 'h':
        shift = step * y
        s = shift.sign()
        return s != 0 and (x + x + shift).sign() == -s
    shift = step * x
    s = shift.sign()
    return s != 0 and (shift + y + y).sign() == -s


def shrink_membership_slope(lam, letter: Letter, theta) -> bool:
    """Whether the generator strictly shrinks the vector (slope route).

    h^k at lam is the unit letter h^sign(k*lam) at |k*lam|, so this tests
    the open cone :func:`shrink_cone` gives that letter there; a zero
    shear shrinks nothing.  Kept beside :func:`shrink_membership`, which
    reads the norm change instead, as a cross-check for any lam and exponent.
    """
    _check_gen(letter)
    theta = _direction(theta)
    step = as_quad(lam) * letter.exp
    s = step.sign()
    if not s:
        return False
    return DirectionCone(*shrink_cone(abs(step), Letter(letter.gen, s))
                         ).contains(theta)


def shrink_cone(lam, letter: Letter) -> tuple[QVec2, QVec2]:
    """Boundary direction vectors of the generator's shrinking cone.

    Returned as (lo, hi) with the open cone between them (modulo the
    antipodal map) equal to the shrinking set of the generator.
    """
    lam = as_quad(lam)
    if letter == H:
        return QVec2(lam, -2), QVec2(1, 0)
    if letter == H_INV:
        return QVec2(1, 0), QVec2(lam, 2)
    if letter == V:
        return QVec2(2, -lam), QVec2(0, -1)
    if letter == V_INV:
        return QVec2(2, lam), QVec2(0, 1)
    raise ValueError('bad letter %r' % (letter,))


class TailStatus(Enum):
    CONTINUES = 'continues'
    NO_STRICT_SHRINKER = 'no-strict-shrinker'
    PERIODIC = 'periodic'
    EXCLUDED_TAIL = 'excluded-tail'


@dataclass(frozen=True, eq=False)
class ShrinkData:
    """A greedy shrinking prefix of one direction.

    vectors[n] is the image of theta after the first n increments, so
    vectors has one more entry than increments.  signs[n] is its open
    quadrant, or None on an axis.  period, when set, is (start, length) of
    an exact projective revisit; excluded_id names the non-renormalizing
    tail family when status is EXCLUDED_TAIL.  built holds the vectors the
    greedy steps computed; past the period's close vectors scales them on
    first read, so a reader of letters and signs alone builds none.  Two
    prefixes are equal, and hash alike, when every field but built is,
    vectors included.
    """

    lam: QuadNum
    theta: QVec2
    increments: tuple[Letter, ...]
    built: tuple[QVec2, ...]
    signs: tuple
    status: TailStatus
    period: tuple[int, int] | None = None
    excluded_id: str | None = None

    def __len__(self) -> int:
        return len(self.increments)

    def __eq__(self, other):
        if not isinstance(other, ShrinkData):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _fields(self) -> tuple:
        return (self.lam, self.theta, self.increments, self.signs,
                self.status, self.period, self.excluded_id, self.vectors)

    @cached_property
    def vectors(self) -> tuple[QVec2, ...]:
        """built, then the period replayed to one vector per increment:
        with vectors[start + p] = c * vectors[start], vector k is c times
        vector k - p, exactly."""
        out = list(self.built)
        if self.period is not None and len(out) <= len(self.increments):
            start, p = self.period
            old, new = out[start], out[start + p]
            c = new.x / old.x if old.x else new.y / old.y
            for k in range(len(out), len(self.increments) + 1):
                out.append(c * out[k - p])
        return tuple(out)

    @cached_property
    def _critical_times(self) -> tuple[int, ...]:
        """The body of critical_times, run once per prefix."""
        signs = sign_sequence(self)
        from_signs = tuple(n for n in range(1, len(signs))
                           if signs[n - 1] == signs[n])
        limit = len(self.increments)
        from_words = tuple(
            n for n in range(1, limit)
            if self.increments[n].exp == self.increments[n - 1].exp)
        if tuple(t for t in from_signs if t < limit) != from_words:
            raise ArithmeticError(
                'critical times disagree between sign and word routes')
        return from_signs


def _canonical_projective(v: QVec2):
    if v.y.sign() != 0:
        return (v.x / v.y, None)
    return (None, QuadNum(1))


def _cyclic_excluded_id(period_letters: Sequence[Letter]) -> str | None:
    letters = tuple(period_letters)
    if not letters:
        return None
    if all(l == letters[0] for l in letters):
        return str(letters[0])
    for pair, name in (((H, V_INV), 'h v^-1'), ((H_INV, V), 'h^-1 v')):
        if set(letters) == set(pair) and len(letters) % 2 == 0:
            if all(letters[i] != letters[(i + 1) % len(letters)]
                   for i in range(len(letters))):
                return name
    return None


def _shrinkers(lam: QuadNum, x: QuadNum, y: QuadNum):
    """(letters, lam*x, lam*y): the letters of LETTERS that strictly
    shrink (x, y), and the two products, which the step then reuses.

    h^+-1 changes the squared norm by +-lam*y * (2x +- lam*y) and v^+-1 by
    +-lam*x * (2y +- lam*x), so four sums and the signs of lam*x and
    lam*y decide all four letters.  x is the left operand of the h sums,
    as in x + lam*y, so a field mix is reported as the shear reports it.

    :func:`shrink_membership` does not call it: both products are formed
    here, so one the letter does not read can raise a field mix that the
    letter's own shear never meets (lam = -sqrt(5), v^-2, (0, -1+sqrt(2))).
    """
    out = []
    ly = lam * y
    s = ly.sign()
    if s:
        x2 = x + x
        if (x2 + ly).sign() == -s:
            out.append(H)
        if (x2 - ly).sign() == s:
            out.append(H_INV)
    lx = lam * x
    s = lx.sign()
    if s:
        y2 = y + y
        if (lx + y2).sign() == -s:
            out.append(V)
        if (y2 - lx).sign() == s:
            out.append(V_INV)
    return out, lx, ly


# the quadrant of -v for the quadrant of v, and None (an axis) for None
_HALF_TURN = {None: None, **{s: s.rotate().rotate() for s in SignPair}}


def shrinking_sequence(lam, theta, max_steps: int = 64) -> ShrinkData:
    """Greedily shrink a direction, stopping on a terminal configuration.

    At each step at most one generator strictly shrinks the current vector;
    it is applied and recorded.  Stops early only when no generator shrinks.
    An exact projective revisit is recorded as a period and classified as an
    excluded tail when the period word is a constant or one of the two
    alternating families.  The period then replays to max_steps letters:
    with vectors[start + p] = c * vectors[start], letter k is letter k - p
    and its vector c times that one's, exactly, since the greedy choice
    reads the signs of degree-2 forms, which c * v shares with v.  The
    replay writes letters and signs alone; ShrinkData.vectors scales the
    vectors past the close when first read.  Below lam = 2 two shrink
    cones overlap, so the greedy choice is undefined.
    """
    lam = as_quad(lam)
    if lam < 2:
        raise ValueError('lambda must be at least 2, got %s' % lam)
    theta = _direction(theta)
    increments: list[Letter] = []
    vectors = [theta]
    signs = [theta.quadrant()]
    seen = {_canonical_projective(theta): 0}
    status = TailStatus.CONTINUES
    period = None
    excluded_id = None
    x, y = theta.x, theta.y
    for n in range(max_steps):
        shrinkers, lx, ly = _shrinkers(lam, x, y)
        if not shrinkers:
            status = TailStatus.NO_STRICT_SHRINKER
            break
        if len(shrinkers) > 1:
            raise ArithmeticError(
                'two generators shrink %s at once' % QVec2(x, y))
        letter = shrinkers[0]
        if letter.gen == 'h':
            x = x + ly if letter.exp == 1 else x - ly
        else:
            y = y + lx if letter.exp == 1 else y - lx
        current = QVec2(x, y)
        increments.append(letter)
        vectors.append(current)
        signs.append(current.quadrant())
        key = _canonical_projective(current)
        if key in seen:
            start = seen[key]
            period = (start, n + 1 - start)
            excluded_id = _cyclic_excluded_id(increments[start:])
            break
        seen[key] = n + 1
    if period is not None:
        start, p = period
        old = vectors[start]
        more = max_steps - start - p
        increments += islice(cycle(increments[start:]), more)
        # signs[k] is that of c * vectors[k - p]: the same quadrant for
        # c > 0 and the opposite one for c < 0, an axis staying an axis
        tail = signs[start + 1:]
        if (x.sign() != old.x.sign() if old.x else
                y.sign() != old.y.sign()):
            tail = [_HALF_TURN[s] for s in tail] + tail
        signs += islice(cycle(tail), more)
        status = (TailStatus.EXCLUDED_TAIL if excluded_id
                  else TailStatus.PERIODIC)
    return ShrinkData(lam=lam, theta=theta, increments=tuple(increments),
                      built=tuple(vectors), signs=tuple(signs),
                      status=status, period=period, excluded_id=excluded_id)


# A letter that shrinks a vector from quadrant s to quadrant t has an
# inverse that expands t back to s, so both tables are read off the
# inverse's quadrant transport: the quadrants a letter can shrink are the
# images of that transport, and it can send s to any t carried back to s.
_ADMISSIBLE = {l: {sign_act_letter(l.inverse(), t) for t in SignPair}
               for l in LETTERS}
_TRANSITIONS = {
    (s, l): {t for t in SignPair if sign_act_letter(l.inverse(), t) is s}
    for l in LETTERS for s in _ADMISSIBLE[l]}


def _reconstruct_signs(s0: SignPair,
                       increments: Sequence[Letter]) -> list[SignPair]:
    """Rebuild s_1..s_{N-1} from s_0 and the increments alone.

    The letter applied next confines a vector to two quadrants, and the
    transition table of the letter just applied allows two images; the
    intersection is always a single quadrant.
    """
    out = [s0]
    for i in range(len(increments) - 1):
        allowed = _TRANSITIONS[(out[-1], increments[i])]
        meet = allowed & _ADMISSIBLE[increments[i + 1]]
        if len(meet) != 1:
            raise ArithmeticError('sign reconstruction is ambiguous')
        out.append(meet.pop())
    return out


def sign_sequence(data: ShrinkData) -> tuple[SignPair, ...]:
    """Quadrants along the prefix, cross-checked against reconstruction."""
    if not data.increments:
        raise ValueError('empty prefix has no sign sequence')
    if any(s is None for s in data.signs):
        raise ValueError('direction meets an axis; it does not renormalize')
    rebuilt = _reconstruct_signs(data.signs[0], data.increments)
    if tuple(rebuilt) != data.signs[:len(rebuilt)]:
        raise ArithmeticError(
            'sign reconstruction disagrees with direct evaluation')
    return tuple(data.signs)


def critical_times(data: ShrinkData) -> tuple[int, ...]:
    """Times n >= 1 with signs[n-1] == signs[n].

    Cross-checked against the word characterization: n is critical exactly
    when the n-th and (n+1)-th increments share an exponent sign.  The
    check runs on the first call for each ShrinkData, which keeps the
    result; a disagreement raises on every call.
    """
    return data._critical_times


class Verdict(Enum):
    YES = 'yes'
    NO = 'no'
    UNDETERMINED = 'undetermined'


@dataclass(frozen=True)
class RenormVerdict:
    verdict: Verdict
    reason: str | None = None


def _validate_geodesic(increments: Sequence[Letter],
                       period: Sequence[Letter] | None) -> None:
    chain = list(increments) + (list(period) * 2 if period else [])
    for prev, nxt in zip(chain, chain[1:]):
        if nxt == prev.inverse():
            raise ValueError('increments cancel; not a geodesic ray')


def is_renormalizing(increments: Sequence[Letter] = (),
                     period: Sequence[Letter] | None = None) -> RenormVerdict:
    """Classify a geodesic ray given by increments and an optional period.

    With a period the answer is decidable: the ray fails exactly when its
    tail is a constant generator or one of the two alternating families.
    A bare finite prefix is always UNDETERMINED since both exclusions are
    tail conditions.
    """
    increments = tuple(increments)
    period = tuple(period) if period is not None else None
    _validate_geodesic(increments, period)
    if period is None:
        return RenormVerdict(Verdict.UNDETERMINED, 'finite prefix')
    if not period:
        raise ValueError('period must be nonempty')
    excluded = _cyclic_excluded_id(period)
    if excluded is not None:
        return RenormVerdict(Verdict.NO, excluded)
    return RenormVerdict(Verdict.YES)


def _canonical_direction(v: QVec2) -> QVec2:
    sy = v.y.sign()
    if sy < 0 or (sy == 0 and v.x.sign() < 0):
        return -v
    return v


@dataclass(frozen=True)
class DirectionCone:
    """An open cone of directions bounded by two exact vectors."""

    lo: QVec2
    hi: QVec2

    def contains(self, theta) -> bool:
        theta = QVec2(*_xy(theta))
        d = self.lo.wedge(self.hi).sign()
        for cand in (theta, -theta):
            if (self.lo.wedge(cand).sign() == d
                    and cand.wedge(self.hi).sign() == d):
                return True
        return False

    def width(self) -> float:
        """Angular width in radians, for reporting only."""
        a = math.atan2(float(self.lo.y), float(self.lo.x))
        b = math.atan2(float(self.hi.y), float(self.hi.x))
        return abs(math.remainder(b - a, math.pi))


def direction_from_sequence(lam, prefix: Sequence[Letter] = (),
                            period: Sequence[Letter] | None = None):
    """Recover the direction shrunk by a renormalizing sequence.

    With a period: the exact contracting eigendirection of the period
    matrix, pulled back through the prefix, canonicalized to y > 0 (or
    x > 0 on the horizontal axis).  Quadratic eigenvalues must live in a
    degree <= 2 field, and the direction's two entries in one field, or
    ValueError is raised.  Without a period: the cone of directions
    consistent with the prefix, as a :class:`DirectionCone`.
    """
    lam = as_quad(lam)
    prefix = tuple(prefix)
    verdict = is_renormalizing(prefix, period)
    if verdict.verdict is Verdict.NO:
        raise ValueError('sequence does not renormalize: %s' % verdict.reason)
    if period is None:
        if not prefix:
            raise ValueError('empty prefix constrains nothing')
        last = prefix[-1]
        lo, hi = shrink_cone(lam, last)
        back = rho(lam, Word(reversed(prefix[:-1])).inverse())
        return DirectionCone(back.apply(lo), back.apply(hi))
    period = tuple(period)
    pmat = rho(lam, Word(reversed(period)))
    tr = pmat.trace()
    disc = tr * tr - 4
    if disc.sign() <= 0:
        raise ValueError('period matrix is not hyperbolic')
    root = quad_sqrt(disc)
    mu = (tr - root) / 2 if tr.sign() > 0 else (tr + root) / 2
    if pmat.b.sign() != 0 or (mu - pmat.a).sign() != 0:
        eigvec = QVec2(pmat.b, mu - pmat.a)
    else:
        eigvec = QVec2(mu - pmat.d, pmat.c)
    if prefix:
        eigvec = rho(lam, Word(reversed(prefix)).inverse()).apply(eigvec)
    if len({eigvec.x.field_disc, eigvec.y.field_disc} - {0}) > 1:
        raise ValueError('eigendirection %s lies in no one quadratic field'
                         % (eigvec,))
    return _canonical_direction(eigvec)


def matched_direction(data: ShrinkData, lam2) -> QVec2:
    """The direction that data's periodic sequence renormalizes at lam2."""
    start, p = data.period
    return direction_from_sequence(lam2, data.increments[:start],
                                   data.increments[start:start + p])


def renormalizes(data: ShrinkData, lam2, theta) -> bool:
    """Whether data's periodic sequence renormalizes theta at lam2, that
    is, whether theta is parallel to matched_direction(data, lam2), decided
    with no square root: the prefix carries theta to a nonzero u with
    M*u = mu*u for the period matrix M, and |mu| < 1.  A theta and lam2
    in two fields raise FieldMixError."""
    start, p = data.period
    lam2, inc = as_quad(lam2), data.increments
    u = rho(lam2, Word(reversed(inc[:start]))).apply(QVec2(*_xy(theta)))
    image = rho(lam2, Word(reversed(inc[start:start + p]))).apply(u)
    if image.wedge(u) or not (u.x or u.y):
        return False
    return abs(image.x / u.x if u.x else image.y / u.y) < 1


class OmegaKind(Enum):
    IN_OMEGA = 'in-omega'
    NOT_IN_OMEGA = 'not-in-omega'
    UNDETERMINED = 'undetermined'


@dataclass(frozen=True)
class OmegaResult:
    kind: OmegaKind
    reason: str
    data: ShrinkData | None = None


def omega_test(n: int, alpha, max_steps: int = 64) -> OmegaResult:
    """Membership of alpha in the renormalizable parameter set at level n.

    The direction (alpha mod 1 - 1/n, 1/n) is shrunk greedily at parameter
    n: h^1 at lambda = n sends alpha to alpha + 1, and the skew rotation
    reads alpha mod 1.
    Rationals never belong; an exact periodic non-excluded tail certifies
    membership; a dead end or excluded tail certifies exclusion.
    """
    if n < 2:
        raise ValueError('level must be at least 2')
    alpha = as_quad(alpha)
    if alpha.is_rational:
        return OmegaResult(OmegaKind.NOT_IN_OMEGA, 'alpha is rational')
    theta = QVec2(alpha % 1 - Fraction(1, n), Fraction(1, n))
    data = shrinking_sequence(n, theta, max_steps)
    if data.status is TailStatus.PERIODIC:
        return OmegaResult(OmegaKind.IN_OMEGA, 'periodic renormalizing tail',
                           data)
    if data.status is TailStatus.EXCLUDED_TAIL:
        return OmegaResult(OmegaKind.NOT_IN_OMEGA,
                           'excluded tail %s' % data.excluded_id, data)
    if data.status is TailStatus.NO_STRICT_SHRINKER:
        return OmegaResult(OmegaKind.NOT_IN_OMEGA, 'no strict shrinker', data)
    return OmegaResult(OmegaKind.UNDETERMINED, 'budget exhausted', data)
