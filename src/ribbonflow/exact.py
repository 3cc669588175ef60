"""Exact arithmetic in real quadratic fields, with small vectors and matrices.

Every scalar is a number (a + b*sqrt(d))/q held as four ints: q > 0,
gcd(a, b, q) == 1, and a fixed squarefree d >= 0 that is 0 exactly when
b == 0 (the integral representation of H. Cohen, *A Course in
Computational Algebraic Number Theory*).  Arithmetic works on the ints
and reduces by one gcd; Fractions appear only where a number is built,
parsed or printed.  All operations are exact: no floats enter any
computation unless the caller explicitly asks for one.  Mixing two
scalars from genuinely different fields raises :class:`FieldMixError`;
rational scalars (b == 0) are compatible with every field.

Every number a caller hands the library is read by :func:`as_quad`.  A
float raises TypeError there, since its binary value is not the decimal
written; only the float twins of the orbit routines in `dynamics` take
floats.
"""

from __future__ import annotations

import math
import operator
import re
from enum import Enum
from fractions import Fraction
from itertools import chain


class FieldMixError(ArithmeticError):
    """Arithmetic attempted between scalars of two different quadratic fields."""


def _join(d: int, e: int) -> int:
    """The field of two numbers, one in Q(sqrt(d)) (d == 0 for a
    rational) and one irrational in Q(sqrt(e)), e != d: e when d is 0,
    else FieldMixError naming d first.  Called only on that mismatch, so
    the common path makes no call."""
    if d:
        raise FieldMixError('cannot combine sqrt(%d) with sqrt(%d)' % (d, e))
    return e


def _power(base, n: int, one):
    """base ** n for an integer n >= 0, by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


_TRIAL_LIMIT = 10 ** 6


def _square_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree, for n >= 1.

    Trial division stops at 10^6.  A cofactor left below 10^18 has at
    most two prime factors, so it is squarefree unless it is a square;
    above 10^18 only a square cofactor is decided.
    """
    s, d, m = 1, 1, n
    r = math.isqrt(m)
    for p in chain((2,), range(3, _TRIAL_LIMIT + 1, 2)):
        if p > r:
            return s, d * m
        if not m % p:
            k = 0
            while not m % p:
                m //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                d *= p
            r = math.isqrt(m)
    # no prime below 10^6 divides m, and m >= (10^6 - 1)^2
    if r * r == m:
        return s * r, d
    if m >= _TRIAL_LIMIT ** 3:
        raise ValueError('cannot split %d: a cofactor above 10^18 has no '
                         'prime factor below 10^6' % n)
    return s, d * m


def _order(test):
    """The rich comparison of QuadNums deciding test(sign, 0) for the sign
    of q*oq*(self - other), as __sub__ and sign() would find it, on ints:
    no number is built.  An int or a Fraction is read as its numerator
    and denominator, never lifted, and mixes no field.  An operand that
    is no exact number gives NotImplemented, and a field mix names
    self's field first."""

    def compare(self, o):
        if type(o) is not QuadNum:
            if isinstance(o, int):
                return test(_sign(self._a - o * self._q, self._b, self._d), 0)
            if isinstance(o, Fraction):
                n, m = o.numerator, o.denominator
                return test(_sign(self._a * m - n * self._q, self._b * m,
                                  self._d), 0)
            return NotImplemented
        d = self._d
        if o._d and o._d != d:
            d = _join(d, o._d)
        q, oq = self._q, o._q
        if q == oq:
            return test(_sign(self._a - o._a, self._b - o._b, d), 0)
        return test(_sign(self._a * oq - o._a * q, self._b * oq - o._b * q,
                          d), 0)

    return compare


class QuadNum:
    """An exact element (a + b*sqrt(d))/q of the real field Q(sqrt(d)).

    Four ints are stored, and the representation is canonical: q > 0,
    gcd(a, b, q) == 1, d is squarefree, and d == 0 exactly when b == 0.
    Equal values therefore have equal components.  One argument is read
    by :func:`as_quad`; three build a + b*sqrt(d) from ints or Fractions
    a and b and an int d.  The rational and radical parts read back as
    Fractions.
    """

    __slots__ = ('_a', '_b', '_q', '_d')

    def __init__(self, a=0, b=0, d: int = 0):
        if type(b) is int and type(d) is int and not (b or d):
            x = as_quad(a)
        else:
            x = _from_parts(a, b, d)
        self._a, self._b, self._q, self._d = x._a, x._b, x._q, x._d

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def radical_part(self) -> Fraction:
        return Fraction(self._b, self._q)

    @property
    def field_disc(self) -> int:
        """The squarefree d, or 0 for rationals."""
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._b

    def as_fraction(self) -> Fraction:
        if self._b:
            raise ValueError('%s is irrational' % self)
        return self.rational_part

    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        d = self._d
        if o._d and o._d != d:
            d = _join(d, o._d)
        q, oq = self._q, o._q
        if q == oq:
            return _reduced(self._a + o._a, self._b + o._b, q, d)
        a = self._a * oq + o._a * q
        b = self._b * oq + o._b * q
        if q == 1 or oq == 1:
            # gcd(a + k*q, b + m*q, q) is the other summand's gcd(a, b, q)
            return _canonical(a, b, q * oq, d)
        return _reduced(a, b, q * oq, d)

    __radd__ = __add__

    def __neg__(self) -> 'QuadNum':
        return _canonical(-self._a, -self._b, self._q, self._d)

    def __sub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        d = self._d
        if o._d and o._d != d:
            d = _join(d, o._d)
        q, oq = self._q, o._q
        if q == oq:
            return _reduced(self._a - o._a, self._b - o._b, q, d)
        a = self._a * oq - o._a * q
        b = self._b * oq - o._b * q
        if q == 1 or oq == 1:
            return _canonical(a, b, q * oq, d)
        return _reduced(a, b, q * oq, d)

    def __rsub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        d = self._d
        if o._d and o._d != d:
            d = _join(d, o._d)
        a, b, oa, ob = self._a, self._b, o._a, o._b
        return _reduced(a * oa + b * ob * d, a * ob + b * oa,
                        self._q * o._q, d)

    __rmul__ = __mul__

    def inverse(self) -> 'QuadNum':
        # q/(a + b*sqrt(d)) = (a*q - b*q*sqrt(d)) / (a*a - b*b*d)
        a, b, d = self._a, self._b, self._d
        n = a * a - b * b * d
        if n == 0:
            raise ZeroDivisionError('division by zero')
        if n < 0:
            a, b, n = -a, -b, -n
        return _reduced(a * self._q, -b * self._q, n, d)

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        """Exact integer power; negative exponents invert.  A rational
        base is raised on its ints: (a/q)^n is a^n/q^n, already reduced."""
        if not isinstance(n, int):
            return NotImplemented
        if self._b:
            if n < 0:
                return _power(self.inverse(), -n, _ONE)
            return _power(self, n, _ONE)
        a, q = self._a, self._q
        if n < 0:
            if not a:
                raise ZeroDivisionError('division by zero')
            a, q, n = (q, a, -n) if a > 0 else (-q, -a, -n)
        return _canonical(a ** n, 0, q ** n, 0)

    def sign(self) -> int:
        return _sign(self._a, self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        o = other if type(other) is QuadNum else _lift(other)
        if o is None:
            return NotImplemented
        return (self._a == o._a and self._b == o._b and self._q == o._q
                and self._d == o._d)

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __hash__(self):
        if not self._b:
            return hash(self.rational_part)
        return hash((self.rational_part, self.radical_part, self._d))

    def __abs__(self) -> 'QuadNum':
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        # int / int rounds correctly even where either int overflows a float
        return self._a / self._q + self._b / self._q * math.sqrt(self._d)

    def __floor__(self) -> int:
        return _floor(self._a, self._b, self._q, self._d)

    def __mod__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        if o.sign() <= 0:
            raise ValueError('modulus must be positive')
        d = self._d
        if o._d and o._d != d:
            d = _join(d, o._d)
        a, b, q, oa, ob, oq = self._a, self._b, self._q, o._a, o._b, o._q
        # self/o = oq*(a + b*sqrt(d))*(oa - ob*sqrt(d)) / (q*n)
        n = oa * oa - ob * ob * d
        s = oq if n > 0 else -oq
        k = _floor(s * (a * oa - b * ob * d), s * (b * oa - a * ob),
                   q * abs(n), d)
        return _reduced(a * oq - k * oa * q, b * oq - k * ob * q, q * oq, d)

    def __str__(self) -> str:
        a, b = self._a, self._b
        text = _ratio(a, self._q)
        if not b:
            return text
        mag = _ratio(abs(b), self._q)
        term = ('sqrt(%d)' if mag == '1' else mag + '*sqrt(%d)') % self._d
        if not a:
            return term if b > 0 else '-' + term
        return '%s%s%s' % (text, '+' if b > 0 else '-', term)

    def __repr__(self) -> str:
        return "QuadNum('%s')" % self


def _ratio(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0, read off the ints."""
    g = math.gcd(n, q)
    if g != 1:
        n //= g
        q //= g
    return '%d/%d' % (n, q) if q != 1 else str(n)


def _reduced(a: int, b: int, q: int, d: int) -> QuadNum:
    """The canonical QuadNum (a + b*sqrt(d))/q, for q > 0 and a squarefree
    d that is the field of the operands (read as 0 once b == 0)."""
    if q != 1:
        g = math.gcd(a, b, q)
        if g != 1:
            a //= g
            b //= g
            q //= g
    # the body of _canonical, inlined: this runs once per arithmetic result
    out = object.__new__(QuadNum)
    out._a = a
    out._b = b
    out._q = q
    out._d = d if b else 0
    return out


def _canonical(a: int, b: int, q: int, d: int) -> QuadNum:
    """_reduced for components known to have gcd(a, b, q) == 1."""
    out = object.__new__(QuadNum)
    out._a = a
    out._b = b
    out._q = q
    out._d = d if b else 0
    return out


def _sign(a: int, b: int, d: int) -> int:
    """The sign of a + b*sqrt(d), for squarefree d (any d if b == 0)."""
    if not b:
        return (a > 0) - (a < 0)
    if not a:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: |a| vs |b|*sqrt(d) decided by squaring; they
    # differ, since sqrt(d) is irrational
    winner = a if a * a > b * b * d else b
    return 1 if winner > 0 else -1


def _floor(a: int, b: int, q: int, d: int) -> int:
    """floor((a + b*sqrt(d))/q) for q > 0 and squarefree d (any d if
    b == 0); the components need not be reduced."""
    if not b:
        return a // q
    # sqrt(b*b*d) is irrational, so its floor is isqrt(b*b*d) and that of
    # its negative is -isqrt(b*b*d) - 1
    root = math.isqrt(b * b * d)
    if b > 0:
        return (a + root) // q
    return (a - root - 1) // q


def _lift(value) -> 'QuadNum | None':
    """value as a QuadNum, for QuadNums, ints and Fractions; else None."""
    if type(value) is QuadNum:
        return value
    if isinstance(value, int):
        return _reduced(value, 0, 1, 0)
    if isinstance(value, Fraction):
        return _reduced(value.numerator, 0, value.denominator, 0)
    return None


def _from_parts(a, b, d) -> QuadNum:
    """The canonical a + b*sqrt(d), for ints or Fractions a and b and an
    int d >= 0."""
    if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))
            and isinstance(d, int)):
        raise TypeError('components take ints or Fractions and an int d, '
                        'got %r' % ((a, b, d),))
    if d < 0:
        raise ValueError('imaginary fields are not supported')
    a = Fraction(a)
    b = Fraction(b)
    if d in (0, 1):
        a += b * d
        b = Fraction(0)
        d = 0
    elif b == 0:
        d = 0
    else:
        s, sf = _square_split(d)
        if sf == 1:
            a += b * s
            b = Fraction(0)
            d = 0
        else:
            b *= s
            d = sf
    # over q = lcm of the reduced denominators no prime divides a, b
    # and q at once, so gcd(a, b, q) == 1 already
    q = math.lcm(a.denominator, b.denominator)
    return _canonical(a.numerator * (q // a.denominator),
                      b.numerator * (q // b.denominator), q, d)


def as_quad(value) -> QuadNum:
    """value as a QuadNum: a QuadNum as it is, an int or a Fraction
    lifted, a textual form parsed (see :func:`parse_quad`).  Anything
    else, a float included, raises TypeError naming the value."""
    x = _lift(value)
    if x is not None:
        return x
    if isinstance(value, str):
        return _from_parts(*_parse_components(value))
    raise TypeError('not an exact number: %r' % (value,))


def _lift_common(values, field: int = 0) -> tuple[list, list, int, int]:
    """(A, B, q, d) with values[i] == (A[i] + B[i]*sqrt(d))/q: the values,
    each read by as_quad, over one common denominator q > 0 and one field
    d, which integral shears keep.

    A nonzero field is one the values must share, such as that of values
    lifted before, and d is then field.  Irrational values from two
    fields raise FieldMixError naming the one met first, field if set;
    values as_quad refuses (floats among them) raise TypeError.  Each
    value is read, coerced and joined in one ordered pass, so the first
    bad value decides which of the two is raised.
    """
    nums = []
    q = 1
    d = field
    for value in values:
        x = value if type(value) is QuadNum else as_quad(value)
        if x._d and x._d != d:
            d = _join(d, x._d)
        if q % x._q:
            q = math.lcm(q, x._q)
        nums.append(x)
    A = ([x._a for x in nums] if q == 1 else
         [x._a * (q // x._q) for x in nums])
    if not d:
        return A, [0] * len(A), q, d
    return A, ([x._b for x in nums] if q == 1 else
               [x._b * (q // x._q) for x in nums]), q, d


_ONE = QuadNum(1)


_ROOT_PART = r'(?:(?P<b>\d+(?:\s*/\s*\d+)?)\s*\*\s*)?sqrt\(\s*(?P<d>\d+)\s*\)'
# when a rational term is present the sign separating the terms is mandatory
_BOTH_RE = re.compile(
    r'^\s*(?P<a>[+-]?\s*\d+(?:\s*/\s*\d+)?)\s*'
    r'(?:(?P<sign>[+-])\s*' + _ROOT_PART + r')?\s*$')
_ROOT_RE = re.compile(r'^\s*(?P<sign>[+-])?\s*' + _ROOT_PART + r'\s*$')


def _parse_components(text: str) -> tuple[Fraction, Fraction, int]:
    m = _BOTH_RE.match(text) or _ROOT_RE.match(text)
    if m is None:
        raise ValueError('cannot parse %r as a quadratic number' % text)
    groups = m.groupdict()
    a_s = groups.get('a')
    sign, b_s, d_s = groups['sign'], groups['b'], groups['d']

    def ratio(digits: str) -> Fraction:
        try:
            return Fraction(digits.replace(' ', ''))
        except ZeroDivisionError:
            raise ValueError('zero denominator in %r' % text) from None

    a = ratio(a_s) if a_s is not None else Fraction(0)
    if d_s is None:
        return a, Fraction(0), 0
    b = ratio(b_s) if b_s is not None else Fraction(1)
    if sign == '-':
        b = -b
    return a, b, int(d_s)


def parse_quad(text: str) -> QuadNum:
    """Parse textual forms like ``"3"``, ``"-1/2"``, ``"3-2*sqrt(2)"``.

    Inverse of ``str`` on :class:`QuadNum`.
    """
    return QuadNum(text)


def _rational_root(r: Fraction) -> 'Fraction | None':
    """The rational square root of r >= 0, or None if there is none:
    isqrt decides it on the reduced ints, with no factoring."""
    n, m = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if n * n == r.numerator and m * m == r.denominator:
        return Fraction(n, m)
    return None


def sqrt_rational(q) -> QuadNum:
    """Exact square root of a nonnegative rational, as a QuadNum."""
    q = as_quad(q).as_fraction()
    if q < 0:
        raise ValueError('square root of a negative number')
    root = _rational_root(q)
    if root is not None:
        return QuadNum(root)
    s, d = _square_split(q.numerator * q.denominator)
    # sqrt(p/r) = sqrt(p*r)/r = s*sqrt(d)/r
    if d == 1:
        return QuadNum(Fraction(s, q.denominator))
    return QuadNum(0, Fraction(s, q.denominator), d)


def quad_sqrt(x: QuadNum) -> QuadNum:
    """Square root of x staying inside degree <= 2 over the rationals.

    For rational x this always succeeds (possibly landing in a new field).
    For irrational x = a + b*sqrt(d) it succeeds only when x is a perfect
    square inside Q(sqrt(d)); otherwise the root would generate a degree-4
    extension and ValueError is raised.
    """
    x = as_quad(x)
    if x.sign() < 0:
        raise ValueError('square root of a negative number')
    if x.is_rational:
        return sqrt_rational(x.as_fraction())
    a, b, d = x.rational_part, x.radical_part, x.field_disc
    # want (c + e*sqrt(d))**2 = x: c*c + e*e*d = a and 2*c*e = b, so the
    # norm a*a - b*b*d = (c*c - e*e*d)**2 and c*c are rational squares
    norm = a * a - b * b * d
    n = _rational_root(norm) if norm >= 0 else None
    for c_sq in (() if n is None else ((a + n) / 2, (a - n) / 2)):
        c = _rational_root(c_sq) if c_sq > 0 else None
        if c is None:
            continue
        cand = QuadNum(c, b / (2 * c), d)
        if cand * cand == x:
            return cand if cand.sign() > 0 else -cand
    raise ValueError('%s has no square root in its own field' % x)


class SignPair(Enum):
    """A pair of strict signs, one per coordinate, naming an open quadrant."""

    PP = (1, 1)
    PM = (1, -1)
    MP = (-1, 1)
    MM = (-1, -1)

    @property
    def sx(self) -> int:
        return self.value[0]

    @property
    def sy(self) -> int:
        return self.value[1]

    @classmethod
    def from_signs(cls, sx: int, sy: int) -> 'SignPair':
        return cls((sx, sy))

    def rotate(self) -> 'SignPair':
        """Image under the quarter turn (x, y) -> (-y, x)."""
        return SignPair((-self.sy, self.sx))

    def __str__(self) -> str:
        return ('+' if self.sx > 0 else '-') + ('+' if self.sy > 0 else '-')

    @classmethod
    def from_str(cls, text: str) -> 'SignPair':
        if len(text) != 2 or any(ch not in '+-' for ch in text):
            raise ValueError('expected two signs, got %r' % text)
        return cls((1 if text[0] == '+' else -1, 1 if text[1] == '+' else -1))


class QVec2:
    """A column vector with two QuadNum entries."""

    __slots__ = ('x', 'y')

    def __init__(self, x, y):
        self.x = x if type(x) is QuadNum else as_quad(x)
        self.y = y if type(y) is QuadNum else as_quad(y)

    def __add__(self, other: 'QVec2') -> 'QVec2':
        return QVec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: 'QVec2') -> 'QVec2':
        return QVec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> 'QVec2':
        return QVec2(-self.x, -self.y)

    def __rmul__(self, scalar) -> 'QVec2':
        return QVec2(scalar * self.x, scalar * self.y)

    def __eq__(self, other):
        if not isinstance(other, QVec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def dot(self, other: 'QVec2') -> QuadNum:
        return self.x * other.x + self.y * other.y

    def wedge(self, other: 'QVec2') -> QuadNum:
        """The determinant of the 2x2 matrix with columns (self, other)."""
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> QuadNum:
        return self.dot(self)

    def quadrant(self) -> 'SignPair | None':
        """The open quadrant containing the vector, or None on an axis."""
        sx, sy = self.x.sign(), self.y.sign()
        if sx == 0 or sy == 0:
            return None
        return SignPair.from_signs(sx, sy)

    def __str__(self) -> str:
        return '(%s, %s)' % (self.x, self.y)

    def __repr__(self) -> str:
        return 'QVec2(%r, %r)' % (self.x, self.y)


def _xy(v) -> tuple:
    """The two entries of a QVec2 or of an (x, y) pair, as given."""
    x, y = (v.x, v.y) if isinstance(v, QVec2) else v
    return x, y


class QMat2:
    """A 2x2 matrix with QuadNum entries, stored row-major."""

    __slots__ = ('a', 'b', 'c', 'd')

    def __init__(self, a, b, c, d):
        self.a = a if type(a) is QuadNum else as_quad(a)
        self.b = b if type(b) is QuadNum else as_quad(b)
        self.c = c if type(c) is QuadNum else as_quad(c)
        self.d = d if type(d) is QuadNum else as_quad(d)

    @classmethod
    def identity(cls) -> 'QMat2':
        return cls(1, 0, 0, 1)

    def __mul__(self, other):
        if isinstance(other, QMat2):
            return QMat2(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)
        if isinstance(other, QVec2):
            return self.apply(other)
        return NotImplemented

    def apply(self, v: QVec2) -> QVec2:
        return QVec2(self.a * v.x + self.b * v.y,
                     self.c * v.x + self.d * v.y)

    def __eq__(self, other):
        if not isinstance(other, QMat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def det(self) -> QuadNum:
        return self.a * self.d - self.b * self.c

    def trace(self) -> QuadNum:
        return self.a + self.d

    def transpose(self) -> 'QMat2':
        return QMat2(self.a, self.c, self.b, self.d)

    def inverse(self) -> 'QMat2':
        det = self.det()
        if not det:
            raise ZeroDivisionError('matrix is singular')
        inv = det.inverse()
        return QMat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def inverse_transpose(self) -> 'QMat2':
        return self.inverse().transpose()

    def __pow__(self, n: int) -> 'QMat2':
        if n < 0:
            return _power(self.inverse(), -n, QMat2.identity())
        return _power(self, n, QMat2.identity())

    def __str__(self) -> str:
        return '[[%s, %s], [%s, %s]]' % (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return 'QMat2(%r, %r, %r, %r)' % (self.a, self.b, self.c, self.d)
