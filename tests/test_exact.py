import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonflow import exact
from ribbonflow.dynamics import hpoint, skew_step
from ribbonflow.eigen import gz_constant, gz_exponential, verify_eigen
from ribbonflow.exact import (
    FieldMixError,
    QMat2,
    QuadNum,
    QVec2,
    SignPair,
    _lift_common,
    as_quad,
    parse_quad,
    quad_sqrt,
    sqrt_rational,
)
from ribbonflow.freegrp import Word, rho
from ribbonflow.graphs import IntegersZ, OracleFun, PathGraph
from ribbonflow.measures import plane_point, transversal_measure
from ribbonflow.renorm import shrinking_sequence
from ribbonflow.surface import Surface

SQUAREFREE = [0, 2, 3, 5, 7, 13, 34, 41]

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)


@st.composite
def quads(draw, d=None):
    a = draw(rationals)
    b = draw(rationals)
    if d is None:
        d = draw(st.sampled_from(SQUAREFREE))
    return QuadNum(a, b, d)


def test_canonical_form():
    assert QuadNum(1, 3, 4) == QuadNum(7)
    assert QuadNum(0, 1, 12) == QuadNum(0, 2, 3)
    assert QuadNum(5, 0, 7).field_disc == 0
    assert QuadNum(2, 1, 1) == QuadNum(3)


def test_canonical_form_past_trial_division():
    # cofactors with no prime below 10^6: one or two large primes below
    # 10^18, and a square above it
    p, q, r = 1000003, 1000033, 10 ** 9 + 7
    assert QuadNum(0, 1, p * p * 7) == QuadNum(0, p, 7)
    assert QuadNum(0, 1, 12 * p * q).field_disc == 3 * p * q
    assert QuadNum(0, 1, p ** 4) == QuadNum(p * p)
    assert QuadNum(0, 1, r * r * 3) == QuadNum(0, r, 3)
    assert sqrt_rational(Fraction(4 * q, 9)) == QuadNum(0, Fraction(2, 3), q)


def test_rational_coercion_across_fields():
    x = QuadNum(0, 1, 2)
    assert x + 1 == QuadNum(1, 1, 2)
    assert (x - x).field_disc == 0
    with pytest.raises(FieldMixError):
        _ = x + QuadNum(0, 1, 3)


def test_sign_ambiguous_case():
    # 3 - 2*sqrt(2) is positive but both naive sign checks disagree
    assert QuadNum(3, -2, 2).sign() == 1
    assert QuadNum(1, -1, 2).sign() == -1
    assert QuadNum(-3, 2, 2).sign() == -1
    assert QuadNum(-1, 1, 2).sign() == 1


def test_order_against_rational():
    # (3 - sqrt(5)) / 2 < 2/3
    lhs = QuadNum(Fraction(3, 2), Fraction(-1, 2), 5)
    assert lhs < Fraction(2, 3)
    assert not (lhs < Fraction(1, 3))


@st.composite
def compared_pairs(draw):
    """Two numbers of one test field, each rational or not, with 2- or
    40-digit components; the second is sometimes the first, as an int or
    a Fraction when it is rational."""
    d = draw(st.sampled_from(SQUAREFREE))
    digits = 10 ** draw(st.sampled_from([2, 40]))
    ints = st.integers(-digits, digits)
    dens = st.integers(1, digits)

    def operand():
        b = Fraction(draw(ints), draw(dens)) if draw(st.booleans()) else 0
        return QuadNum(Fraction(draw(ints), draw(dens)), b, d)

    x = operand()
    y = x if draw(st.integers(0, 4)) == 0 else operand()
    if y.is_rational and draw(st.booleans()):
        y = y.as_fraction()
        if y.denominator == 1 and draw(st.booleans()):
            y = y.numerator
    return x, y


@given(pair=compared_pairs())
def test_comparisons_agree_with_the_sign_of_the_difference(pair):
    x, y = pair
    s = (x - y).sign()
    assert ((x < y), (x <= y), (x > y), (x >= y)) == \
        (s < 0, s <= 0, s > 0, s >= 0)
    # swapped, which puts an int or a Fraction on the left at times
    assert ((y < x), (y <= x), (y > x), (y >= x)) == \
        (s > 0, s >= 0, s < 0, s <= 0)



def _fraction_sign(x, y):
    """The sign of x - y decided on the Fractions of their parts, for x
    and y in one field: by the parts' signs, else by squaring."""
    x, y = as_quad(x), as_quad(y)
    a = x.rational_part - y.rational_part
    b = x.radical_part - y.radical_part
    d = x.field_disc or y.field_disc
    if not b or (a > 0) == (b > 0) or not a:
        lead = a or b
    else:
        lead = a if a * a > b * b * d else b
    return (lead > 0) - (lead < 0)


@given(pair=compared_pairs())
def test_each_ordering_agrees_with_the_fraction_route(pair):
    x, y = pair
    s = _fraction_sign(x, y)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        # swapped, an int or a Fraction is on the left at times
        assert op(x, y) is op(s, 0)
        assert op(y, x) is op(-s, 0)


@given(r=rationals, s=st.one_of(st.integers(-10 ** 40, 10 ** 40),
                                 rationals,
                                 st.fractions(max_denominator=10 ** 30)))
def test_orderings_on_rationals_are_those_of_fractions(r, s):
    # an int or a Fraction operand is decided on its numerator and
    # denominator; against a rational QuadNum that is Fraction's order
    x = QuadNum(r)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        assert op(x, s) is op(r, s)
        assert op(s, x) is op(s, r)
    assert x == s if r == s else x != s


@pytest.mark.parametrize('op, x, y', [
    # 1 + sqrt(2) = 2.41421356...
    (operator.lt, QuadNum(1, 1, 2), 3),
    (operator.le, QuadNum(1, 1, 2), Fraction(241422, 100000)),
    (operator.gt, QuadNum(1, 1, 2), Fraction(241421, 100000)),
    (operator.ge, QuadNum(1, 1, 2), 2),
])
def test_orderings_decide_an_irrational_against_a_rational(op, x, y):
    # the rational on the left is reflected onto the QuadNum
    mirror = {operator.lt: operator.gt, operator.le: operator.ge,
              operator.gt: operator.lt, operator.ge: operator.le}[op]
    assert op(x, y) and mirror(y, x) and op(-y, -x)
    assert not (op(y, x) or mirror(x, y))


def test_orderings_refuse_what_is_no_exact_number():
    x = QuadNum(1, 1, 2)
    for name in ('__lt__', '__le__', '__gt__', '__ge__'):
        assert getattr(x, name)(0.5) is NotImplemented
        assert getattr(x, name)('1') is NotImplemented
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((x, 0.5), (0.5, x), (x, None)):
            with pytest.raises(TypeError):
                op(a, b)


def test_floor():
    root2 = QuadNum(0, 1, 2)
    assert math.floor(root2) == 1
    assert math.floor(-root2) == -2
    assert math.floor(QuadNum(3, -2, 2)) == 0
    assert math.floor(QuadNum(Fraction(7, 2))) == 3


def test_mod():
    root2 = QuadNum(0, 1, 2)
    assert root2 % 1 == root2 - 1
    assert (3 * root2) % root2 == QuadNum(0)
    for m in (0, -1, QuadNum(1, -1, 2)):
        with pytest.raises(ValueError, match='modulus must be positive'):
            _ = root2 % m


@given(quads(), st.one_of(rationals, quads()))
def test_mod_is_floored_remainder(x, m):
    m = QuadNum(m)
    if x.field_disc and m.field_disc not in (0, x.field_disc):
        m = QuadNum(m.rational_part, m.radical_part, x.field_disc)
    m = abs(m)
    if not m:
        return
    r = x % m
    expect = x - math.floor(x / m) * m
    assert same(r, expect)
    assert 0 <= r < m


def test_division_exact():
    x = QuadNum(3, -2, 2)
    y = QuadNum(1, 1, 2)
    assert (x / y) * y == x
    assert QuadNum(1) / QuadNum(0, 1, 2) == QuadNum(0, Fraction(1, 2), 2)


def test_sqrt_rational():
    assert sqrt_rational(Fraction(9, 4)) == QuadNum(Fraction(3, 2))
    assert sqrt_rational(Fraction(1025, 16)) == QuadNum(0, Fraction(5, 4), 41)
    assert sqrt_rational(8) == QuadNum(0, 2, 2)
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_quad_sqrt_in_field():
    x = QuadNum(3, -2, 2)
    r = quad_sqrt(x)
    assert r == QuadNum(-1, 1, 2)
    assert r * r == x


def test_quad_sqrt_rejects_higher_degree():
    with pytest.raises(ValueError):
        quad_sqrt(QuadNum(2, 1, 2))


def test_quad_sqrt_decides_by_isqrt_without_trial_division(monkeypatch):
    # the norm of x and c*c must be rational squares, which isqrt decides:
    # no number past the small field discriminants is split, so a norm
    # with no prime factor below the trial limit is still answered
    split = exact._square_split

    def small_only(n):
        assert n < 10 ** 6, 'trial division of %d' % n
        return split(n)

    monkeypatch.setattr(exact, '_square_split', small_only)
    p = 10 ** 20 + 39
    with pytest.raises(ValueError, match='has no square root in its own '
                       'field$'):
        quad_sqrt(QuadNum(p, 1, 2))
    r = QuadNum(p, 3, 2) / 7
    assert quad_sqrt(r * r) == r and quad_sqrt((-r) * (-r)) == r
    # a rational square needs no split either
    assert sqrt_rational(Fraction(p * p, 49)) == QuadNum(Fraction(p, 7))
    assert sqrt_rational(0) == 0


def _while_split(n):
    """_square_split as a while loop over every candidate, the oracle."""
    s, d = 1, 1
    m = n
    p = 2
    while p * p <= m and p <= exact._TRIAL_LIMIT:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                d *= p
        p += 1 if p == 2 else 2
    if p * p > m:
        return s, d * m
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    if m >= exact._TRIAL_LIMIT ** 3:
        raise ValueError('cannot split %d: a cofactor above 10^18 has no '
                         'prime factor below 10^6' % n)
    return s, d * m


def _split_or_refusal(split, n):
    try:
        return split(n)
    except ValueError as err:
        return str(err)


def test_square_split_equals_the_while_loop():
    # the trial division steps its candidates by one for loop and takes
    # isqrt only when a factor divides: the same (s, d), and the same
    # refusal, as the loop that tested every bound on every candidate
    rng = random.Random(1)
    small = (2, 3, 5, 7, 11, 13, 101, 997)
    inputs = list(range(1, 200)) + [rng.randrange(1, 10 ** 9)
                                    for _ in range(1000)]
    for _ in range(2000):
        n = rng.randrange(1, 10 ** 6)
        for p in rng.sample(small, 3):
            n *= p ** rng.randrange(4)
        inputs.append(n)
    # 999983 and 1000003 are the primes either side of 10^6, and the
    # primes 999996999983 and 999997000027 put 1000003 * q either side of
    # the 10^18 cofactor bound; the last is three primes above 10^6
    lo, hi = 999983, 1000003
    edges = [lo, hi, lo * lo, hi * hi, lo * hi, 360 * hi * hi,
             hi * 999996999983, 999996999983 ** 2, hi * 999997000027,
             1000003 * 1000033 * 1000037]
    for n in inputs + edges:
        assert (_split_or_refusal(exact._square_split, n)
                == _split_or_refusal(_while_split, n)), n
    refused = _split_or_refusal(exact._square_split, hi * 999997000027)
    assert refused == ('cannot split %d: a cofactor above 10^18 has no '
                       'prime factor below 10^6' % (hi * 999997000027))
    assert exact._square_split(hi * 999996999983) == (1, hi * 999996999983)


def test_lift_common_of_rational_values():
    # B is all zeros, and A is over q == 1 or over the lcm of the
    # denominators; a start field stays the field
    assert _lift_common([1, -2, QuadNum(3)]) == ([1, -2, 3], [0, 0, 0], 1, 0)
    assert _lift_common([Fraction(1, 2), 3, QuadNum('-2/3')]) == (
        [3, 18, -4], [0, 0, 0], 6, 0)
    assert _lift_common([Fraction(1, 2), 1], 5) == ([1, 2], [0, 0], 2, 5)


def test_parse_round_trip_examples():
    for text in ['3', '-1/2', 'sqrt(2)', '-sqrt(2)', '1/2*sqrt(2)',
                 '-1+sqrt(2)', '3-2*sqrt(2)', '1/2+3/4*sqrt(5)']:
        assert str(parse_quad(text)) == text


def test_parse_rejects_garbage():
    for text in ['', 'sqrt(2', '1 2', '2*sqrt(2)+1', '1 sqrt(2)']:
        with pytest.raises(ValueError):
            parse_quad(text)


def test_zero_denominator_is_a_value_error():
    for text in ['1/0', '1+1/0*sqrt(2)']:
        with pytest.raises(ValueError, match='zero denominator in'):
            parse_quad(text)


@given(quads())
def test_parse_serialize_inverse(x):
    assert parse_quad(str(x)) == x


def _fraction_str(x):
    """str of a QuadNum through its Fraction parts, as __str__ formed it
    before it read the ints."""
    a, b = x.rational_part, x.radical_part
    if b == 0:
        return str(a)
    root = 'sqrt(%d)' % x.field_disc
    mag = abs(b)
    term = root if mag == 1 else '%s*%s' % (mag, root)
    if a == 0:
        return term if b > 0 else '-' + term
    return '%s%s%s' % (a, '+' if b > 0 else '-', term)


@given(pair=compared_pairs())
def test_str_reads_the_ints_as_the_fractions_read(pair):
    # every test field, either sign of each part, 2- and 40-digit parts
    for x in map(QuadNum, pair):
        conjugate = QuadNum(x.rational_part, -x.radical_part, x.field_disc)
        for y in (x, -x, conjugate):
            assert str(y) == _fraction_str(y)


def test_str_of_unit_and_zero_parts():
    for text in ('0', '1', '-1', '1/2', '-7/3', 'sqrt(2)', '-sqrt(2)',
                 '1/2*sqrt(3)', '-3/2*sqrt(5)', '1+sqrt(41)',
                 '-5/7+3/7*sqrt(41)', '2-sqrt(5)', '-1/3-2/3*sqrt(7)'):
        assert str(QuadNum(text)) == _fraction_str(QuadNum(text)) == text


def same(x, y):
    return x == y and hash(x) == hash(y)


@given(quads(), quads(), rationals, st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_routes_to_one_value_agree(x, y, r, n, k):
    # __eq__ compares the stored components, so a result left unreduced
    # would differ from the same value built another way
    if y.field_disc not in (0, x.field_disc):
        y = QuadNum(y.rational_part, y.radical_part, x.field_disc)
    assert same((x + y) - y, x)
    assert same((x - y) + y, x)
    # sums with an integral summand (q == 1) skip the gcd
    a, b, d = x.rational_part, x.radical_part, x.field_disc
    assert same(x + n, QuadNum(a + n, b, d))
    assert same(x - n, QuadNum(a - n, b, d))
    assert same(n - x, QuadNum(n - a, -b, d))
    m = QuadNum(n, k, d)
    assert same(x + m, QuadNum(a + n, b + k, d))
    assert same(m - x, QuadNum(n - a, k - b, d))
    assert same(-(-x), x)
    assert same(x + r - r, x)
    assert same(QuadNum(x.rational_part, x.radical_part, x.field_disc), x)
    if y:
        assert same((x * y) / y, x)
        assert same(y * y.inverse(), QuadNum(1))
    if r:
        assert same(x * r / r, x)
    if r and x:
        assert same(r / (r / x), x)


@pytest.mark.parametrize('r', [0, 1, -1, -7, 10 ** 40, -10 ** 40 + 3,
                               Fraction(1, 3), Fraction(-22, 7),
                               Fraction(10 ** 30 + 1, 10 ** 20)])
def test_rationals_hash_and_compare_as_themselves(r):
    x = QuadNum(r)
    assert x == r and r == x
    assert hash(x) == hash(r)
    assert x.is_rational and x.as_fraction() == r
    assert hash(x + QuadNum(0, 1, 2) - QuadNum(0, 1, 2)) == hash(r)


def test_quadnums_have_no_dict():
    x = QuadNum(1, 1, 2) * QuadNum(Fraction(1, 3))
    assert not hasattr(x, '__dict__')
    with pytest.raises(AttributeError):
        x.extra = 1


def test_field_mix_raises_in_every_operator():
    # the message names the left operand's field first
    x, y = QuadNum(0, 1, 2), QuadNum(1, 1, 3)
    for a, b in ((x, y), (y, x)):
        want = '^cannot combine sqrt\\(%d\\) with sqrt\\(%d\\)$' % (
            a.field_disc, b.field_disc)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv, operator.mod, operator.lt,
                   operator.le, operator.gt, operator.ge):
            with pytest.raises(FieldMixError, match=want):
                op(a, b)


def test_lift_common_names_the_field_seen_first():
    r2, r3 = QuadNum(0, 1, 2), QuadNum(0, 1, 3)
    assert _lift_common([Fraction(1, 2), r2 / 3]) == ([3, 0], [0, 2], 6, 2)
    # a start field is kept by rational values and shared by the rest
    assert _lift_common([1], 3) == ([1], [0], 1, 3)
    assert _lift_common([r3, 1], 3)[3] == 3
    for values, field, first, second in (([r2, 1, r3], 0, 2, 3),
                                         ([r3, r2], 0, 3, 2),
                                         ([r2], 3, 3, 2),
                                         ([1, r3, r2], 3, 3, 2)):
        want = '^cannot combine sqrt\\(%d\\) with sqrt\\(%d\\)$' % (
            first, second)
        with pytest.raises(FieldMixError, match=want):
            _lift_common(values, field)


def test_float_of_huge_operands():
    assert float(QuadNum(10 ** 400, 10 ** 400, 2) / 10 ** 400) == \
        pytest.approx(1 + math.sqrt(2))
    x = QuadNum(10 ** 400 + 1, 10 ** 400, 2) / 10 ** 400
    assert float(x) == pytest.approx(1 + math.sqrt(2))
    assert float(QuadNum(-10 ** 400, 1, 2) / 10 ** 400) == \
        pytest.approx(-1.0)


@given(quads(d=2), quads(d=2), quads(d=2))
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z


@given(quads(d=5))
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(quads(d=3))
def test_floor_is_floor(x):
    n = math.floor(x)
    assert QuadNum(n) <= x < QuadNum(n + 1)


def test_floor_of_huge_operands():
    # beyond float range, and far past where a float estimate lands
    # within a few units
    assert math.floor(QuadNum(10**400, 1, 2)) == 10**400 + 1
    assert math.floor(QuadNum(10**30 + 1, 3, 2)) == 10**30 + 5
    assert math.floor(QuadNum(10**30 + 1, -3, 2)) == 10**30 - 4
    assert QuadNum(10**400, 1, 2) % 1 == QuadNum(-1, 1, 2)


big_rationals = st.builds(Fraction, st.integers(-10**40, 10**40),
                          st.integers(1, 10**12))


@given(big_rationals, big_rationals, st.sampled_from(SQUAREFREE))
def test_floor_brackets_by_sign(a, b, d):
    x = QuadNum(a, b, d)
    n = math.floor(x)
    assert (x - n).sign() >= 0
    assert (x - (n + 1)).sign() < 0


def test_sign_pair_rotation_cycle():
    s = SignPair.PP
    seen = [str(s)]
    for _ in range(3):
        s = s.rotate()
        seen.append(str(s))
    assert seen == ['++', '-+', '--', '+-']
    assert s.rotate() == SignPair.PP


def test_sign_pair_str_round_trip():
    for s in SignPair:
        assert SignPair.from_str(str(s)) is s


def test_vec_frozen_norm():
    # |(3-2*sqrt(2), sqrt(2)-1)|^2 = 20 - 14*sqrt(2)
    v = QVec2(QuadNum(3, -2, 2), QuadNum(-1, 1, 2))
    assert v.norm_sq() == QuadNum(20, -14, 2)


def test_vec_quadrant():
    assert QVec2(1, -2).quadrant() is SignPair.PM
    assert QVec2(0, 1).quadrant() is None
    assert QVec2(QuadNum(3, -2, 2), QuadNum(1, -1, 2)).quadrant() is SignPair.PM


@st.composite
def powers(draw):
    """A base, rational or in one of the fields 2, 3, 5 and 41, and an
    exponent in -40..40; the base is nonzero under a negative one."""
    n = draw(st.integers(-40, 40))
    b = draw(st.one_of(st.just(0), rationals))
    x = QuadNum(draw(rationals), b, draw(st.sampled_from([2, 3, 5, 41])))
    if n < 0 and not x:
        x = QuadNum(1)
    return x, n


@given(powers())
def test_powers_are_repeated_products(case):
    x, n = case
    product = QuadNum(1)
    for _ in range(abs(n)):
        product = product * (x if n >= 0 else x.inverse())
    calls = []
    mul = QuadNum.__mul__
    QuadNum.__mul__ = lambda self, o: calls.append(1) or mul(self, o)
    try:
        power = x ** n
    finally:
        QuadNum.__mul__ = mul
    assert power == product and hash(power) == hash(product)
    assert power.field_disc == product.field_disc
    # a rational base is raised on its ints, with no product of QuadNums
    if x.is_rational:
        assert not calls


def test_powers_refuse_zero_to_a_negative_and_non_integers():
    assert QuadNum(0) ** 0 == 1 and QuadNum(0) ** 3 == 0
    for x in (QuadNum(0), QuadNum(0, 0, 2)):
        with pytest.raises(ZeroDivisionError):
            x ** -1
    with pytest.raises(TypeError):
        pow(QuadNum(2), 1.5)
    with pytest.raises(TypeError):
        pow(QuadNum(0, 1, 2), Fraction(1, 2))


def test_mat_inverse_and_pow():
    m = QMat2(1, 2, 3, 5)
    assert m * m.inverse() == QMat2.identity()
    assert m ** 3 == m * m * m
    assert m ** -2 == (m.inverse()) * (m.inverse())


def test_mat_inverse_transpose():
    m = QMat2(1, 2, 0, 1)
    it = m.inverse_transpose()
    assert it == QMat2(1, 0, -2, 1)


@given(quads(d=2), quads(d=2), quads(d=2), quads(d=2))
def test_dot_is_wedge_with_quarter_turn(ux, uy, vx, vy):
    u = QVec2(ux, uy)
    v = QVec2(vx, vy)
    quarter = QMat2(0, -1, 1, 0)
    assert u.dot(v) == u.wedge(quarter.apply(v))


def test_as_quad_reads_exact_values_only():
    x = QuadNum('1+sqrt(2)')
    assert as_quad(x) is x
    assert as_quad(3) == QuadNum(3) and as_quad(True) == 1
    assert as_quad(Fraction(-2, 6)) == QuadNum(Fraction(-1, 3))
    assert as_quad(' 3 - 2*sqrt(8) ') == QuadNum(3, -4, 2)
    for value in (0.1, None, (1, 2), [1], 1j):
        with pytest.raises(TypeError, match='not an exact number: %s'
                           % re.escape(repr(value))):
            as_quad(value)
    with pytest.raises(ValueError):
        as_quad('sqrt(-2)')


def _gz_measure_args():
    fam = gz_constant()
    theta = (QuadNum(1), QuadNum('-1+sqrt(2)'))
    return (Surface.from_family(fam), plane_point(fam.graph, fam.weight,
                                                  theta), theta, 0)


# exact entry points, each given one float where it takes a number
FLOAT_INPUTS = {
    'QuadNum': lambda: QuadNum(0.5),
    'QuadNum-b': lambda: QuadNum(1, 0.5, 2),
    'QuadNum-d': lambda: QuadNum(1, 1, 2.7),
    'QVec2': lambda: QVec2(0.5, 1),
    'rho': lambda: rho(2.5, Word.from_str('h')),
    'shrinking_sequence-lam': lambda: shrinking_sequence(
        2.0, (1, QuadNum('-1+sqrt(2)'))),
    'shrinking_sequence-theta': lambda: shrinking_sequence(
        2, (1, 0.41421356)),
    'Surface': lambda: Surface(PathGraph(), lambda v: 1, 2.5),
    'gz_exponential': lambda: gz_exponential(1.5),
    'verify_eigen': lambda: verify_eigen(
        PathGraph(), OracleFun(lambda v: 1.0), 2, 3),
    'skew_step': lambda: skew_step(2, 0.3, IntegersZ(), (1, -1),
                                   (QuadNum(0), 0)),
    'hpoint': lambda: hpoint(Surface.from_family(gz_constant()), 0, 0.25),
    'transversal_measure': lambda: transversal_measure(
        *_gz_measure_args(), 0.5, 2),
    'sqrt_rational': lambda: sqrt_rational(0.25),
}


@pytest.mark.parametrize('build', FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_entry_points_refuse_floats(build):
    with pytest.raises(TypeError):
        build()
