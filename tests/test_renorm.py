import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonflow import renorm
from ribbonflow.exact import QMat2, QuadNum, QVec2, SignPair, parse_quad
from ribbonflow.freegrp import (H, H_INV, LETTERS, V, V_INV, Letter, Word,
                                rho, rho_letter)
from ribbonflow.renorm import (
    DirectionCone,
    OmegaKind,
    ShrinkData,
    TailStatus,
    Verdict,
    critical_times,
    direction_from_sequence,
    is_renormalizing,
    matched_direction,
    omega_test,
    shrink_cone,
    shrink_membership,
    shrink_membership_slope,
    shrinking_sequence,
    sign_sequence,
)

ROOT2 = QuadNum(0, 1, 2)
GOLDEN_DIR = QVec2(1, ROOT2 - 1)  # shrunk by the period-two h^-1 v^-1 ray


def test_membership_examples():
    assert shrink_membership(2, H_INV, QVec2(2, 1))
    for letter in LETTERS:
        assert not shrink_membership(2, letter, QVec2(1, 1))
        assert not shrink_membership(2, letter, QVec2(1, 0))
        assert not shrink_membership(2, letter, QVec2(0, 1))
    assert shrink_membership(3, V, QVec2(1, -2))


def test_membership_zero_vector():
    with pytest.raises(ValueError):
        shrink_membership(2, H, QVec2(0, 0))


def test_period_two_benchmark():
    data = shrinking_sequence(2, GOLDEN_DIR, 4)
    assert data.increments == (H_INV, V_INV, H_INV, V_INV)
    assert data.status is TailStatus.PERIODIC
    assert data.period == (0, 2)
    factor = QuadNum(3, -2, 2)
    assert data.vectors[2].x == factor * GOLDEN_DIR.x
    assert data.vectors[2].y == factor * GOLDEN_DIR.y
    assert sign_sequence(data) == (SignPair.PP,) * 5
    assert critical_times(data) == (1, 2, 3, 4)


def test_period_two_mirror():
    data = shrinking_sequence(2, QVec2(1, 1 - ROOT2), 4)
    assert data.increments == (H, V, H, V)
    assert sign_sequence(data) == (SignPair.PM,) * 5
    assert data.vectors[2].x == QuadNum(3, -2, 2)


def test_no_strict_shrinker_examples():
    for theta in (QVec2(1, 1), QVec2(1, 0)):
        data = shrinking_sequence(2, theta, 8)
        assert data.increments == ()
        assert data.status is TailStatus.NO_STRICT_SHRINKER


def test_axis_hit_aborts_signs():
    # greedy ray of (1, -3/4) lands on the vertical axis after three steps
    data = shrinking_sequence(2, QVec2(1, Fraction(-3, 4)), 8)
    assert data.increments == (H, V_INV, H)
    assert data.status is TailStatus.NO_STRICT_SHRINKER
    assert data.signs[3] is None
    with pytest.raises(ValueError):
        sign_sequence(data)


def test_critical_times_prefix_example():
    data = shrinking_sequence(2, QVec2(5, -11), 3)
    assert data.increments == (V, H, H)
    assert 2 in critical_times(data)


def test_critical_times_raise_on_every_call_when_routes_disagree(
        monkeypatch):
    # keep the quadrants, flip the exponents of the v-letters: the sign
    # route still finds (1, 2, 3, 4) and the word route finds none
    data = shrinking_sequence(2, GOLDEN_DIR, 4)
    bad = replace(data, increments=(H_INV, V, H_INV, V))
    monkeypatch.setattr(renorm, 'sign_sequence', lambda d: tuple(d.signs))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match='critical times disagree'):
            critical_times(bad)
    assert critical_times(data) == (1, 2, 3, 4)


def test_alternating_tail_has_no_critical_times():
    # tail h, v^-1, h, v^-1 never repeats a sign; its direction is the
    # contracting eigendirection of the lam=3 period matrix, slope (sqrt5-3)/2
    data = shrinking_sequence(3, QVec2(2, QuadNum(-3, 1, 5)), 10)
    assert data.status is TailStatus.EXCLUDED_TAIL
    assert data.excluded_id == 'h v^-1'
    assert critical_times(data) == ()


def test_is_renormalizing():
    assert is_renormalizing(period=(H_INV, V_INV)).verdict is Verdict.YES
    bad = is_renormalizing(period=(H,))
    assert bad.verdict is Verdict.NO and bad.reason == 'h'
    bad = is_renormalizing(period=(H, V_INV))
    assert bad.verdict is Verdict.NO and bad.reason == 'h v^-1'
    bad = is_renormalizing(period=(V, H_INV))
    assert bad.verdict is Verdict.NO and bad.reason == 'h^-1 v'
    assert is_renormalizing((H, V)).verdict is Verdict.UNDETERMINED
    with pytest.raises(ValueError):
        is_renormalizing((H, H_INV))


def test_direction_from_periodic_sequence():
    theta = direction_from_sequence(2, period=(H_INV, V_INV))
    assert theta.wedge(GOLDEN_DIR) == QuadNum(0)
    assert theta.y.sign() > 0

    theta3 = direction_from_sequence(3, period=(H_INV, V_INV))
    slope = theta3.y / theta3.x
    assert slope == QuadNum(Fraction(-3, 2), Fraction(1, 2), 13)


def test_direction_with_prefix_matches_shifted_ray():
    # h^-1 followed by the (v^-1 h^-1)-periodic tail is the same ray
    theta = direction_from_sequence(2, prefix=(H_INV,), period=(V_INV, H_INV))
    assert theta.wedge(GOLDEN_DIR) == QuadNum(0)


def test_direction_rejects_excluded():
    with pytest.raises(ValueError):
        direction_from_sequence(2, period=(H, V_INV))


@pytest.mark.parametrize('lam1, theta1, lam2, theta2', [
    (2, (1, ROOT2 - 1), QuadNum('5/2'), ('4', '-5+sqrt(41)')),
    (QuadNum('5/2'), (4, parse_quad('-5+sqrt(41)')), QuadNum('10/3'),
     ('3', '-5+sqrt(34)')),
], ids=['gz', 'tripod'])
def test_matched_direction_gives_the_readme_second_directions(
        lam1, theta1, lam2, theta2):
    # the README's hand-typed second directions, up to a positive scale
    data = shrinking_sequence(lam1, theta1)
    got = matched_direction(data, lam2)
    want = QVec2(*map(parse_quad, theta2))
    scale = got.x / want.x
    assert scale > 0 and got == scale * want
    # and the direction it derives renormalizes by the same letters there
    again = shrinking_sequence(lam2, got, len(data))
    assert again.status is TailStatus.PERIODIC
    assert again.increments == data.increments


def test_matched_direction_outside_one_field_is_refused():
    # chi = (2, 1) on the Heisenberg skew graph has lambda sqrt(70)/2: the
    # period matrix's eigenvalue lands in sqrt(1505), its entries in
    # sqrt(70), so the eigendirection mixes the two
    data = shrinking_sequence(4, (parse_quad('-1/2+1/4*sqrt(5)'),
                                  QuadNum('1/4')))
    assert data.status is TailStatus.PERIODIC
    with pytest.raises(ValueError, match='no one quadratic field'):
        matched_direction(data, parse_quad('1/2*sqrt(70)'))


def test_direction_cone_nesting():
    prefix = (H_INV, V_INV, H_INV, V_INV, H_INV, V_INV)
    widths = []
    for n in range(1, len(prefix) + 1):
        cone = direction_from_sequence(2, prefix=prefix[:n])
        assert cone.contains(GOLDEN_DIR)
        assert cone.contains(-1 * GOLDEN_DIR)
        widths.append(cone.width())
    assert widths == sorted(widths, reverse=True)
    assert not direction_from_sequence(2, prefix=(V,)).contains(GOLDEN_DIR)


def test_shrink_cone_matches_membership():
    for lam in (2, Fraction(5, 2), 3):
        for letter in LETTERS:
            lo, hi = shrink_cone(lam, letter)
            mid = QVec2(lo.x + hi.x, lo.y + hi.y)
            assert shrink_membership(lam, letter, mid)
            assert not shrink_membership(lam, letter, lo)
            assert not shrink_membership(lam, letter, hi)


def test_omega_accepts_quadratic():
    res = omega_test(2, QuadNum(0, Fraction(1, 2), 2), 32)
    assert res.kind is OmegaKind.IN_OMEGA
    assert res.data.increments[:2] == (V_INV, H_INV)


def test_omega_rejects_rational():
    res = omega_test(2, Fraction(1, 3))
    assert res.kind is OmegaKind.NOT_IN_OMEGA
    assert res.reason == 'alpha is rational'
    # the direction itself dead-ends, independently of the rational rule
    data = shrinking_sequence(2, QVec2(-1, 3), 8)
    assert data.increments == (V,)
    assert data.status is TailStatus.NO_STRICT_SHRINKER


def test_omega_rejects_interval_endpoint():
    alpha = QuadNum(Fraction(5, 6), Fraction(1, 6), 5)
    res = omega_test(3, alpha, 32)
    assert res.kind is OmegaKind.NOT_IN_OMEGA
    assert res.data.excluded_id == 'h^-1 v'
    # alpha is read mod 1, so the run is that of the unreduced alpha
    # without its first letter h^-1
    assert res.data.increments[:2] == (V, H_INV)
    # the tested direction is parallel to (-7 + 3 sqrt(5), 3 - sqrt(5))
    assert res.data.theta.wedge(
        QVec2(QuadNum(-7, 3, 5), QuadNum(3, -1, 5))) == QuadNum(0)


@pytest.mark.parametrize('k', [-3, 0, 2, 60, 200, 10 ** 6])
def test_omega_reads_alpha_mod_one(k):
    # h^1 at lambda = n is alpha -> alpha + 1; the unreduced alpha ran a
    # run of h^-1 letters as long as k and exhausted the budget from k = 60
    res = omega_test(2, QuadNum(Fraction(1, 3) + k, 1, 2))
    assert res.kind is OmegaKind.IN_OMEGA
    assert res.data.period == (0, 38)


def test_omega_undetermined_on_tiny_budget():
    res = omega_test(2, QuadNum(0, Fraction(1, 2), 2), 1)
    assert res.kind is OmegaKind.UNDETERMINED


@given(st.sampled_from([2, 3]), st.integers(-40, 40), st.integers(1, 40))
def test_greedy_invariants(lam, x, y):
    data = shrinking_sequence(lam, QVec2(x, y), 24)
    norms = [v.norm_sq() for v in data.vectors]
    for a, b in zip(norms, norms[1:]):
        assert (b - a).sign() < 0
    if data.increments and all(s is not None for s in data.signs):
        critical_times(data)  # dual-route agreement is checked inside


def test_quadratic_invariants_along_golden_ray():
    data = shrinking_sequence(2, GOLDEN_DIR, 16)
    norms = [v.norm_sq() for v in data.vectors]
    for a, b in zip(norms, norms[1:]):
        assert (b - a).sign() < 0


def _off_axis_prefix(data):
    """The longest prefix of data whose vectors all stay off the axes."""
    k = next((n for n, s in enumerate(data.signs) if s is None),
             len(data.signs)) - 1
    return replace(data, increments=data.increments[:max(k, 0)],
                   built=data.vectors[:k + 1], signs=data.signs[:k + 1])


def test_sign_tables_cover_every_transition():
    # the reconstruction tables are read off the quadrant transport; every
    # (quadrant, letter) pair they allow must occur on some direction and
    # rebuild the directly evaluated signs
    rng = random.Random(404)
    seen = set()
    for i in range(200):
        lam = (QuadNum(2), QuadNum('5/2'), QuadNum(3))[i % 3]
        p = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        data = _off_axis_prefix(
            shrinking_sequence(lam, QVec2(QuadNum(p, q, 2), 1), 12))
        if not data.increments:
            continue
        signs = sign_sequence(data)  # cross-checked inside
        critical_times(data)
        seen.update(zip(signs, data.increments))
    assert len(seen) == 8


# --- the matrix route, kept here as the reference for the factored norm
# change that shrink_membership and shrinking_sequence read ---

def _matrix_shrinks(lam, letter, theta):
    """Whether rho(letter) strictly shrinks theta: one shear matrix
    applied, two squared norms compared."""
    if not isinstance(theta, QVec2):
        theta = QVec2(*theta)
    image = rho_letter(lam, letter).apply(theta)
    return (image.norm_sq() - theta.norm_sq()).sign() < 0


def _matrix_sequence(lam, theta, max_steps):
    """shrinking_sequence with every letter tested, and the chosen one
    applied, through its shear matrix."""
    lam = QuadNum(lam)
    if lam < 2:
        raise ValueError('lambda must be at least 2, got %s' % lam)
    theta = QVec2(*theta)
    if not (theta.x or theta.y):
        raise ValueError('zero vector has no direction')
    increments, vectors, signs = [], [theta], [theta.quadrant()]
    seen = {renorm._canonical_projective(theta): 0}
    status, period, excluded_id = TailStatus.CONTINUES, None, None
    current = theta
    for n in range(max_steps):
        shrinkers = [l for l in LETTERS if _matrix_shrinks(lam, l, current)]
        if not shrinkers:
            status = TailStatus.NO_STRICT_SHRINKER
            break
        if len(shrinkers) > 1:
            raise ArithmeticError(
                'two generators shrink %s at once' % current)
        current = rho_letter(lam, shrinkers[0]).apply(current)
        increments.append(shrinkers[0])
        vectors.append(current)
        signs.append(current.quadrant())
        if period is None:
            key = renorm._canonical_projective(current)
            if key in seen:
                start = seen[key]
                period = (start, n + 1 - start)
                excluded_id = renorm._cyclic_excluded_id(increments[start:])
            else:
                seen[key] = n + 1
    if status is TailStatus.CONTINUES and period is not None:
        status = (TailStatus.EXCLUDED_TAIL if excluded_id
                  else TailStatus.PERIODIC)
    return ShrinkData(lam=lam, theta=theta, increments=tuple(increments),
                      built=tuple(vectors), signs=tuple(signs),
                      status=status, period=period, excluded_id=excluded_id)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


ROOT5 = QuadNum(0, 1, 5)
GRID_LAMS = (QuadNum(2), QuadNum('5/2'), QuadNum(3), QuadNum('10/3'),
             QuadNum(7), ROOT5, QuadNum(0, Fraction(3, 2), 2))
# rationals, Q(sqrt 2), Q(sqrt 5) and Q(sqrt 3) entries: every pair of
# them, axes included, so that directions mix fields with each other and
# with lambda
GRID_ENTRIES = (QuadNum(0), QuadNum(1), QuadNum(-2), QuadNum('1/3'),
                QuadNum('-7/5'), ROOT2 - 1, 1 - ROOT2, ROOT2, (ROOT5 + 1) / 2,
                QuadNum(-2, 1, 3))
GRID_DIRS = [(x, y) for x in GRID_ENTRIES for y in GRID_ENTRIES
             if x or y]


@pytest.mark.parametrize('lam', GRID_LAMS, ids=str)
def test_shrinking_sequence_matches_the_matrix_route(lam):
    for theta in GRID_DIRS:
        for steps in (1, 8, 64):
            assert _outcome(shrinking_sequence, lam, theta, steps) == \
                _outcome(_matrix_sequence, lam, theta, steps), (theta, steps)


def test_shrinking_sequence_errors_match_the_matrix_route():
    for lam, theta in ((QuadNum('3/2'), (1, ROOT2)), (2, (0, 0)),
                       (ROOT5, (ROOT2, 1)), (ROOT5, (1, ROOT2)),
                       (ROOT5, (ROOT2, 0)), (2, (ROOT2, QuadNum(0, 1, 3)))):
        got = _outcome(shrinking_sequence, lam, theta, 8)
        assert isinstance(got, tuple)
        assert got == _outcome(_matrix_sequence, lam, theta, 8)


MEMBERSHIP_LETTERS = LETTERS + (Letter('h', 3), Letter('v', -2))
MEMBERSHIP_LAMS = (QuadNum(2), QuadNum('5/2'), QuadNum(-3), -ROOT5,
                   QuadNum('-1/2'), QuadNum(0, Fraction(3, 2), 2))


@pytest.mark.parametrize('letter', MEMBERSHIP_LETTERS, ids=str)
def test_membership_matches_the_matrix_route(letter):
    for lam in MEMBERSHIP_LAMS:
        for theta in GRID_DIRS:
            assert _outcome(shrink_membership, lam, letter, theta) == \
                _outcome(_matrix_shrinks, lam, letter, theta), (lam, theta)


def test_membership_routes_agree():
    # every sign of lam, a zero shear and exponents beyond +-1, on the
    # grid and on small integer directions; cases that mix two fields
    # are skipped, as the routes multiply different entries
    dirs = dict.fromkeys(GRID_DIRS + [
        (QuadNum(x), QuadNum(y)) for x in range(-4, 5) for y in range(-4, 5)
        if x or y])
    for lam in MEMBERSHIP_LAMS + (QuadNum(0), 1 + ROOT2):
        for theta in dirs:
            if len({v.field_disc for v in (lam, *theta)} - {0}) > 1:
                continue
            for letter in MEMBERSHIP_LETTERS:
                assert shrink_membership(lam, letter, theta) == \
                    shrink_membership_slope(lam, letter, theta), \
                    (lam, letter, theta)


def test_membership_routes_agree_on_quadratics():
    for letter in LETTERS:
        for theta in (GOLDEN_DIR, QVec2(1, 1 - ROOT2), QVec2(ROOT2 - 1, 1)):
            assert shrink_membership(2, letter, theta) == \
                shrink_membership_slope(2, letter, theta)


@pytest.mark.parametrize('letter', [Letter('x', 1), Letter('x', -3),
                                    Letter('H', 1)])
def test_membership_routes_refuse_a_bad_letter(letter):
    # the norm route read every generator but 'h' as 'v', and at a zero
    # shear both routes answered False
    for route in (shrink_membership, shrink_membership_slope):
        for lam in (2, 0):
            with pytest.raises(ValueError, match='bad letter'):
                route(lam, letter, (1, -2))


# the directions the tests above shrink, with their lam and step budget
GREEDY_FIXTURES = (
    (2, GOLDEN_DIR, 16), (2, QVec2(1, 1 - ROOT2), 8),
    (2, QVec2(1, Fraction(-3, 4)), 8), (2, QVec2(5, -11), 8),
    (3, QVec2(2, QuadNum(-3, 1, 5)), 10), (2, QVec2(-1, 3), 8),
    (3, QVec2(QuadNum(-7, 3, 5), QuadNum(3, -1, 5)), 32),
    (2, QVec2(ROOT2 - Fraction(7, 6), Fraction(1, 2)), 64),
)


@pytest.mark.parametrize('lam, theta, steps', GREEDY_FIXTURES)
def test_each_greedy_step_lies_in_its_letter_cone_alone(lam, theta, steps):
    data = shrinking_sequence(lam, theta, steps)
    assert data.increments
    for letter, v in zip(data.increments, data.vectors):
        inside = [l for l in LETTERS
                  if DirectionCone(*shrink_cone(lam, l)).contains(v)]
        assert inside == [letter], v


def test_greedy_shrink_builds_no_matrix_and_no_norm(monkeypatch):
    def forbidden(*args):
        raise AssertionError('matrix route used')

    want = shrinking_sequence(2, GOLDEN_DIR, 64)
    monkeypatch.setattr(QMat2, 'apply', forbidden)
    monkeypatch.setattr(QVec2, 'norm_sq', forbidden)
    got = shrinking_sequence(2, GOLDEN_DIR, 64)
    assert got == want and len(got) == 64
    assert omega_test(2, QuadNum(0, Fraction(1, 2), 2)).kind is \
        OmegaKind.IN_OMEGA
    assert omega_test(3, QuadNum('5/6+1/6*sqrt(5)')).kind is \
        OmegaKind.NOT_IN_OMEGA


# --- the greedy route, deciding every letter up to max_steps, kept here
# as the oracle for the period replay in shrinking_sequence ---

def _greedy_sequence(lam, theta, max_steps):
    """shrinking_sequence with every letter decided by the greedy step,
    also after the period has closed."""
    lam = QuadNum(lam)
    if lam < 2:
        raise ValueError('lambda must be at least 2, got %s' % lam)
    theta = renorm._direction(theta)
    increments, vectors, signs = [], [theta], [theta.quadrant()]
    seen = {renorm._canonical_projective(theta): 0}
    status, period, excluded_id = TailStatus.CONTINUES, None, None
    x, y = theta.x, theta.y
    for n in range(max_steps):
        shrinkers, lx, ly = renorm._shrinkers(lam, x, y)
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
        if period is None:
            key = renorm._canonical_projective(current)
            if key in seen:
                start = seen[key]
                period = (start, n + 1 - start)
                excluded_id = renorm._cyclic_excluded_id(increments[start:])
            else:
                seen[key] = n + 1
    if status is TailStatus.CONTINUES and period is not None:
        status = (TailStatus.EXCLUDED_TAIL if excluded_id
                  else TailStatus.PERIODIC)
    return ShrinkData(lam=lam, theta=theta, increments=tuple(increments),
                      built=tuple(vectors), signs=tuple(signs),
                      status=status, period=period, excluded_id=excluded_id)


def _assert_replay_matches_greedy(lam, theta, steps):
    got = _outcome(shrinking_sequence, lam, theta, steps)
    assert got == _outcome(_greedy_sequence, lam, theta, steps), \
        (lam, theta, steps)
    return got


# the fixed directions of this file, with an excluded tail, a dead end
# and a rational direction among them
REPLAY_FIXTURES = GREEDY_FIXTURES + (
    (2, QVec2(1, 1), 8), (2, QVec2(1, 0), 8), (2, QVec2(5, -11), 3),
    (3, QVec2(2, QuadNum(-3, 1, 5)), 10), (2, QVec2(1, Fraction(1, 3)), 64),
)


@pytest.mark.parametrize('lam, theta, steps', REPLAY_FIXTURES)
def test_period_replay_matches_the_greedy_route(lam, theta, steps):
    for budget in (steps, 2 * steps + 1):
        _assert_replay_matches_greedy(lam, theta, budget)


def _period_words(length):
    """Every reduced word of the given length whose square is reduced."""
    words = [()]
    for _ in range(length):
        words = [w + (l,) for w in words for l in LETTERS
                 if not w or l != w[-1].inverse()]
    return [w for w in words if w[0] != w[-1].inverse()]


def test_period_replay_matches_the_greedy_route_on_period_directions():
    # the direction of every renormalizing period word of length <= 4,
    # in both orientations: the scale c of the revisit is negative for
    # half of them
    count = negative = 0
    for lam in (QuadNum(2), QuadNum(3), QuadNum('5/2')):
        for length in range(1, 5):
            for word in _period_words(length):
                if is_renormalizing((), word).verdict is not Verdict.YES:
                    continue
                theta = direction_from_sequence(lam, (), word)
                for direction in (theta, -theta):
                    data = _assert_replay_matches_greedy(lam, direction, 40)
                    assert data.status is TailStatus.PERIODIC
                    assert len(data) == 40
                    start, p = data.period
                    ratio = data.vectors[start + p].x / data.vectors[start].x
                    negative += ratio.sign() < 0
                    count += 1
    assert (count, negative) == (624, 312)


@pytest.mark.parametrize('steps', [6, 37, 38, 64, 200])
def test_period_replay_of_a_long_period(steps):
    data = _assert_replay_matches_greedy(
        2, QVec2(Fraction(1, 3) + ROOT2, Fraction(1, 2)), steps)
    assert len(data) == steps
    assert data.period == (None if steps < 37 else (0, 37))


# omega --n 2 --alpha '-3/2+1/2*sqrt(2)' shrinks this direction: its
# period 0+3 closes on c * theta with c = -3+2*sqrt(2) < 0, so each period
# of the replay turns every quadrant half way round
NEGATIVE_SCALE_DIR = QVec2(ROOT2 / 2 - 1, Fraction(1, 2))


@pytest.mark.parametrize('sx, sy', [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_period_replay_of_a_negative_scale(sx, sy):
    theta = QVec2(sx * NEGATIVE_SCALE_DIR.x, sy * NEGATIVE_SCALE_DIR.y)
    data = _assert_replay_matches_greedy(2, theta, 200)
    assert data.period == (0, 3) and len(data) == 200
    assert data.vectors[3].x / data.vectors[0].x == QuadNum(-3, 2, 2)
    for k in range(4, 201):
        assert data.signs[k] is not None
        assert data.signs[k] == data.signs[k - 3].rotate().rotate()
        assert data.signs[k] == data.vectors[k].quadrant()


def test_prefix_equality_reads_every_vector():
    # the greedy route builds all 65 vectors, the replay 3 and scales the
    # rest when they are read; equality compares them all
    got = shrinking_sequence(2, GOLDEN_DIR, 64)
    want = _greedy_sequence(2, GOLDEN_DIR, 64)
    assert (len(got.built), len(want.built)) == (3, 65)
    assert got == want and got.vectors == want.built
    assert hash(got) == hash(want)
    res = omega_test(2, QuadNum(0, Fraction(1, 2), 2))
    assert hash(res) == hash(replace(res, data=replace(res.data)))
    last = want.built[-1]
    bad = replace(want, built=want.built[:-1] + (QVec2(last.x, -last.y),))
    assert bad != got and got != bad
