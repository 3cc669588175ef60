from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonflow.exact import QMat2, QuadNum, QVec2, SignPair
from ribbonflow.freegrp import (
    H,
    H_INV,
    IDENTITY,
    LETTERS,
    Letter,
    V,
    V_INV,
    Word,
    bar,
    delta,
    gamma,
    rho,
    rho_letter,
    sign_act_letter,
)

words = st.builds(Word, st.lists(st.sampled_from(LETTERS), max_size=10))
lams = st.sampled_from([QuadNum(2), QuadNum(Fraction(5, 2)), QuadNum(3)])

J = QMat2(0, 1, 1, 0)
FLIP_X = QMat2(-1, 0, 0, 1)
QUARTER = QMat2(0, -1, 1, 0)


def test_reduction():
    assert Word([H, H_INV]) == IDENTITY
    assert Word([H, V, V_INV, H_INV]) == IDENTITY
    assert len(Word([H, V, V_INV, V])) == 2


def test_str_round_trip():
    w = Word([H, V_INV, H])
    assert str(w) == 'h v^-1 h'
    assert Word.from_str(str(w)) == w
    assert str(IDENTITY) == 'e'
    assert Word.from_str('e') == IDENTITY
    assert Word.from_str('h^3 v^-2') == Word([H, H, H, V_INV, V_INV])


def test_letters_print_their_exponent():
    for text, letter in (('h', H), ('v^-1', V_INV), ('h^-1', H_INV),
                         ('h^-3', Letter('h', -3)), ('v^4', Letter('v', 4))):
        assert str(letter) == text
        assert Word([letter]) == Word.from_str(text)
    for letter in LETTERS:
        assert repr(Word([letter])) == "Word.from_str('%s')" % (letter,)


@pytest.mark.parametrize('gen,k', [('h', 3), ('h', -2), ('v', 4), ('v', -1),
                                   ('h', 0)])
def test_letter_exponents_spell_unit_letters(gen, k):
    # a Letter of exponent k is |k| unit letters, as from_str reads h^k
    unit = Letter(gen, 1 if k > 0 else -1)
    spelled = Word([unit] * abs(k))
    forms = (Word([Letter(gen, k)]), Word([(gen, k)]),
             Word.from_str('%s^%d' % (gen, k)))
    for word in forms:
        assert word == spelled
        assert all(l in LETTERS for l in word)
        for lam in (2, Fraction(5, 2)):
            assert rho(lam, word) == rho(lam, spelled)
        assert gamma(word) == gamma(spelled)
        assert bar(word) == bar(spelled)
    assert rho_letter(2, Letter(gen, k)) == rho(2, spelled)
    for s in SignPair:
        expected = s
        for l in spelled:
            expected = sign_act_letter(l, expected)
        assert sign_act_letter(Letter(gen, k), s) is expected


@pytest.mark.parametrize('k', [1, -1, 3, -3, 10 ** 12, -10 ** 12])
@pytest.mark.parametrize('gen', ['h', 'v'])
def test_sign_act_letter_reads_the_sign_of_the_exponent(gen, k):
    # each quadrant table is idempotent, so h^k acts as h^sign(k) once;
    # spelling 10^12 unit letters would not finish
    unit = Letter(gen, 1 if k > 0 else -1)
    for s in SignPair:
        once = sign_act_letter(unit, s)
        assert sign_act_letter(unit, once) is once
        assert sign_act_letter(Letter(gen, k), s) is once
        assert sign_act_letter(Letter(gen, 0), s) is s


def test_letter_exponents_reduce_against_neighbours():
    assert Word([H, Letter('h', -3), V]) == Word([H_INV, H_INV, V])
    assert Word([Letter('v', 2), Letter('v', -2)]) == IDENTITY
    assert rho(2, Word([Letter('h', 3)])) == QMat2(1, 6, 0, 1)
    with pytest.raises(ValueError):
        Word([Letter('x', 2)])
    with pytest.raises(ValueError):
        Word([('h', Fraction(1, 2))])


def test_from_str_rejects_garbage():
    with pytest.raises(ValueError):
        Word.from_str('x')


def test_rho_frozen_value():
    # rho at lam=2 of h v^-1
    m = rho(2, Word([H, V_INV]))
    assert m == QMat2(-3, 2, -2, 1)


def test_rho_determinant_one():
    w = Word.from_str('h v^-1 h h v^-1')
    assert rho(Fraction(5, 2), w).det() == QuadNum(1)


@given(words, words, lams)
def test_rho_homomorphism(w1, w2, lam):
    assert rho(lam, w1 * w2) == rho(lam, w1) * rho(lam, w2)


@given(words, lams)
def test_rho_inverse(w, lam):
    assert rho(lam, w.inverse()) == rho(lam, w).inverse()


@given(words)
def test_gamma_is_involution(w):
    assert gamma(gamma(w)) == w


def test_gamma_on_generators():
    assert gamma(Word([H])) == Word([V_INV])
    assert gamma(Word([V])) == Word([H_INV])
    assert gamma(Word([V_INV])) == Word([H])
    assert gamma(Word([H_INV])) == Word([V])


@given(words, lams)
def test_gamma_is_inverse_transpose(w, lam):
    assert rho(lam, gamma(w)) == rho(lam, w).inverse_transpose()


@given(words, lams)
def test_bar_conjugates_by_swap(w, lam):
    assert rho(lam, bar(w)) == J * rho(lam, w) * J


@given(words, lams)
def test_delta_conjugates_by_axis_flip(w, lam):
    assert FLIP_X * rho(lam, w) == rho(lam, delta(w)) * FLIP_X


@given(words, lams)
def test_quarter_turn_intertwines_gamma(w, lam):
    assert QUARTER * rho(lam, w) == rho(lam, gamma(w)) * QUARTER


@given(words, lams, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
def test_dual_pairing_invariance(w, lam, ux, uy, vx, vy):
    u = QVec2(ux, uy)
    v = QVec2(vx, vy)
    g_u = rho(lam, w).apply(u)
    gamma_v = rho(lam, gamma(w)).apply(v)
    assert u.dot(v) == g_u.dot(gamma_v)


@given(st.sampled_from(LETTERS), st.sampled_from(list(SignPair)))
def test_sign_action_intertwines_quarter_turn(letter, s):
    lhs = sign_act_letter(letter, s.rotate())
    rhs = sign_act_letter(gamma(Word([letter]))[0], s).rotate()
    assert lhs == rhs


def test_sign_tables_spot_checks():
    assert sign_act_letter(H, SignPair.MP) is SignPair.PP
    assert sign_act_letter(H_INV, SignPair.PP) is SignPair.MP
    assert sign_act_letter(V, SignPair.PM) is SignPair.PP
    assert sign_act_letter(V_INV, SignPair.MM) is SignPair.MP
