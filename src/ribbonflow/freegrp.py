"""Reduced words in a rank-2 free group and their standard actions.

Words are spelled left to right, so a word acts on column vectors with its
rightmost letter applied first.  Geodesics in the group appear throughout the
renormalization code as sequences of one-letter increments multiplied on the
left: the n-th group element has word form (w_n, ..., w_2, w_1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .exact import QMat2, QuadNum, SignPair, as_quad


class Letter(NamedTuple):
    gen: str
    exp: int

    def inverse(self) -> 'Letter':
        return Letter(self.gen, -self.exp)

    def __str__(self) -> str:
        return self.gen if self.exp == 1 else '%s^%d' % (self.gen, self.exp)


H = Letter('h', 1)
H_INV = Letter('h', -1)
V = Letter('v', 1)
V_INV = Letter('v', -1)
LETTERS = (H, H_INV, V, V_INV)
_UNITS = {l: (l,) for l in LETTERS}
_INVERSE = {H: H_INV, H_INV: H, V: V_INV, V_INV: V}


def _units(item) -> tuple:
    """The unit letters that spell item, a Letter or a (gen, exp) pair:
    exponent k stands for |k| letters of exponent +-1, as in from_str."""
    units = _UNITS.get(item)
    if units is not None:
        return units
    gen, exp = item
    if gen not in ('h', 'v') or not isinstance(exp, int):
        raise ValueError('bad letter %r' % (item,))
    return (Letter(gen, 1 if exp > 0 else -1),) * abs(exp)


class Word:
    """An immutable, always-reduced word in the free group on h and v.

    Its letters have exponent +-1: a letter of exponent k is spelled as
    |k| of them.
    """

    __slots__ = ('_letters',)

    def __init__(self, letters: Iterable[Letter] = ()):
        stack: list[Letter] = []
        for item in letters:
            for letter in _units(item):
                if stack and stack[-1] == _INVERSE[letter]:
                    stack.pop()
                else:
                    stack.append(letter)
        self._letters = tuple(stack)

    @classmethod
    def from_str(cls, text: str) -> 'Word':
        """Parse words like ``"h v^-1 h"``; ``"e"`` is the identity.

        Exponents other than +-1 are allowed and expanded, e.g. ``"h^3"``.
        """
        text = text.strip()
        if text in ('', 'e'):
            return cls()
        letters: list[Letter] = []
        for chunk in text.split():
            gen, _, exp_s = chunk.partition('^')
            if gen not in ('h', 'v'):
                raise ValueError('bad generator in %r' % chunk)
            letters.append(Letter(gen, int(exp_s) if exp_s else 1))
        return cls(letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._letters)

    def __getitem__(self, index):
        picked = self._letters[index]
        return Word(picked) if isinstance(index, slice) else picked

    def __mul__(self, other: 'Word') -> 'Word':
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._letters + other._letters)

    def inverse(self) -> 'Word':
        return Word(l.inverse() for l in reversed(self._letters))

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self):
        return hash(self._letters)

    def __str__(self) -> str:
        if not self._letters:
            return 'e'
        return ' '.join(str(l) for l in self._letters)

    def __repr__(self) -> str:
        return "Word.from_str('%s')" % self


IDENTITY = Word()


def rho_letter(lam, letter: Letter) -> QMat2:
    """The elementary shear representing one letter at parameter lam."""
    lam = as_quad(lam)
    k = letter.exp
    off = lam if k == 1 else -lam if k == -1 else k * lam
    if letter.gen == 'h':
        return QMat2(1, off, 0, 1)
    return QMat2(1, 0, off, 1)


def rho(lam, word: Word) -> QMat2:
    """The representation sending h, v to the upper and lower shears by lam.

    Each letter multiplies the product so far on the right, which is one
    column operation: h adds +-lam times the first column to the second,
    and v the second to the first.
    """
    lam = as_quad(lam)
    neg = -lam
    a, d = QuadNum(1), QuadNum(1)
    b, c = QuadNum(0), QuadNum(0)
    for letter in word:
        off = lam if letter.exp == 1 else neg
        if letter.gen == 'h':
            b, d = b + off * a, d + off * c
        else:
            a, c = a + off * b, c + off * d
    return QMat2(a, b, c, d)


_GAMMA = {H: V_INV, H_INV: V, V: H_INV, V_INV: H}
_BAR = {H: V, V: H, H_INV: V_INV, V_INV: H_INV}


def gamma(word: Word) -> Word:
    """The involution h <-> v^-1, v <-> h^-1 (letterwise).

    Under the shear representation this is the inverse transpose.
    """
    return Word(_GAMMA[l] for l in word)


def bar(word: Word) -> Word:
    """The involution swapping h and v."""
    return Word(_BAR[l] for l in word)


def delta(word: Word) -> Word:
    """The involution inverting both generators."""
    return Word(l.inverse() for l in word)


# per-letter transport of quadrants along expanding directions: the table for
# a letter is only valid on directions the letter expands, so composing it
# along a word requires the word to act without cancellation
_SIGMA = {
    H: {SignPair.PP: SignPair.PP, SignPair.MP: SignPair.PP,
        SignPair.MM: SignPair.MM, SignPair.PM: SignPair.MM},
    H_INV: {SignPair.PP: SignPair.MP, SignPair.MP: SignPair.MP,
            SignPair.MM: SignPair.PM, SignPair.PM: SignPair.PM},
    V: {SignPair.PP: SignPair.PP, SignPair.PM: SignPair.PP,
        SignPair.MM: SignPair.MM, SignPair.MP: SignPair.MM},
    V_INV: {SignPair.PP: SignPair.PM, SignPair.PM: SignPair.PM,
            SignPair.MM: SignPair.MP, SignPair.MP: SignPair.MP},
}


def sign_act_letter(letter: Letter, s: SignPair) -> SignPair:
    """s transported along letter.  Each _SIGMA table is idempotent, so a
    letter of exponent k acts as the unit letter of sign(k) once."""
    gen, exp = letter
    if isinstance(exp, int) and exp:
        exp = 1 if exp > 0 else -1
    for unit in _units((gen, exp)):
        s = _SIGMA[unit][s]
    return s
