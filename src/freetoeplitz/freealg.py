"""Words, exact scalars and elements of the free *-algebra on 2n generators.

A word is a tuple of nonzero integers: ``+j`` encodes the generator
``t_j`` (theta_j) and ``-j`` its conjugate ``b_j`` (theta-bar_j).  The
empty tuple is the identity word.  A multi-index is a tuple of positive
generator indices; ``theta_word(i)`` is the holomorphic word it labels.

All values here are immutable and all operations are pure functions, so
everything is safe to share between threads.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def swap_alphabet(word):
    """Letter-kind involution: t_j <-> b_j, index and order preserved."""
    return tuple(map(operator.neg, word))


def word_star(word):
    """Reverse the word and flip every letter's kind."""
    return tuple(map(operator.neg, reversed(word)))


def theta_word(indices):
    """Holomorphic word t_{i1}...t_{ir} for a multi-index."""
    return tuple(int(j) for j in indices)


def is_holomorphic_word(word):
    return all(c > 0 for c in word)


def split_block(word):
    """A word's first block, as (k, r, rest).

    k is the leading run (the letters of the first letter's kind), r is
    ``word_star`` of the opposite run after it, and rest is what follows,
    so k + word_star(r) + rest == word; k and r have the same kind.  All
    three are empty for the empty word.
    """
    s = 1 if word and word[0] > 0 else -1
    m = len(word)
    p = 0
    while p < m and word[p] * s > 0:
        p += 1
    q = p
    while q < m and word[q] * s < 0:
        q += 1
    return word[:p], word_star(word[p:q]), word[q:]


def balance(word):
    """Theta-balance: t letters minus b letters; pairings preserve it."""
    return sum(1 if c > 0 else -1 for c in word)


# the imaginary part of every real Scalar, so that a real value is
# recognised by identity
_ZERO_IM = Fraction(0)


class Scalar:
    """Exact Gaussian-rational number re + im*i.

    Both components are always ``Fraction``; a zero imaginary part is
    always the shared ``_ZERO_IM``.  Arithmetic on two real values takes
    a single ``Fraction`` operation, and a product with one real operand
    takes two.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=_ZERO_IM):
        if type(re) is not Fraction:
            re = Fraction(re)
        if im is not _ZERO_IM:
            if type(im) is not Fraction:
                im = Fraction(im)
            if not im:
                im = _ZERO_IM
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def conjugate(self):
        return Scalar(self.re, -self.im)

    def is_zero(self):
        return not (self.re or self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.im is _ZERO_IM and other.im is _ZERO_IM:
            return Scalar(self.re + other.re, _ZERO_IM)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.im is _ZERO_IM and other.im is _ZERO_IM:
            return Scalar(self.re - other.re, _ZERO_IM)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.im is _ZERO_IM:
            return Scalar(self.re * other.re, other.im and self.re * other.im)
        if other.im is _ZERO_IM:
            return Scalar(self.re * other.re, self.im * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "Scalar(%s, %s)" % (self.re, self.im)


ONE = Scalar(1)


class AlgebraElement:
    """Finite linear combination of words with Gaussian-rational scalars.

    Stored zero-free, so equality of elements is equality of the
    underlying term dictionaries.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if type(c) is not Scalar:
                    c = Scalar(c)
                if c.re or c.im:
                    clean[w] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def from_word(cls, word, coeff=ONE):
        return cls({tuple(word): coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): ONE})

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_holomorphic(self):
        return all(is_holomorphic_word(w) for w in self.terms)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w)
            out[w] = c if v is None else v + c
        return AlgebraElement(out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w)
            out[w] = -c if v is None else v - c
        return AlgebraElement(out)

    def __neg__(self):
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    w = wa + wb
                    c = ca * cb
                    v = out.get(w)
                    out[w] = c if v is None else v + c
            return AlgebraElement(out)
        c = Scalar._coerce(other)
        if c is None:
            return NotImplemented
        return AlgebraElement({w: t * c for w, t in self.terms.items()})

    # exact scalar products commute
    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power must be a nonnegative integer")
        out = AlgebraElement.one()
        for _ in range(k):
            out = out * self
        return out

    def star(self):
        """Anti-linear, anti-multiplicative conjugation."""
        return AlgebraElement(
            {word_star(w): c.conjugate() for w, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            bits.append("%r: %r" % (w, self.terms[w]))
        return "AlgebraElement({%s})" % ", ".join(bits)

