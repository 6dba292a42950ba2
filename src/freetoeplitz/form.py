"""Weight systems and the recursive sesquilinear form.

The pairing of two words is either zero or a product of weights of
multi-indices (see ``freetoeplitz.kernel``); a ``WeightSystem`` turns those
factor lists into exact positive rationals.  The sesquilinear extension
to general elements is anti-linear in the first slot and linear in the
second.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .freealg import Scalar
from .kernel import form_factors


class WeightSystem:
    """Positive rational weight function on multi-indices.

    Product mode multiplies per-generator parameters mu_j over the
    entries of the multi-index; custom mode looks the multi-index up in
    an explicit table (total on queried indices, no fallback).  The
    empty multi-index always has weight 1.
    """

    def __init__(self, n, mu=None, table=None):
        if (mu is None) == (table is None):
            raise ValueError("exactly one of mu/table must be given")
        self.n = int(n)
        if mu is not None:
            mu = tuple(Fraction(m) for m in mu)
            if len(mu) != self.n:
                raise ValueError("need %d weight parameters, got %d" % (self.n, len(mu)))
            if any(m <= 0 for m in mu):
                raise ValueError("weight parameters must be positive")
            self.mu = mu
            self.table = None
            self._memo = {}
        else:
            tbl = {}
            for idx, val in table.items():
                val = Fraction(val)
                if val <= 0:
                    raise ValueError("weights must be positive: w(%r) = %s" % (idx, val))
                tbl[tuple(idx)] = val
            tbl[()] = Fraction(1)
            self.mu = None
            self.table = tbl

    @classmethod
    def unit(cls, n):
        return cls(n, mu=(1,) * n)

    @classmethod
    def custom(cls, n, table):
        return cls(n, table=table)

    def weight(self, i):
        """w(i) for a multi-index i; product weights are memoised per index."""
        i = tuple(i)
        if self.mu is not None:
            out = self._memo.get(i)
            if out is None:
                out = Fraction(1)
                for j in i:
                    if not 1 <= j <= self.n:
                        raise ValueError("multi-index entry out of range: %d" % j)
                    out *= self.mu[j - 1]
                self._memo[i] = out
            return out
        try:
            return self.table[i]
        except KeyError:
            raise ValueError("weight undefined for multi-index %r" % (i,)) from None

    def form_words(self, f, g):
        """Pairing of two words; always a nonnegative rational."""
        factors = form_factors(tuple(f), tuple(g))
        if factors is None:
            return Fraction(0)
        out = Fraction(1)
        for i in factors:
            out *= self.weight(i)
        return out

    def form(self, a, b):
        """Sesquilinear extension: anti-linear in a, linear in b."""
        out = Scalar(0)
        for wa, ca in a.items():
            cac = ca.conjugate()
            for wb, cb in b.items():
                v = self.form_words(wa, wb)
                if v:
                    out = out + cac * cb * Scalar(v)
        return out


_RATIONAL_RE = _re.compile(r"^\s*([0-9]+)\s*(?:/\s*([0-9]+))?\s*$")


def parse_rational(text):
    """Positive rational from 'p' or 'p/q' text."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError("malformed rational: %r" % text)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError("zero denominator in %r" % text)
    val = Fraction(num, den)
    if val <= 0:
        raise ValueError("weight must be positive: %r" % text)
    return val


def parse_weight_config(text):
    """Parse the weight configuration format ``mu = r1, r2, ..., rn``.

    Blank lines and '#' comments are ignored; returns the list of mu
    parameters.
    """
    mu = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rhs = line.partition("=")
        if not sep or key.strip() != "mu":
            raise ValueError("line %d: expected 'mu = r1, r2, ...'" % lineno)
        if mu is not None:
            raise ValueError("line %d: duplicate mu assignment" % lineno)
        mu = [parse_rational(p) for p in rhs.split(",")]
    if mu is None:
        raise ValueError("no 'mu =' line in weight configuration")
    return mu
