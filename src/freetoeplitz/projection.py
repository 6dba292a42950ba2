"""Projection of the free *-algebra onto its holomorphic subalgebra.

``project_word`` uses the closed form: a word pairs nonzero with at most
one holomorphic word, its ``partner``, so the expansion over the
orthonormal basis has at most one surviving candidate.  For a
theta-initial word whose first block is (k, r) that is the prefix i of k
left over after r is peeled off its end; the kernel's first glue step
exhausts it, so the value is w(k) <rest, 1> / w(i) from one split.
``project(ws, a, b)`` sums the images of the pairs of terms of a and b
and never builds the product a * b.  It takes b as a
``ToeplitzOperator``, which splits each term of its symbol once and
partitions the terms into shift families: a family (s1, s2) maps every
nonempty holomorphic word u + s2 to a multiple of u + s1
(``partner_families``).  Under product weights that multiple is one
exact constant per family, computed at its first use and kept; a custom
table takes its weights on each use.  An operator is built once for all
its applications.
``project_oracle`` evaluates the defining basis sum by brute force and
exists purely as an independent cross-check.  ``pairing_candidates``
lists the pairs of terms of two elements that can pair nonzero, by
partner or by theta-balance; ``WeightSystem.form`` sums over them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .freealg import (
    AlgebraElement,
    Scalar,
    balance,
    is_holomorphic_word,
    split_block,
    theta_word,
    word_star,
)


def _first_block(h):
    """partner(h), plus k and rest of h's first block (k is None unless theta-initial)."""
    if not h or h[0] < 0:
        return (), None, h
    k, r, rest = split_block(h)
    i = len(k) - len(r)
    return (k[:i] if i >= 0 and k[i:] == r else None), k, rest


def partner(h):
    """The only holomorphic word that can pair nonzero with the word h.

    The empty word when h is empty or bar-initial.  Otherwise, with h's
    first block split by ``split_block`` into the head run k and the
    starred mid run r, the prefix of k left when r is cut off its end,
    and None (no partner) when k does not end with r.
    """
    return _first_block(h)[0]


def pairing_candidates(a, b):
    """The pairs (wa, ca, wb, cb) of terms of a and b whose words can pair nonzero.

    When a side is holomorphic, a term of the other meets at most its
    ``partner``, looked up in that side's terms; otherwise a term meets
    the terms of its theta-balance, which pairings preserve.
    """
    if b.is_holomorphic():
        for wa, ca in a.items():
            p = partner(wa)
            if p in b.terms:
                yield wa, ca, p, b.terms[p]
    elif a.is_holomorphic():
        for wb, cb in b.items():
            p = partner(wb)
            if p in a.terms:
                yield p, a.terms[p], wb, cb
    else:
        by_balance = {}
        for wb, cb in b.items():
            by_balance.setdefault(balance(wb), []).append((wb, cb))
        for wa, ca in a.items():
            for wb, cb in by_balance.get(balance(wa), ()):
                yield wa, ca, wb, cb


def _head(w):
    """(t, r, rest): for every nonempty holomorphic u, u + w splits as (u + t, r, rest)."""
    k, r, rest = split_block(w)
    if w and w[0] < 0:
        return (), word_star(k), w[len(k):]
    return k, r, rest


def partner_families(t, r):
    """Every pair (partner(f + x), f) with f a holomorphic word, from x's head.

    (t, r) are the first two of ``_head(x)``.  Inverts ``partner``'s
    closed form.  Returns (pairs, families): the pairs listed, and for
    each (s1, s2) in families the pairs (u + s1, u + s2) for every
    holomorphic word u.  f + x splits as (f + t, r, ...), unless f is
    empty and x bar-initial (t empty, r not), when x pairs with 1 alone.
    """
    pairs = [((), ())] if r and not t else []
    d = len(t) - len(r)
    if d >= 0:
        return pairs, [(t[:d], ())] if t[d:] == r else []
    return pairs, [((), r[:-d])] if r[-d:] == t else []


def project_word(ws, g):
    """Projection of a single word, as a canonical element."""
    i, k, rest = _first_block(tuple(g))
    c = ws.form_words(rest, ()) if i is not None else 0
    if not c:
        return AlgebraElement.zero()
    if k is not None:
        c = ws.weight(k) * c / ws.weight(i)
    return AlgebraElement.from_word(i, Scalar(c))


class ToeplitzOperator:
    """Right-symbol Toeplitz operator phi -> P(phi * symbol) for the weights.

    Each term wb of the symbol is split once, by ``_head``, and kept as
    (wb, cb, t, r, rest).  ``families`` maps each shift family (s1, s2)
    of ``partner_families(t, r)`` to the indices of its terms, in term
    order: for every nonempty holomorphic word u + s2 the first block of
    u + s2 + wb is (u + s2 + t, r), with partner u + s1, followed by rest.
    """

    def __init__(self, symbol, weights):
        self.symbol = symbol
        self.weights = weights
        self.terms = [(wb, cb) + _head(wb) for wb, cb in symbol.items()]
        self.families = {}
        for j, (_, _, t, r, _) in enumerate(self.terms):
            for family in partner_families(t, r)[1]:
                self.families.setdefault(family, []).append(j)
        self._tails = {}
        self._coeffs = {}

    def coefficient(self, family, u):
        """The coefficient of u + s1 in the family (s1, s2)'s part of T_g(u + s2).

        The exact sum over the family's terms of
        cb w(u + s2 + t) <rest, 1> / w(u + s1).  Under product weights
        each ratio is w(r), so the sum is kept from the first call on; a
        u with an entry above n takes its weights again, so that it raises
        where a term's own projection does.  A custom table takes its
        weights on every call.
        """
        ws = self.weights
        c = self._coeffs.get(family)
        if c is None or u and max(u) > ws.n:
            s1, s2 = family
            c, tails = 0, self._tails
            for j in self.families[family]:
                _, cb, t, _, rest = self.terms[j]
                tail = tails.get(rest)
                if tail is None:
                    tail = tails[rest] = ws.form_words(rest, ())
                if tail:
                    c = c + cb * Scalar(ws.weight(u + s2 + t) * tail / ws.weight(u + s1))
            if ws.mu is not None:
                self._coeffs[family] = c
        return c

    def images(self, wa):
        """(i, c) for each nonzero c theta_i that wa goes to, by family or term.

        A nonempty holomorphic wa goes by the shift families, any other
        word term by term through ``project_word``.
        """
        ws = self.weights
        if not wa or not is_holomorphic_word(wa):
            for wb, cb, _, _, _ in self.terms:
                for i, v in project_word(ws, wa + wb).items():
                    yield i, cb * v
            return
        coeffs, bad = self._coeffs, max(wa) > ws.n
        for family in self.families:
            s1, s2 = family
            m = len(wa) - len(s2)
            if m < 0 or wa[m:] != s2:
                continue
            c = coeffs.get(family)
            if c is None or bad:  # a kept sum would skip the weights that raise
                c = self.coefficient(family, wa[:m])
            if c:
                yield wa[:m] + s1, c

    def apply(self, phi):
        if not phi.is_holomorphic():
            raise ValueError("argument must lie in the holomorphic subalgebra")
        return project(self.weights, phi, self)

    __call__ = apply


def project(ws, a, b=AlgebraElement.one()):
    """P(a * b), b = 1 by default, summed pair by pair; a * b is never built.

    b is an element or a ``ToeplitzOperator`` of ws.  Linear extension
    of project_word; idempotent with holomorphic range.
    """
    if type(b) is not ToeplitzOperator:
        b = ToeplitzOperator(b, ws)
    elif b.weights is not ws:
        raise ValueError("symbol prepared for another weight system")
    out = {}
    for wa, ca in a.items():
        for i, c in b.images(wa):
            v = ca * c
            prev = out.get(i)
            out[i] = v if prev is None else prev + v
    return AlgebraElement(out)


def project_oracle(ws, g, slack=None):
    """Brute-force sum of (<theta_i, g> / w(i)) * theta_i over multi-indices i.

    A pairing preserves theta-balance (t letters minus b letters), so by
    default only the i of length balance(g) are enumerated.  ``slack``
    sweeps every length up to len(g) + slack instead, checking that rule
    rather than leaning on it; slack=0 is already exhaustive, since the
    pairing consumes a letter of g per entry of i.  Exponential in len(g).
    """
    g = tuple(g)
    if slack is None:
        bal = balance(g)
        lengths = [bal] if bal >= 0 else []
    else:
        lengths = range(len(g) + slack + 1)
    out = AlgebraElement.zero()
    n = ws.n
    for r in lengths:
        for i in itertools.product(range(1, n + 1), repeat=r):
            v = ws.form_words(theta_word(i), g)
            if v:
                coeff = Scalar(Fraction(v) / ws.weight(i))
                out = out + AlgebraElement.from_word(theta_word(i), coeff)
    return out
