"""Projection of the free *-algebra onto its holomorphic subalgebra.

``project_word`` uses the closed form: a word pairs nonzero with at most
one holomorphic word, its ``partner``, so the expansion over the
orthonormal basis has at most one surviving candidate.  For a
theta-initial word whose first block is (k, r) that is the prefix i of k
left over after r is peeled off its end; the kernel's first glue step
exhausts it, so the value is w(k) <rest, 1> / w(i) from one split.
``project(ws, a, b)`` sums the images of the pairs of terms of a and b
and never builds the product a * b.  It splits each term of b once, as a
``PreparedSymbol``: for a nonempty holomorphic word wa the first block
of wa + wb is (wa + t, r), with t, r and the rest fixed by wb alone, so
each pair costs the partner test and, on a hit, one ``Scalar`` product:
under product weights w(wa + t) / w(i) = w(r), so the term's coefficient
cb w(r) <rest, 1> is one constant, computed at its first hit and kept.
A custom table takes its two weights on each hit.  A
``ToeplitzOperator`` prepares its symbol once for all its applications.
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


def _cut(k, r):
    """The prefix of k left when r is cut off its end; None unless k ends with r."""
    i = len(k) - len(r)
    return k[:i] if i >= 0 and k[i:] == r else None


def _first_block(h):
    """partner(h), plus k and rest of h's first block (k is None unless theta-initial)."""
    if not h or h[0] < 0:
        return (), None, h
    k, r, rest = split_block(h)
    return _cut(k, r), k, rest


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


def partner_families(x):
    """Every pair (partner(f + x), f) with f a holomorphic word.

    Inverts ``partner``'s closed form.  Returns (pairs, families): the
    pairs listed, and for each (s1, s2) in families the pairs
    (u + s1, u + s2) for every holomorphic word u.  For x theta-initial
    with first block (k, r), f merges into k, so only f's last
    len(r) - len(k) letters are constrained.
    """
    if not x:
        return [], [((), ())]
    k, r, _ = split_block(x)
    if x[0] < 0:
        return [((), ())], [((), word_star(k))]
    d = len(k) - len(r)
    if d >= 0:
        return [], [(k[:d], ())] if k[d:] == r else []
    return [], [((), r[:-d])] if r[-d:] == k else []


def project_word(ws, g):
    """Projection of a single word, as a canonical element."""
    i, k, rest = _first_block(tuple(g))
    c = ws.form_words(rest, ()) if i is not None else 0
    if not c:
        return AlgebraElement.zero()
    if k is not None:
        c = ws.weight(k) * c / ws.weight(i)
    return AlgebraElement.from_word(i, Scalar(c))


class PreparedSymbol:
    """A right factor b of P(a * b) for the weights ws, each term split once.

    A term wb is kept as (wb, cb, t, r, rest): t is wb's leading theta
    run (possibly empty), r ``word_star`` of the bar run after it, and
    rest what follows.  For a nonempty holomorphic word wa the first
    block of wa + wb is then (wa + t, r), followed by rest, so a partner
    hit i has the coefficient cb w(wa + t) <rest, 1> / w(i).  Under
    product weights that ratio is w(r), so the coefficient is one
    constant per term, computed at the term's first hit and kept; a
    custom table takes its two weights on each hit.
    """

    def __init__(self, ws, b):
        self.ws = ws
        self.terms = []
        for wb, cb in b.items():
            if wb and wb[0] < 0:
                bars = split_block(wb)[0]
                self.terms.append((wb, cb, (), word_star(bars), wb[len(bars):]))
            else:
                self.terms.append((wb, cb) + split_block(wb))
        self._tails = {}
        self._coeffs = [None] * len(self.terms)

    def coefficient(self, j, k, i):
        """Term j's coefficient cb w(k) <rest, 1> / w(i) at a partner hit i of k = wa + t.

        Under product weights it is cb w(r) <rest, 1> at every hit, so it
        is kept from the first call on.
        """
        c = self._coeffs[j]
        if c is None:
            ws, tails = self.ws, self._tails
            _, cb, _, _, rest = self.terms[j]
            tail = tails.get(rest)
            if tail is None:
                tail = tails[rest] = ws.form_words(rest, ())
            c = cb * Scalar(ws.weight(k) * tail / ws.weight(i)) if tail else 0
            if ws.mu is not None:
                self._coeffs[j] = c
        return c

    def images(self, wa):
        """(i, c) for each term cb * wb with P(wa + wb) = c theta_i nonzero."""
        ws = self.ws
        if not wa or not is_holomorphic_word(wa):
            for wb, cb, _, _, _ in self.terms:
                for i, v in project_word(ws, wa + wb).items():
                    yield i, cb * v
            return
        coeffs = self._coeffs
        for j, (_, _, t, r, _) in enumerate(self.terms):
            k = wa + t
            i = _cut(k, r)
            if i is None:
                continue
            c = coeffs[j]
            if c is None:
                c = self.coefficient(j, k, i)
            elif c and i and max(i) > ws.n:
                # the first hit checked t and r, so a bad entry of k is in i
                ws.weight(i)
            if c:
                yield i, c


def project(ws, a, b=AlgebraElement.one()):
    """P(a * b), b = 1 by default, summed pair by pair; a * b is never built.

    b is an element or a ``PreparedSymbol`` of ws.  Linear extension of
    project_word; idempotent with holomorphic range.
    """
    if type(b) is not PreparedSymbol:
        b = PreparedSymbol(ws, b)
    elif b.ws is not ws:
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
