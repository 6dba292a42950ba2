"""Projection of the free *-algebra onto its holomorphic subalgebra.

``project_word`` uses the closed form: a word pairs nonzero with at most
one holomorphic word, its ``partner``, so the expansion over the
orthonormal basis has at most one surviving candidate.  For a
theta-initial word whose first block is (k, r) that is the prefix i of k
left over after r is peeled off its end; the kernel's first glue step
exhausts it, so the value is w(k) <rest, 1> / w(i) from one split.
``project(ws, a, b)`` sums the images of the pairs of terms of a and b
and never builds the product a * b.  ``project_oracle`` evaluates the
defining basis sum by brute force and exists purely as an independent
cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .freealg import AlgebraElement, Scalar, balance, split_block, theta_word, word_star


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


def project(ws, a, b=AlgebraElement.one()):
    """P(a * b), b = 1 by default, summed pair by pair; a * b is never built.

    Linear extension of project_word; idempotent with holomorphic range.
    """
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for i, v in project_word(ws, wa + wb).items():
                v = ca * cb * v
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
