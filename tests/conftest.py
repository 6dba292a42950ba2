import itertools
import random
from fractions import Fraction

import pytest

from freetoeplitz.form import WeightSystem
from freetoeplitz.freealg import AlgebraElement, Scalar, split_block, swap_alphabet, word_star
from freetoeplitz.projection import partner, project_word
from freetoeplitz.toeplitz import CompatibilityViolation, compat_pairs


@pytest.fixture
def ws2():
    return WeightSystem.unit(2)


@pytest.fixture
def ws23():
    return WeightSystem(2, mu=(2, 3))


def all_words(n, max_len):
    letters = [c for j in range(1, n + 1) for c in (j, -j)]
    for r in range(max_len + 1):
        yield from itertools.product(letters, repeat=r)


def random_word(rnd: random.Random, n, max_len, holomorphic=False):
    length = rnd.randint(0, max_len)
    if holomorphic:
        return tuple(rnd.randint(1, n) for _ in range(length))
    return tuple(rnd.choice((1, -1)) * rnd.randint(1, n) for _ in range(length))


def custom_weights(rnd, n, max_len):
    """Custom weights: a random positive value on each multi-index to max_len.

    Not multiplicative, so no rule of product weights can stand in for it.
    """
    return WeightSystem.custom(n, {
        i: Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        for r in range(1, max_len + 1)
        for i in itertools.product(range(1, n + 1), repeat=r)
    })


class FractionScalar:
    """Gaussian rational re + im*i held as a pair of ``Fraction``s.

    The oracle for ``freealg.Scalar``, which holds integers a, b, d with
    value (a + b*i) / d: every operation is the textbook component
    formula on ``Fraction``s, with no normal form to keep.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def conjugate(self):
        return FractionScalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        return FractionScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionScalar(-self.re, -self.im)

    def __mul__(self, other):
        return FractionScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def form_all_pairs(ws, a, b):
    """<a, b> with every term of a paired with every term of b.

    The oracle for ``WeightSystem.form``, which pairs only the terms that
    ``projection.pairing_candidates`` lists.
    """
    out = Scalar(0)
    for wa, ca in a.items():
        for wb, cb in b.items():
            v = ws.form_words(wa, wb)
            if v:
                out = out + ca.conjugate() * cb * Scalar(v)
    return out


def project_pairwise(ws, a, b):
    """P(a * b) as the sum of ``project_word`` over every pair of terms.

    The oracle for ``projection.project`` with a prepared right factor:
    each pair of words is split and projected anew, weights included.
    """
    out = AlgebraElement.zero()
    for wa, ca in a.items():
        for wb, cb in b.items():
            out = out + ca * cb * project_word(ws, wa + wb)
    return out


def compat_enumeration(n, max_len, ws, prune):
    """Brute-force violations of both star-compatibility identities.

    Pairs every holomorphic f1 with every holomorphic f2 and word g of
    length at most max_len, as (prop, f1, f2, g, lhs, rhs) tuples; the
    oracle for ``toeplitz.check_compatibility``.  With ``prune`` only
    triples with len(f1) = len(f2) + balance(g) are paired, the class
    outside which every side is zero.
    """
    holo = [w for w in all_words(n, max_len) if all(c > 0 for c in w)]
    out = set()
    for g in all_words(n, max_len):
        bal = sum(1 if c > 0 else -1 for c in g)
        gs = word_star(g)
        for f2 in holo:
            for f1 in holo:
                if prune and len(f1) != len(f2) + bal:
                    continue
                lhs = ws.form_words(f1, f2 + g)
                rhs1 = ws.form_words(f1 + gs, f2)
                rhs2 = ws.form_words(f1 + word_star(f2), g)
                if lhs != rhs1:
                    out.add((1, f1, f2, g, lhs, rhs1))
                if lhs != rhs2:
                    out.add((2, f1, f2, g, lhs, rhs2))
    return out


def glue_partner(f1, g):
    """The only holomorphic word f2 for which <f1 f2*, g> can be nonzero.

    None when there is none.  The kernel's first gluing step fixes f2: for
    g empty or theta-initial, with first block (k, r) from ``split_block``,
    f1 + r = k + f2 (for f1 empty that gives f2 = () whenever
    <(), g> is nonzero); for g bar-initial, f1 is empty and rev(f2) is
    the partner of g with its letter kinds swapped.
    """
    if g and g[0] < 0:
        f2 = None if f1 else partner(swap_alphabet(g))
        return None if f2 is None else f2[::-1]
    k, r, _ = split_block(g)
    glued = f1 + r
    return glued[len(k):] if glued[:len(k)] == k else None


def compat_scan(holo, max_len, g):
    """The candidate pairs (f1, f2) for g, found by scanning every f.

    Tries the three closed forms on each word f of holo, the holomorphic
    words of length at most max_len; keeps the pairs within max_len with
    len(f1) = len(f2) + balance(g) and sorts them by f2, then f1.  Each
    pair comes as (f1, f2, mask), where mask sums the sides whose closed
    form gave it: 1 for <f1, f2 g>, 2 for <f1 g*, f2>, 4 for <f1 f2*, g>.
    The oracle for ``toeplitz.compat_pairs``.
    """
    bal = sum(1 if c > 0 else -1 for c in g)
    gs = word_star(g)
    masks = {}
    for f in holo:
        candidates = (
            (partner(f + g), f, 1), (f, partner(f + gs), 2), (f, glue_partner(f, g), 4)
        )
        for f1, f2, side in candidates:
            if None not in (f1, f2):
                masks[f1, f2] = masks.get((f1, f2), 0) | side
    return sorted(
        (
            (f1, f2, mask) for (f1, f2), mask in masks.items()
            if len(f1) == len(f2) + bal and max(len(f1), len(f2)) <= max_len
        ),
        key=lambda t: (len(t[1]), t[1], t[0]),
    )


def compat_per_pair(n, max_len, ws):
    """Violations of both identities, three pairings per candidate pair.

    Evaluates all three sides of every pair of ``toeplitz.compat_pairs``
    with ``ws.form_words``, whatever its mask, and orders the violations
    by g, then f2, then f1.  The oracle for
    ``toeplitz.check_compatibility``, which zeroes the sides outside the
    mask and evaluates the others by one glue step and a shared tail.
    """
    letters = [c for j in range(1, n + 1) for c in (j, -j)]
    holo = [list(itertools.product(range(1, n + 1), repeat=r)) for r in range(max_len + 1)]
    violations = []
    for g in (w for r in range(max_len + 1) for w in itertools.product(letters, repeat=r)):
        gs = word_star(g)
        for f1, f2, _ in compat_pairs(g, holo):
            lhs = ws.form_words(f1, f2 + g)
            rhs1 = ws.form_words(f1 + gs, f2)
            if lhs != rhs1:
                violations.append(CompatibilityViolation(1, f1, f2, g, lhs, rhs1))
            rhs2 = ws.form_words(f1 + word_star(f2), g)
            if lhs != rhs2:
                violations.append(CompatibilityViolation(2, f1, f2, g, lhs, rhs2))
    return violations


def scan_oracle(word, p=None, seed=None):
    """Rescanning form of ``scanproj.scan_project``, as (result, eliminations).

    For each bar letter it lists the alive earlier thetas of its index by
    scanning the whole prefix, so it is quadratic in the word's length.
    p=None pairs with the rightmost of them; otherwise the Bernoulli(p)
    draw and the uniform choice come from random.Random(seed), in the
    order of the stochastic strategy.  The oracle for ``scan_project``.
    """
    rnd = None if p is None else random.Random(seed)
    alive = [True] * len(word)
    eliminations = []
    for pos, c in enumerate(word):
        if c >= 0:
            continue
        eligible = [q for q in range(pos) if alive[q] and word[q] == -c]
        if not eligible or (rnd is not None and rnd.random() >= p):
            eliminations.append((pos, None))
            return None, tuple(eliminations)
        mate = eligible[-1] if rnd is None else rnd.choice(eligible)
        alive[pos] = alive[mate] = False
        eliminations.append((pos, mate))
    return tuple(c for q, c in enumerate(word) if alive[q]), tuple(eliminations)
