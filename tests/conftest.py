import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freetoeplitz.expr import format_element, format_word
from freetoeplitz.form import WeightSystem
from freetoeplitz.freealg import AlgebraElement, Scalar, split_block, swap_alphabet, word_star
from freetoeplitz.kernel import form_factors
from freetoeplitz.matrixrep import OperatorMatrix
from freetoeplitz.projection import partner, project_word
from freetoeplitz.toeplitz import CompatibilityViolation, ToeplitzOperator, compat_pairs


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
    f1 + r = k + f2, and for f1 empty f2 = () (so r = k), since a nonempty
    f2* is bar-initial; for g bar-initial, f1 is empty and rev(f2) is
    the partner of g with its letter kinds swapped.
    """
    if g and g[0] < 0:
        f2 = None if f1 else partner(swap_alphabet(g))
        return None if f2 is None else f2[::-1]
    k, r, _ = split_block(g)
    glued = f1 + r
    if glued[:len(k)] != k or not f1 and len(r) != len(k):
        return None
    return glued[len(k):]


def compat_scan(holo, max_len, g):
    """The candidate pairs (f1, f2) for g, found by scanning every f.

    Tries the three closed forms on each word f of holo, the holomorphic
    words of length at most max_len; keeps the pairs within max_len with
    len(f1) = len(f2) + balance(g) and sorts them by f2, then f1.  Each
    pair comes as (f1, f2, mask), where mask sums the sides that three
    full pairings show nonzero: 1 for <f1, f2 g>, 2 for <f1 g*, f2>, 4
    for <f1 f2*, g>; a pair with no nonzero side is dropped.  The oracle
    for ``toeplitz.compat_pairs``.
    """
    bal = sum(1 if c > 0 else -1 for c in g)
    gs = word_star(g)
    pairs = set()
    for f in holo:
        for f1, f2 in ((partner(f + g), f), (f, partner(f + gs)), (f, glue_partner(f, g))):
            if None not in (f1, f2):
                pairs.add((f1, f2))
    scanned = []
    for f1, f2 in pairs:
        if len(f1) == len(f2) + bal and max(len(f1), len(f2)) <= max_len:
            sides = ((f1, f2 + g), (f1 + gs, f2), (f1 + word_star(f2), g))
            mask = sum(bit for bit, side in zip((1, 2, 4), sides) if form_factors(*side) is not None)
            if mask:
                scanned.append((f1, f2, mask))
    return sorted(scanned, key=lambda t: (len(t[1]), t[1], t[0]))


def compat_per_pair(n, max_len, ws):
    """Violations of both identities, three pairings per candidate pair.

    Evaluates all three sides of every pair of ``toeplitz.compat_pairs``
    with ``ws.form_words``, whatever sides it lists, and orders the
    violations by g, then f2, then f1.  The oracle for
    ``toeplitz.check_compatibility``, which zeroes the sides a pair does
    not list and evaluates the others from their (factor, suffix) and a
    shared tail.
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


def matrix_by_columns(ws, g, space):
    """The matrix of T_g, one ``ToeplitzOperator.apply`` per basis word.

    Column k holds the expansion of T_g applied to the k-th basis word,
    images of degree above the truncation dropped, each entry
    complex(c) * sqrt(w(row) / w(col)).  Every basis weight is checked
    first; then the columns in basis order, each entry's weight ratio
    before its value.  The oracle for ``matrixrep.matrix_of``, which
    builds the matrix from the symbol's shift families.
    """
    op = ToeplitzOperator(g, ws)
    weights = []
    for i in space.basis:
        try:
            w = float(ws.weight(i))
        except OverflowError:
            w = math.inf
        if not 0 < w < math.inf:
            raise ValueError("weight w(%s) is outside float range" % format_word(i))
        weights.append(w)
    entries = {}
    for col, k in enumerate(space.basis):
        for w, c in op.apply(AlgebraElement.from_word(k)).items():
            row = space.index.get(w)
            if row is None:
                continue
            ratio = weights[row] / weights[col]
            if not 0 < ratio < math.inf:
                raise ValueError(
                    "weight ratio w(%s)/w(%s) is outside float range"
                    % (format_word(w), format_word(k))
                )
            try:
                value = complex(c) * math.sqrt(ratio)
            except OverflowError:
                value = math.inf
            if not cmath.isfinite(value):
                raise ValueError(
                    "matrix entry (%s, %s) is outside float range"
                    % (format_word(w), format_word(k))
                )
            if value:
                entries[row, col] = value
    keys = sorted(entries)
    rows = np.array([r for r, _ in keys], dtype=np.intp)
    cols = np.array([c for _, c in keys], dtype=np.intp)
    values = np.array([entries[k] for k in keys], dtype=complex)
    return OperatorMatrix(space, format_element(g), rows, cols, values)


def _entry_tuples(m):
    """(row, col, re, im) of each stored entry, as Python ints and floats."""
    v = m.values
    return zip(m.rows.tolist(), m.cols.tolist(), v.real.tolist(), v.imag.tolist())


def csv_by_entries(m):
    """The CSV export of m, formatted entry by entry as "%d,%d,%.17g,%.17g".

    The oracle for ``matrixrep.to_csv``, which formats each distinct float
    once and the whole text with one ``%``.
    """
    lines = ["%d,%d,%.17g,%.17g" % e for e in _entry_tuples(m)]
    return "\n".join(["row,col,re,im"] + lines) + "\n"


def json_by_entries(m):
    """The JSON export of m, ``json.dumps`` of the whole object with its entry list.

    The oracle for ``matrixrep.to_json``, which formats each distinct float
    once and splices the entries into the dumped header.
    """
    return json.dumps({
        "n": m.space.n,
        "L": m.space.max_length,
        "order": "graded-lex",
        "symbol": m.symbol_text,
        "entries": [list(e) for e in _entry_tuples(m)],
    })
