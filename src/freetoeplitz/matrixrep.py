"""Float matrix truncations of Toeplitz operators.

The degree-<=L truncation of the holomorphic space is spanned by the
multi-indices in graded-lex order, so a word's index is the count of
shorter words plus its base-n value.  A Toeplitz operator is a finite
sum of shift families, each mapping u + s2 to a multiple of u + s1 for
every holomorphic u, and ``matrix_of`` writes each family at once.
Matrix entries are exact form values in the orthonormal basis, with
the square roots (and only those) taken in floating point at the very
end.  Only nonzero entries are stored.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .expr import format_element, format_word
from .freealg import AlgebraElement, Scalar
from .projection import partner_families
from .toeplitz import ToeplitzOperator


@dataclass(frozen=True)
class TruncatedSpace:
    n: int
    max_length: int
    basis: tuple
    index: dict

    @classmethod
    def build(cls, n, max_length):
        basis = tuple(
            i
            for r in range(max_length + 1)
            for i in itertools.product(range(1, n + 1), repeat=r)
        )
        index = {i: k for k, i in enumerate(basis)}
        return cls(n=n, max_length=max_length, basis=basis, index=index)

    @property
    def dim(self):
        return len(self.basis)


@dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator matrix, stored as its nonzero entries.

    ``rows``, ``cols`` and ``values`` hold each nonzero once, sorted
    row-major as ``np.nonzero`` lists them; a symbol with m terms gives at
    most m nonzeros per column.
    """

    space: TruncatedSpace
    symbol_text: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def dim(self):
        return self.space.dim

    @property
    def entries(self):
        """The dense dim x dim complex array, built anew on each access."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.rows, self.cols] = self.values
        return out


def _sparse(space, symbol_text, keys, values):
    """Matrix from terms at flat positions row * dim + col.

    Terms sharing a position are summed in their input order, and exact
    zeros are dropped.
    """
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(values, starts) if len(starts) else values
    keep = sums != 0
    rows, cols = np.divmod(keys[starts][keep], space.dim)
    return OperatorMatrix(space, symbol_text, rows, cols, sums[keep])


def _quotient(a, b):
    """a / b, correctly rounded as float(Fraction(a, b)) is; inf past float range."""
    try:
        return a / b
    except OverflowError:
        return math.inf


def _weight_error(i):
    return ValueError("weight w(%s) is outside float range" % format_word(i))


def _float_weight(ws, i):
    """w(i) as a float, which the normalisation divides and square-roots."""
    w = ws.weight(i)
    w = _quotient(w.numerator, w.denominator)
    if not 0 < w < math.inf:
        raise _weight_error(i)
    return w


def _product_weights(mu, max_length):
    """Float w(i) under the product weights mu for each multi-index i, graded-lex.

    Built level by level on integer numerators and denominators, with
    one division a word; inf where w(i) overflows, 0.0 where it
    underflows.
    """
    ps, qs = [m.numerator for m in mu], [m.denominator for m in mu]
    nums, dens, out = [1], [1], [1.0]
    for _ in range(max_length):
        nums = [a * p for a in nums for p in ps]
        dens = [b * q for b in dens for q in qs]
        try:
            level = list(map(operator.truediv, nums, dens))
        except OverflowError:
            level = list(map(_quotient, nums, dens))
        out += level
    return np.array(out)


def _basis_weights(ws, space):
    """Float w(i) for each basis word i; the first one outside float range raises."""
    if ws.mu is None:
        return np.array([_float_weight(ws, i) for i in space.basis])
    weights = _product_weights(ws.mu, space.max_length)
    bad = np.flatnonzero(~((weights > 0) & (weights < math.inf)))
    if bad.size:
        raise _weight_error(space.basis[bad[0]])
    return weights


def _complex(c):
    """complex(c), or a non-finite stand-in where a part overflows."""
    try:
        return complex(c)
    except OverflowError:
        return complex(math.inf, math.inf)


def _family_terms(op):
    """Shift family (s1, s2) -> the indices of the symbol terms in it, in term order."""
    families = {}
    for j, (_, _, t, r, _) in enumerate(op.terms):
        for key in partner_families(t, r)[1]:
            families.setdefault(key, []).append(j)
    return families


class _Indexer:
    """Graded-lex indices by arithmetic: the count of shorter words plus the base-n value."""

    def __init__(self, space):
        self.n = n = space.n
        self.starts = [0]  # starts[m]: the count of words shorter than m
        for m in range(space.max_length + 1):
            self.starts.append(self.starts[-1] + n**m)

    def spells(self, word):
        """Whether every letter of word is one of 1..n."""
        return all(1 <= x <= self.n for x in word)

    def value(self, word):
        """The base-n value of a word, its rank among the words of its length."""
        v = 0
        for x in word:
            v = v * self.n + x - 1
        return v

    def index(self, word):
        return self.starts[len(word)] + self.value(word)

    def words(self, lengths):
        """Every word with its length in lengths, in graded-lex order."""
        letters = range(1, self.n + 1)
        return (u for m in lengths for u in itertools.product(letters, repeat=m))

    def shifted(self, s, lengths):
        """The indices of u + s for each u with len(u) in lengths, in the order of u."""
        n, v = self.n, self.value(s)
        step = n ** len(s)
        return np.concatenate([np.zeros(0, dtype=np.intp)] + [
            np.arange(n**m, dtype=np.intp) * step + (self.starts[m + len(s)] + v)
            for m in lengths
        ])


def _family_coefficients(op, family, js, us, indexer, errors):
    """The exact coefficient of a family at column u + s2 for each u of us.

    Sums the coefficients of the family's terms js, and returns the sums
    with the first term whose coefficient is nonzero, the entries'
    position within a column.  A coefficient that raises is put on
    errors with its column and term, and ends the family there.
    """
    s1, s2 = family
    exact, rank = [], None
    for u in us:
        total = Scalar(0)
        for j in js:
            try:
                c = op.coefficient(j, u + s2 + op.terms[j][2], u + s1)
            except ValueError as e:
                errors.append(((indexer.index(u + s2), 0, j), e))
                return exact, rank
            if c:
                total += c
                rank = j if rank is None else rank
        exact.append(total)
    return exact, rank


def _first_error(space, rows, cols, ranks, ratios, values, errors):
    """The error the column loop would raise first, or None.

    It checks the columns in basis order and, within a column, each
    entry's weight ratio and then its value in the order of their first
    terms; a coefficient that raises does so before its column's checks.
    """
    bad_ratio = ~((ratios > 0) & (ratios < math.inf))
    bad = np.flatnonzero(bad_ratio | ~np.isfinite(values))
    if bad.size:
        p = bad[np.lexsort((ranks[bad], cols[bad]))[0]]
        w, k = (format_word(space.basis[x]) for x in (rows[p], cols[p]))
        if bad_ratio[p]:
            error = ValueError("weight ratio w(%s)/w(%s) is outside float range" % (w, k))
        else:
            error = ValueError("matrix entry (%s, %s) is outside float range" % (w, k))
        errors = errors + [((cols[p], 1, ranks[p]), error)]
    return min(errors, key=lambda e: e[0])[1] if errors else None


def matrix_of(ws, g, space):
    """Matrix of T_g on the truncation, in the orthonormal basis.

    Built from g's shift families (``projection.partner_families``): a
    family (s1, s2) maps column u + s2 to row u + s1 for every
    holomorphic word u.  Its exact coefficient comes from
    ``ToeplitzOperator.coefficient``: one value for the whole family under
    product weights, one per entry under a custom table.  The terms of
    one family are summed exactly before any float, and a family's rows
    and columns are numpy ranges of graded-lex indices.  Only the empty
    basis word's column goes through ``ToeplitzOperator.apply``, so the
    families start at u nonempty when s2 is empty.  Each entry is
    complex(c) * sqrt(w(row) / w(col)), and entries of degree above the
    truncation are dropped.  A weight, weight ratio or entry whose float
    is not finite, or a zero weight or ratio, raises ValueError, as
    does a coefficient that cannot be taken; the one raised is the
    first that applying and checking the columns in turn would meet.
    """
    op = ToeplitzOperator(g, ws)
    weights = _basis_weights(ws, space)
    index = space.index
    hits = [(index[w], c) for w, c in op.apply(AlgebraElement.one()).items() if w in index]
    rows = [np.array([r for r, _ in hits], dtype=np.intp)]
    cols = [np.zeros(len(hits), dtype=np.intp)]
    ranks = [np.arange(len(hits))]
    coeffs = [_complex(c) for _, c in hits]
    errors = []  # ((column, 0, term), error) for each coefficient that raised
    indexer, top = _Indexer(space), space.max_length
    for (s1, s2), js in _family_terms(op).items():
        first = 0 if s2 else 1  # len(u) in the family's first column
        if first + len(s2) > top or not indexer.spells(s2):
            continue
        us = indexer.words(range(first, top - len(s2) + 1))
        if ws.mu is not None:
            us = itertools.islice(us, 1)  # one coefficient for the whole family
        exact, rank = _family_coefficients(op, (s1, s2), js, us, indexer, errors)
        if rank is None:
            continue  # every coefficient is zero, or the first one raised
        # the entries whose row is in the truncation as well
        lengths = range(first, top - max(len(s1), len(s2)) + 1) if indexer.spells(s1) else ()
        fr, fc = indexer.shifted(s1, lengths), indexer.shifted(s2, lengths)
        if ws.mu is None:
            keep = [p for p, c in enumerate(exact[: len(fr)]) if c]
            fr, fc = fr[keep], fc[keep]
            coeffs += [_complex(exact[p]) for p in keep]
        elif exact and exact[0]:
            coeffs += [_complex(exact[0])] * len(fr)
        else:
            continue
        rows.append(fr)
        cols.append(fc)
        ranks.append(np.full(len(fr), rank))
    rows, cols, ranks = (np.concatenate(a) for a in (rows, cols, ranks))
    with np.errstate(over="ignore", under="ignore"):
        ratios = weights[rows] / weights[cols]
    # the column loop's float steps, complex(c) * math.sqrt(ratio), entry by entry
    values = np.array(list(map(operator.mul, coeffs, np.sqrt(ratios).tolist())), dtype=complex)
    error = _first_error(space, rows, cols, ranks, ratios, values, errors)
    if error is not None:
        raise error
    return _sparse(space, format_element(g), rows * space.dim + cols, values)


def adjoint_defect(ws, g, space):
    """Max-abs deviation of the matrix of g* from the conjugate transpose."""
    m = matrix_of(ws, g, space)
    ms = matrix_of(ws, g.star(), space)
    # m - ms^H on the union of the two patterns; both are 0 elsewhere
    keys = np.concatenate((m.rows * m.dim + m.cols, ms.cols * m.dim + ms.rows))
    diff = _sparse(space, "", keys, np.concatenate((m.values, -ms.values.conj())))
    return float(np.abs(diff.values).max()) if diff.values.size else 0.0


def _product_terms(x, y):
    """Flat positions and values of every term x[r, k] * y[k, c], unsummed."""
    order = np.argsort(x.cols, kind="stable")
    xcols = x.cols[order]
    start = np.searchsorted(xcols, y.rows, "left")
    count = np.searchsorted(xcols, y.rows, "right") - start
    # each entry of y meets the run of x's entries in the column of its row
    run = np.repeat(start - np.cumsum(count) + count, count)
    xi = order[run + np.arange(count.sum())]
    keys = x.rows[xi] * x.dim + np.repeat(y.cols, count)
    return keys, x.values[xi] * np.repeat(y.values, count)


def commutator_matrix(m1, m2):
    if m1.dim != m2.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (m1.dim, m2.dim))
    spaces = [(m.space.n, m.space.max_length) for m in (m1, m2)]
    if spaces[0] != spaces[1]:
        raise ValueError("space mismatch: n=%d L=%d vs n=%d L=%d" % (*spaces[0], *spaces[1]))
    k12, v12 = _product_terms(m1, m2)
    k21, v21 = _product_terms(m2, m1)
    keys, values = np.concatenate((k12, k21)), np.concatenate((v12, -v21))
    text = "[%s, %s]" % (m1.symbol_text, m2.symbol_text)
    return _sparse(m1.space, text, keys, values)


def _nonzero_entries(m):
    v = m.values
    return zip(m.rows.tolist(), m.cols.tolist(), v.real.tolist(), v.imag.tolist())


def to_csv(m):
    """CSV export: header plus one line per nonzero entry."""
    lines = ["row,col,re,im"]
    for r, c, re, im in _nonzero_entries(m):
        lines.append("%d,%d,%.17g,%.17g" % (r, c, re, im))
    return "\n".join(lines) + "\n"


def to_json(m):
    obj = {
        "n": m.space.n,
        "L": m.space.max_length,
        "order": "graded-lex",
        "symbol": m.symbol_text,
        "entries": [[r, c, re, im] for r, c, re, im in _nonzero_entries(m)],
    }
    return json.dumps(obj)
