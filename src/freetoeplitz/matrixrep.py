"""Float matrix truncations of Toeplitz operators.

The degree-<=L truncation of the holomorphic space is spanned by the
multi-indices in graded-lex order; matrix entries are exact form values
in the orthonormal basis, with the square roots (and only those) taken
in floating point at the very end.  Only nonzero entries are stored.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .expr import format_element, format_word
from .freealg import AlgebraElement
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


def _float_weight(ws, i):
    """w(i) as a float, which the normalisation divides and square-roots."""
    try:
        w = float(ws.weight(i))
    except OverflowError:
        w = math.inf
    if not 0 < w < math.inf:
        raise ValueError("weight w(%s) is outside float range" % format_word(i))
    return w


def matrix_of(ws, g, space):
    """Matrix of T_g on the truncation, in the orthonormal basis.

    Column k holds the expansion of T_g applied to the k-th basis word;
    images of degree above the truncation are dropped.  A weight, weight
    ratio or entry whose float is not finite, or a zero weight or ratio,
    raises ValueError.
    """
    op = ToeplitzOperator(g, ws)
    dim = space.dim
    weights = [_float_weight(ws, i) for i in space.basis]
    keys, values = [], []
    for col, k in enumerate(space.basis):
        image = op.apply(AlgebraElement.from_word(k))
        for w, c in image.items():
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
            keys.append(row * dim + col)
            values.append(value)
    keys, values = np.array(keys, dtype=np.intp), np.array(values, dtype=complex)
    return _sparse(space, format_element(g), keys, values)


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
