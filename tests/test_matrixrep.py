import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freetoeplitz import form, projection
from freetoeplitz.expr import parse_element
from freetoeplitz.freealg import AlgebraElement, Scalar, theta_word, word_star
from freetoeplitz.form import WeightSystem
from freetoeplitz.toeplitz import ToeplitzOperator, random_element, random_holomorphic
from freetoeplitz.matrixrep import (
    TruncatedSpace,
    adjoint_defect,
    commutator_matrix,
    matrix_of,
    to_csv,
    to_json,
)


def w(word):
    return AlgebraElement.from_word(word)


def test_space_basis_graded_lex():
    space = TruncatedSpace.build(2, 2)
    assert space.dim == 1 + 2 + 4
    assert space.basis == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))


def test_identity_symbol(ws2):
    space = TruncatedSpace.build(2, 3)
    m = matrix_of(ws2, AlgebraElement.one(), space)
    assert np.allclose(m.entries, np.eye(space.dim))


def test_creation_matrix_single_entry(ws2):
    space = TruncatedSpace.build(2, 1)
    m = matrix_of(ws2, w((1,)), space)
    expected = np.zeros((3, 3), dtype=complex)
    expected[space.index[(1,)], space.index[()]] = 1
    assert np.allclose(m.entries, expected)


def test_annihilation_matrix_shift_down():
    ws = WeightSystem.unit(1)
    space = TruncatedSpace.build(1, 2)
    m = matrix_of(ws, w((-1,)), space)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1
    expected[1, 2] = 1
    assert np.allclose(m.entries, expected)


def test_creation_matrix_one_nonzero_per_interior_column(ws23):
    space = TruncatedSpace.build(2, 3)
    m = matrix_of(ws23, w((1,)), space)
    for col, i in enumerate(space.basis):
        nz = np.nonzero(m.entries[:, col])[0]
        if len(i) < space.max_length:
            assert len(nz) == 1
        else:
            assert len(nz) == 0


def test_truncation_consistency(ws23):
    rnd = random.Random(2)
    from freetoeplitz.toeplitz import random_holomorphic

    s4 = TruncatedSpace.build(2, 4)
    s5 = TruncatedSpace.build(2, 5)
    for _ in range(5):
        g = random_holomorphic(rnd, 2, max_len=3)
        if rnd.random() < 0.5:
            g = g.star()
        m4 = matrix_of(ws23, g, s4).entries
        m5 = matrix_of(ws23, g, s5).entries
        assert np.allclose(m4, m5[: s4.dim, : s4.dim])


def test_adjoint_defect_small_for_compatible_symbols(ws2):
    space = TruncatedSpace.build(2, 4)
    assert adjoint_defect(ws2, w((2,)), space) <= 1e-12
    assert adjoint_defect(ws2, w((1, 2, 1)), space) <= 1e-12


def test_adjoint_defect_large_for_general_symbol(ws2):
    space = TruncatedSpace.build(2, 3)
    assert adjoint_defect(ws2, w((-2, 1, -1)), space) >= 1 - 1e-9


def test_commutator_matrix(ws2):
    space = TruncatedSpace.build(2, 3)
    m1 = matrix_of(ws2, w((1,)), space)
    m2 = matrix_of(ws2, w((2,)), space)
    c = commutator_matrix(m1, m2)
    assert np.abs(c.entries).max() > 0
    assert np.allclose(commutator_matrix(m1, m1).entries, 0)


def test_commutator_matrix_dim_mismatch(ws2):
    m1 = matrix_of(ws2, w((1,)), TruncatedSpace.build(2, 2))
    m2 = matrix_of(ws2, w((1,)), TruncatedSpace.build(2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator_matrix(m1, m2)


def test_weight_ratio_outside_float_range_rejected():
    # both weights are floats, but w(t1) / w(t1*t1) = 10^400 is not, and
    # its inverse underflows to 0
    big = Fraction(10) ** 200
    ws = WeightSystem.custom(1, {(1,): big, (1, 1): 1 / big})
    space = TruncatedSpace.build(1, 2)
    with pytest.raises(ValueError, match=r"weight ratio w\(t1\)/w\(t1\*t1\)"):
        matrix_of(ws, w((-1,)), space)
    with pytest.raises(ValueError, match=r"weight ratio w\(t1\*t1\)/w\(t1\)"):
        matrix_of(ws, w((1,)), space)
    # the entries of T_1 have ratio 1
    assert len(matrix_of(ws, AlgebraElement.one(), space).values) == 3


def test_number_like_commutator_n1():
    ws = WeightSystem.unit(1)
    space = TruncatedSpace.build(1, 4)
    a = matrix_of(ws, w((-1,)), space)
    adag = matrix_of(ws, w((1,)), space)
    c = commutator_matrix(a, adag).entries
    # diagonal; unit weights make the interior vanish, the top level
    # feels the truncation
    off = c - np.diag(np.diag(c))
    assert np.allclose(off, 0)
    diag = np.diag(c).real
    assert diag[0] == pytest.approx(1.0)
    for k in range(1, space.dim - 1):
        assert diag[k] == pytest.approx(0.0)
    assert diag[-1] == pytest.approx(-1.0)


def test_csv_export(ws2):
    space = TruncatedSpace.build(2, 1)
    m = matrix_of(ws2, w((1,)), space)
    text = to_csv(m)
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 2
    row, col, re, im = lines[1].split(",")
    assert (int(row), int(col)) == (space.index[(1,)], space.index[()])
    assert float(re) == 1.0 and float(im) == 0.0


def test_json_export(ws2):
    space = TruncatedSpace.build(2, 1)
    m = matrix_of(ws2, w((1,)), space)
    obj = json.loads(to_json(m))
    assert obj["n"] == 2 and obj["L"] == 1
    assert obj["order"] == "graded-lex"
    assert obj["symbol"] == "t1"
    assert obj["entries"] == [[space.index[(1,)], space.index[()], 1.0, 0.0]]


def test_adjoint_defect_random_compatible(ws2):
    rnd = random.Random(77)
    from freetoeplitz.toeplitz import random_holomorphic

    space = TruncatedSpace.build(2, 4)
    for _ in range(20):
        g = random_holomorphic(rnd, 2, max_len=3)
        if rnd.random() < 0.5:
            g = g.star()
        assert adjoint_defect(ws2, g, space) <= 1e-12


def dense_reference(ws, g, space):
    """The dense matrix: every column of T_g written into a dim x dim array."""
    op = ToeplitzOperator(g, ws)
    entries = np.zeros((space.dim, space.dim), dtype=complex)
    weights = [float(ws.weight(i)) for i in space.basis]
    for col, k in enumerate(space.basis):
        image = op.apply(AlgebraElement.from_word(theta_word(k)))
        for word, c in image.items():
            row = space.index.get(word)
            if row is not None:
                entries[row, col] = complex(c) * math.sqrt(weights[row] / weights[col])
    return entries


MUS = ((1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 3)))
SPARSE_CASES = [(2, 5, mu) for mu in MUS] + [(1, 8, mu[:1]) for mu in MUS]


def sparse_case(n, degree, mu):
    """Weights, space and seeded symbols: theta-initial, bar-initial,
    mixed, a scalar and zero."""
    rnd = random.Random(repr((n, degree, mu)))
    symbols = []
    for _ in range(2):
        h = random_holomorphic(rnd, n, max_len=3)
        symbols += [h, h.star(), random_element(rnd, n, max_len=4)]
    symbols += [Scalar(2, -1) * AlgebraElement.one(), AlgebraElement.zero()]
    return WeightSystem(n, mu=mu), TruncatedSpace.build(n, degree), symbols


def assert_canonical(m):
    assert m.rows.dtype == np.intp and m.cols.dtype == np.intp
    assert m.values.dtype == complex
    keys = m.rows * m.dim + m.cols
    assert np.all(np.diff(keys) > 0)  # row-major, no repeated position
    assert np.all(m.values != 0)


@pytest.mark.parametrize("n,degree,mu", SPARSE_CASES)
def test_sparse_matrix_matches_dense_reference(n, degree, mu):
    ws, space, symbols = sparse_case(n, degree, mu)
    for g in symbols:
        m = matrix_of(ws, g, space)
        assert_canonical(m)
        assert np.array_equal(m.entries, dense_reference(ws, g, space))


@pytest.mark.parametrize("n,degree,mu", SPARSE_CASES)
def test_sparse_commutator_matches_dense_product(n, degree, mu):
    ws, space, symbols = sparse_case(n, degree, mu)
    mats = [matrix_of(ws, g, space) for g in symbols]
    for x in mats:
        for y in mats:
            a, b = x.entries, y.entries
            c = commutator_matrix(x, y)
            assert_canonical(c)
            assert np.allclose(c.entries, a @ b - b @ a, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,degree,mu", SPARSE_CASES)
def test_sparse_adjoint_defect_matches_dense_formula(n, degree, mu):
    ws, space, symbols = sparse_case(n, degree, mu)
    for g in symbols:
        a = dense_reference(ws, g, space)
        b = dense_reference(ws, g.star(), space)
        assert adjoint_defect(ws, g, space) == np.abs(a - b.conj().T).max()


def test_projection_work_pinned(monkeypatch):
    # at n=2 L=6 the 127 columns of b1*t2 + t1 + 1/2*b2 give 381 pairs of
    # a basis word and a symbol term.  The operator splits its three terms
    # once; the 126 nonempty basis words take only the partner test, and
    # the empty one goes through project_word, which splits t1.  The
    # kernel sees the two tails kept by the operator, <t2, 1> and
    # <1, 1>, and the three words of the empty column
    splits, pairings = [], []
    split_block, form_factors = projection.split_block, form.form_factors

    def counted_split(word):
        splits.append(None)
        return split_block(word)

    def counted_pairing(f, g):
        pairings.append(None)
        return form_factors(f, g)

    monkeypatch.setattr(projection, "split_block", counted_split)
    monkeypatch.setattr(form, "form_factors", counted_pairing)
    g = parse_element("b1*t2 + t1 + 1/2*b2", 2)
    m = matrix_of(WeightSystem(2, mu=(2, 3)), g, TruncatedSpace.build(2, 6))
    assert len(m.values) == 126
    assert (len(splits), len(pairings)) == (4, 5)
