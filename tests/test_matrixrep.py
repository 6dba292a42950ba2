import importlib.util
import itertools
import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    csv_by_entries,
    custom_weights,
    json_by_entries,
    matrix_by_columns,
    project_pairwise,
)
from freetoeplitz import form, matrixrep, projection
from freetoeplitz.expr import parse_element
from freetoeplitz.freealg import AlgebraElement, Scalar
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


def enumerated_basis(n, max_length):
    """Every word of length <= max_length over 1..n, shorter first, each length lexicographic."""
    letters = range(1, n + 1)
    return [u for m in range(max_length + 1) for u in itertools.product(letters, repeat=m)]


@pytest.mark.parametrize("n,top", [(1, 12), (2, 8), (3, 5)])
def test_space_arithmetic_matches_enumeration(n, top):
    # matrix_by_columns reads the space through basis and index, so this
    # enumeration is what keeps the column-loop oracle independent
    for max_length in range(top + 1):
        space = TruncatedSpace.build(n, max_length)
        words = enumerated_basis(n, max_length)
        assert space.dim == len(words)
        assert space.basis == tuple(words)
        index = space.index
        for k, u in enumerate(words):
            assert index[u] == index.get(u) == k
            assert u in index
            assert space.word(k) == u
        want = {u: k for k, u in enumerate(words)}
        for s in words:
            for lo in range(max_length - len(s) + 1):
                lengths = range(lo, max_length - len(s) + 1)
                got = space.shifted(s, lengths).tolist()
                assert got == [want[u + s] for u in words if len(u) in lengths]
        for word in ((1,) * (max_length + 1), (n + 1,), (1, -1), (-1,)):
            assert index.get(word) is None
            assert word not in index
            with pytest.raises(KeyError):
                index[word]
        for k in (-1, space.dim):
            with pytest.raises(IndexError):
                space.word(k)


def test_space_size_is_arithmetic():
    # 100,010,001 words, none of them built
    space = TruncatedSpace.build(10000, 2)
    assert space.dim == 100_010_001
    assert space.index[(10000, 10000)] == space.dim - 1
    assert space.word(space.dim - 1) == (10000, 10000)
    assert space.index[(1,)] == 1 and space.index[(1, 1)] == 10001


@pytest.mark.parametrize("weights_n,space_n", [(2, 1), (2, 3)])
def test_weights_and_space_of_different_n_rejected(weights_n, space_n):
    ws = WeightSystem(weights_n, mu=(2, 3))
    space = TruncatedSpace.build(space_n, 3 if space_n == 1 else 2)
    message = "the weights have n=%d but the space has n=%d" % (weights_n, space_n)
    for build in (matrix_of, adjoint_defect):
        with pytest.raises(ValueError, match=message):
            build(ws, w((1,)), space)


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
    # n=1 L=14 and n=2 L=3 both have dim 15, on different bases
    m3 = matrix_of(WeightSystem.unit(1), w((1,)), TruncatedSpace.build(1, 14))
    m4 = matrix_of(ws2, w((1,)), TruncatedSpace.build(2, 3))
    assert m3.dim == m4.dim == 15
    with pytest.raises(ValueError, match="space mismatch"):
        commutator_matrix(m3, m4)


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
        assert np.array_equal(m.entries, matrix_by_columns(ws, g, space).entries)


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
        a = matrix_by_columns(ws, g, space).entries
        b = matrix_by_columns(ws, g.star(), space).entries
        assert adjoint_defect(ws, g, space) == np.abs(a - b.conj().T).max()


def test_projection_work_pinned(monkeypatch):
    # at n=2 L=6, b1*t2 + t1 + 1/2*b2 has 126 nonzeros in 127 columns, and
    # matrix_of applies the operator once, to the empty basis word.  The
    # splits: the operator splits its three terms once, and each term's
    # shift family comes from that split; and project_word splits t1, the
    # one theta-initial term, in the empty column.  The pairings:
    # the empty column pairs each of the three words with 1, and the
    # families' coefficients take the two kept tails, <t2, 1> for b1*t2
    # and <1, 1>, shared by t1 and b2
    splits, pairings, applied = [], [], []
    split_block, form_factors = projection.split_block, form.form_factors
    apply = ToeplitzOperator.apply

    def counted_split(word):
        splits.append(None)
        return split_block(word)

    def counted_pairing(f, g):
        pairings.append(None)
        return form_factors(f, g)

    def counted_apply(op, phi):
        applied.append(phi)
        return apply(op, phi)

    monkeypatch.setattr(projection, "split_block", counted_split)
    monkeypatch.setattr(form, "form_factors", counted_pairing)
    monkeypatch.setattr(ToeplitzOperator, "apply", counted_apply)
    g = parse_element("b1*t2 + t1 + 1/2*b2", 2)
    m = matrix_of(WeightSystem(2, mu=(2, 3)), g, TruncatedSpace.build(2, 6))
    assert len(m.values) == 126
    assert applied == [AlgebraElement.one()]
    assert (len(splits), len(pairings)) == (4, 5)


def perfbench_workloads():
    """perfbench's workloads module, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_symbol_pool():
    """The matrix workload's symbols, read from perfbench's workloads module."""
    return perfbench_workloads().symbol_pool()


def outcome(build, ws, g, space):
    """A matrix as its exact arrays and both exports, or the error it raised."""
    try:
        m = build(ws, g, space)
    except ValueError as e:
        return "error", str(e)
    return m.rows.tobytes(), m.cols.tobytes(), m.values.tobytes(), to_csv(m), to_json(m)


# criterion 8's witnesses: identity 1 fails at g = t1*b1*t1, identity 2 at g = b1
WITNESSES = ("t1*b1*t1", "b1", "b1*t1*b1", "t1")
ORACLE_SIZES = ((1, 10), (2, 8), (3, 5))
ORACLE_WEIGHTS = ("unit", (2, 3, 5), (Fraction(1, 3), 2, Fraction(7, 5)), "custom")


def oracle_case(n, top, weights):
    """Weights and symbols on which matrix_of must match the column loop.

    The symbols: perfbench's pool (n >= 2), the witnesses, two terms on
    one shift family (t1 and t1*t1*b1, t1 and t1*t2*b2), a scalar, zero
    and seeded random ones.  The custom table reaches past the
    truncation as far as the symbols' theta runs do.
    """
    rnd = random.Random(repr((n, top, weights)))
    texts = list(WITNESSES) + ["t1 + t1*t1*b1", "2 - i", "0"]
    if n >= 2:
        texts += perfbench_symbol_pool() + ["t1 + t1*t2*b2"]
    symbols = [parse_element(t, n) for t in texts]
    for _ in range(3):
        h = random_holomorphic(rnd, n, max_len=3)
        symbols += [h, h.star(), random_element(rnd, n, max_len=4)]
    if weights == "unit":
        ws = WeightSystem.unit(n)
    elif weights == "custom":
        ws = custom_weights(rnd, n, top + 4)
    else:
        ws = WeightSystem(n, mu=weights[:n])
    return ws, symbols


@pytest.mark.parametrize("weights", ORACLE_WEIGHTS)
@pytest.mark.parametrize("n,top", ORACLE_SIZES)
def test_matrix_of_matches_column_loop(n, top, weights):
    ws, symbols = oracle_case(n, top, weights)
    for degree in range(top + 1):
        space = TruncatedSpace.build(n, degree)
        for g in symbols:
            want = outcome(matrix_by_columns, ws, g, space)
            assert want[0] != "error", want
            assert outcome(matrix_of, ws, g, space) == want


def perfbench_pair():
    """The matrix workload's two matrices at its default seed, n=2 L=10 mu=2,3."""
    space, ws = TruncatedSpace.build(2, 10), WeightSystem(2, mu=(2, 3))
    s1, s2 = perfbench_workloads().Matrix(0).symbols
    return matrix_of(ws, parse_element(s1, 2), space), matrix_of(ws, parse_element(s2, 2), space)


def commutator_with_negative_zeros():
    c = commutator_matrix(*perfbench_pair())
    assert np.any((c.values.imag == 0) & np.signbit(c.values.imag))
    return c


# special floats as real and imaginary parts, some repeated
SPECIAL_VALUES = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, complex(math.nan, -math.inf)]
SPECIAL_VALUES += [complex(0.0, -0.0), complex(-0.0, -0.0), complex(1e308, 5e-324), -0.0]
SPECIAL_VALUES += [complex(-math.inf, math.nan), complex(0.1, -0.1)]

EXPORT_CASES = {
    "perfbench symbol 1": lambda: perfbench_pair()[0],
    "perfbench symbol 2": lambda: perfbench_pair()[1],
    "perfbench commutator": commutator_with_negative_zeros,
    "unit weights": lambda: matrix_of(
        WeightSystem.unit(2), parse_element("t1*b2 - i*t2 + 1/3", 2), TruncatedSpace.build(2, 4)
    ),
    "custom weights": lambda: matrix_of(
        custom_weights(random.Random(23), 2, 6),
        parse_element("b1*t2 + t1 + 1/2*b2 + (2/3)i*t2*b2", 2),
        TruncatedSpace.build(2, 4),
    ),
    "symbol 0": lambda: matrix_of(
        WeightSystem.unit(2), AlgebraElement.zero(), TruncatedSpace.build(2, 3)
    ),
    "degree 0": lambda: matrix_of(WeightSystem.unit(2), w((1,)), TruncatedSpace.build(2, 0)),
    "special floats": lambda: matrixrep.OperatorMatrix(
        TruncatedSpace.build(2, 3),
        'the "special" floats',
        np.arange(len(SPECIAL_VALUES)),
        np.arange(len(SPECIAL_VALUES))[::-1].copy(),
        np.array(SPECIAL_VALUES, dtype=complex),
    ),
}


@pytest.mark.parametrize("case", EXPORT_CASES)
def test_exports_match_entry_by_entry_formatting(case):
    m = EXPORT_CASES[case]()
    if case in ("symbol 0", "degree 0"):
        assert len(m.values) == 0
    assert to_csv(m) == csv_by_entries(m)
    assert to_json(m) == json_by_entries(m)


# any float, with the repeats an export keys on: a few distinct parts per
# array, often both zeros or a zero and the smallest subnormal
_edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
_parts = st.lists(st.one_of(_edges, st.floats()), min_size=1, max_size=6)


@st.composite
def _drawn_matrices(draw):
    re_pool, im_pool = draw(_parts), draw(_parts)
    size = draw(st.integers(0, 40))
    values = np.empty(size, dtype=complex)
    values.real = draw(st.lists(st.sampled_from(re_pool), min_size=size, max_size=size))
    values.imag = draw(st.lists(st.sampled_from(im_pool), min_size=size, max_size=size))
    index = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size)
    rows, cols = (np.array(draw(index), dtype=np.int64) for _ in range(2))
    space = TruncatedSpace.build(draw(st.integers(1, 3)), draw(st.integers(0, 4)))
    return matrixrep.OperatorMatrix(space, draw(st.text(max_size=8)), rows, cols, values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_drawn_matrices())
def test_exports_match_entry_by_entry_formatting_on_any_floats(m):
    assert to_csv(m) == csv_by_entries(m)
    assert to_json(m) == json_by_entries(m)


# (symbol, its families and their terms): four terms in two families, and
# one family whose sum cancels under mu=2,3, where w(t2) <1, 1> = 3
FAMILY_SYMBOLS = (
    ("t1*t2*b2 + t1 + t1*b1 + 1", {((1,), ()): [0, 1], ((), ()): [2, 3]}),
    ("t1*t2*b2 - 3*t1", {((1,), ()): [0, 1]}),
)


def raised(f, *args):
    try:
        f(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("weights", ["mu23", "custom"])
@pytest.mark.parametrize("text,families", FAMILY_SYMBOLS)
def test_apply_and_matrix_read_the_families(text, families, weights):
    if weights == "mu23":
        ws = WeightSystem(2, mu=(2, 3))
    else:
        ws = custom_weights(random.Random(22), 2, 7)
    g = parse_element(text, 2)
    op = ToeplitzOperator(g, ws)
    assert op.families == families
    images = []
    for u in (u for m in range(5) for u in itertools.product((1, 2), repeat=m)):
        want = AlgebraElement.zero()
        for word, c in (w(u) * g).items():
            want = want + c * projection.project_oracle(ws, word)
        assert op.apply(w(u)) == want
        images.append(want)
    m = matrix_of(ws, g, TruncatedSpace.build(2, 4))
    cancels = (text, weights) == ("t1*t2*b2 - 3*t1", "mu23")
    assert any(images) == (len(m.values) > 0) == (not cancels)
    # an entry above n raises as the termwise projection does, even
    # where the family's kept sum is zero
    message = raised(project_pairwise, ws, w((1, 3)), g)
    assert message is not None and raised(op.apply, w((1, 3))) == message


def test_custom_family_ratio_varies():
    # t1 and t1*t1*b1 share the family (t1, ()): column u goes to row u + t1.
    # Under a custom table the exact coefficient 1 + w(u t1 t1) / w(u t1)
    # changes along it, so each entry takes its own two weights
    rnd = random.Random(8)
    ws = custom_weights(rnd, 1, 9)
    g = parse_element("t1 + t1*t1*b1", 1)
    space = TruncatedSpace.build(1, 7)
    ratios = {ws.weight((1,) * (m + 2)) / ws.weight((1,) * (m + 1)) for m in range(1, 7)}
    assert len(ratios) > 1
    assert outcome(matrix_of, ws, g, space) == outcome(matrix_by_columns, ws, g, space)


BIG = Scalar(10**400)
HUGE = Scalar(10**308)
RATIO_TABLE = {(1,): 10**200, (1, 1): Fraction(1, 10**200), (1, 1, 1): 1}


WORDS_2_3 = [i for m in range(1, 4) for i in itertools.product((1, 2), repeat=m)]


def scaled(c, text, n=1):
    return c * parse_element(text, n)


# (n, degree, weights, symbol, the start of the error's text)
ERROR_CASES = [
    # complex(c) overflows in the empty column, then in a family's
    (1, 2, (1,), scaled(BIG, "t1"), "matrix entry (t1, 1) is outside float range"),
    (1, 2, (1,), scaled(BIG, "b1"), "matrix entry (1, t1) is outside float range"),
    # listed against column order: b1's family starts a column earlier
    (1, 3, (1,), scaled(BIG, "b1*b1") + scaled(BIG, "b1"), "matrix entry (1, t1) "),
    # a finite coefficient whose entry overflows, in a family
    (1, 2, {(1,): 1, (1, 1): 100, (1, 1, 1): 1}, scaled(HUGE, "t1"),
     "matrix entry (t1*t1, t1) "),
    # two failing entries in column t1: the first family's is named
    (1, 2, {(1,): 1, (1, 1): 10**100, (1, 1, 1): 1},
     scaled(Scalar(10**300), "t1") + scaled(BIG, "b1"), "matrix entry (t1*t1, t1) "),
    (1, 2, {(1,): 1, (1, 1): 10**100, (1, 1, 1): 1},
     scaled(BIG, "b1") + scaled(Scalar(10**300), "t1"), "matrix entry (1, t1) "),
    # t1 and t1*t1*b1 share the first family, listed ahead of b1's
    (1, 2, {(1,): 1, (1, 1): 10**100, (1, 1, 1): 1, (1, 1, 1, 1): 1},
     scaled(Scalar(10**300), "t1") + scaled(BIG, "b1") + parse_element("t1*t1*b1", 1),
     "matrix entry (t1*t1, t1) "),
    # a ratio and an entry in column t1*t1, in the order of their families
    (1, 3, RATIO_TABLE, parse_element("b1", 1) + scaled(BIG * BIG, "b1*b1"),
     "weight ratio w(t1)/w(t1*t1) is outside float range"),
    (1, 3, RATIO_TABLE, scaled(BIG * BIG, "b1*b1") + parse_element("b1", 1),
     "matrix entry (1, t1*t1) "),
    # a ratio in column t1, ahead of the undefined w(t1^4) of column t1^3
    (1, 3, RATIO_TABLE, parse_element("t1", 1), "weight ratio w(t1*t1)/w(t1) "),
    # a coefficient that raises in column t1 (t2 at n=1), ahead of an
    # entry of column t1*t1 and of an entry of its own family
    (1, 2, (1,), scaled(BIG, "b1*b1") + parse_element("t2*b2*b1", 2),
     "multi-index entry out of range: 2"),
    (1, 2, (1,), scaled(BIG, "b1") + parse_element("t2*b2*b1", 2),
     "multi-index entry out of range: 2"),
    # two families' coefficients raise in column t2: the family of the
    # first term, which has the zero tail <t1, 1>, is taken first, so its
    # second term's missing w(t2*t1*t2) is named, not t2*b2's w(t2*t2)
    (2, 1, {i: 1 for i in WORDS_2_3 if i not in ((2, 1, 2), (2, 2))},
     parse_element("t1*t2*b2*t1 + t2*b2 + t1*t2*b2", 2),
     "weight undefined for multi-index (2, 1, 2)"),
]


@pytest.mark.parametrize("n,degree,weights,g,message", ERROR_CASES)
def test_error_names_the_column_loop_entry(n, degree, weights, g, message):
    if isinstance(weights, dict):
        ws = WeightSystem.custom(n, weights)
    else:
        ws = WeightSystem(n, mu=weights)
    space = TruncatedSpace.build(n, degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        got = outcome(matrix_of, ws, g, space)
    assert got == outcome(matrix_by_columns, ws, g, space)
    assert got[0] == "error" and got[1].startswith(message)


@pytest.mark.parametrize(
    "mu",
    [(1, 1), (2, 3), (Fraction(1, 3), 2), (Fraction(7, 5), Fraction(3, 11)),
     (10**200,), (Fraction(1, 10**400),), (10**200, Fraction(1, 10**150))],
)
def test_product_weights_match_fraction_floats(mu):
    # one correctly rounded division a word, as float(Fraction) takes, with
    # inf where it overflows and 0.0 where it underflows
    n = len(mu)
    ws = WeightSystem(n, mu=mu)
    space = TruncatedSpace.build(n, 8 if n == 2 else 4)
    got = matrixrep._product_weights(ws.mu, space.max_length)
    want = []
    for i in space.basis:
        try:
            want.append(float(ws.weight(i)).hex())
        except OverflowError:
            want.append(math.inf.hex())
    assert [w.hex() for w in got.tolist()] == want
