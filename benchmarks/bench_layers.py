"""Time six layers: spaces, matrices, Toeplitz columns, compat, the form and exact scalars.

Prints microseconds per ``TruncatedSpace.build`` call at n=2 and the
degrees in SPACES, milliseconds per ``matrix_of`` call on fixed symbols and
truncations, microseconds per ``ToeplitzOperator.apply`` column, over
every basis word of the truncation, milliseconds per
``check_compatibility`` call at the three sizes of perfbench's compat
workload, microseconds per ``WeightSystem.form`` call on seeded pairs of
elements, and per ``Scalar`` product and sum on fixed Gaussian
rationals; each figure is the best of REPEAT passes.  Every matrix,
apply, compat and form pass builds a fresh weight system, and the apply
pass a fresh operator, as one ``fta`` run does.

Usage: PYTHONPATH=src python3 benchmarks/bench_layers.py
"""

import platform
import random
import time
import timeit
from fractions import Fraction

from freetoeplitz.expr import parse_element
from freetoeplitz.form import WeightSystem
from freetoeplitz.freealg import AlgebraElement, Scalar
from freetoeplitz.matrixrep import TruncatedSpace, matrix_of
from freetoeplitz.toeplitz import (
    ToeplitzOperator,
    check_compatibility,
    random_element,
    random_holomorphic,
)

SYMBOL = "b1*t2 + t1 + 1/2*b2"
MU = (2, 3)
DEGREE = 10
# the degree of each TruncatedSpace.build line, at n=2
SPACES = (10, 14)
# (symbol, degree) for each matrix_of line, at n=2 mu=2,3
MATRICES = ((SYMBOL, DEGREE), ("t1", 14))
# (n, max_len, mu) for each check_compatibility line, as in perfbench's compat
COMPAT = ((2, 5, (1, 1)), (2, 4, (2, 3)), (1, 8, (1,)))
PAIRS = 1000
REPEAT = 5
SEED = 0
# Scalar operations per pass, on one real and two complex values
SCALAR_OPS = 100000
REAL = Fraction(2, 3)
COMPLEX = ((Fraction(-1, 3), Fraction(1, 2)), (Fraction(5, 7), Fraction(1, 9)))


def bench_space(degree):
    """Best seconds for one TruncatedSpace.build call, and the space's dim."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        space = TruncatedSpace.build(2, degree)
        best = min(best, time.perf_counter() - t0)
    return best, space.dim


def bench_matrix(symbol, degree):
    """Best seconds for one matrix_of call, and the matrix's nonzero count."""
    g = parse_element(symbol, 2)
    space = TruncatedSpace.build(2, degree)
    best = float("inf")
    for _ in range(REPEAT):
        ws = WeightSystem(2, mu=MU)
        t0 = time.perf_counter()
        m = matrix_of(ws, g, space)
        best = min(best, time.perf_counter() - t0)
    return best, len(m.values)


def bench_columns():
    """Best seconds for one pass of apply over the basis, and the column count."""
    g = parse_element(SYMBOL, 2)
    columns = [AlgebraElement.from_word(k) for k in TruncatedSpace.build(2, DEGREE).basis]
    best = float("inf")
    for _ in range(REPEAT):
        op = ToeplitzOperator(g, WeightSystem(2, mu=MU))
        t0 = time.perf_counter()
        for phi in columns:
            op.apply(phi)
        best = min(best, time.perf_counter() - t0)
    return best, len(columns)


def bench_compat(n, max_len, mu):
    """Best seconds for one check_compatibility call, and its violation count."""
    best = float("inf")
    for _ in range(REPEAT):
        ws = WeightSystem(n, mu=mu)
        t0 = time.perf_counter()
        violations = check_compatibility(n, max_len, ws)
        best = min(best, time.perf_counter() - t0)
    return best, len(violations)


def bench_form(pairs):
    """Best seconds for one pass of form over the pairs."""
    best = float("inf")
    for _ in range(REPEAT):
        ws = WeightSystem(2, mu=MU)
        t0 = time.perf_counter()
        for a, b in pairs:
            ws.form(a, b)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scalar(stmt, x, y):
    """Best seconds for SCALAR_OPS evaluations of stmt on x and y."""
    return min(timeit.repeat(stmt, globals={"x": x, "y": y}, number=SCALAR_OPS, repeat=REPEAT))


def main():
    print("python %s" % platform.python_version())
    for degree in SPACES:
        t, dim = bench_space(degree)
        print("space   %8.2f us/build   (n=2 L=%d, dim %d)" % (1e6 * t, degree, dim))
    for symbol, degree in MATRICES:
        t, nonzeros = bench_matrix(symbol, degree)
        print("matrix  %8.2f ms/call    (%s, n=2 L=%d mu=2,3, %d nonzeros)"
              % (1e3 * t, symbol, degree, nonzeros))
    t, cols = bench_columns()
    print("apply   %8.2f us/column  (%s, n=2 L=%d mu=2,3, %d columns)"
          % (1e6 * t / cols, SYMBOL, DEGREE, cols))
    for n, max_len, mu in COMPAT:
        t, count = bench_compat(n, max_len, mu)
        print("compat  %8.2f ms/call    (n=%d L=%d mu=%s, %d violations)"
              % (1e3 * t, n, max_len, ",".join(map(str, mu)), count))
    rnd = random.Random(SEED)
    general = [(random_element(rnd, 2), random_element(rnd, 2)) for _ in range(PAIRS)]
    holo = [(random_holomorphic(rnd, 2), random_element(rnd, 2)) for _ in range(PAIRS)]
    for name, pairs in (("random_element pairs", general), ("holomorphic, random_element", holo)):
        t = bench_form(pairs)
        print("form    %8.2f us/call    (%s, n=2 mu=2,3, %d pairs)"
              % (1e6 * t / len(pairs), name, len(pairs)))
    real, (u, v) = Scalar(REAL), (Scalar(*c) for c in COMPLEX)
    for what, stmt, x, y in (
        ("product", "x * y", real, u),
        ("product", "x * y", u, v),
        ("sum    ", "x + y", u, v),
    ):
        kind = "one real operand" if x is real else "both complex"
        t = bench_scalar(stmt, x, y)
        print("scalar  %8.3f us/%s (%s, %s)" % (1e6 * t / SCALAR_OPS, what, kind, stmt))


if __name__ == "__main__":
    main()
