"""Time three layers: Toeplitz columns, the sesquilinear form and exact scalars.

Prints microseconds per ``ToeplitzOperator.apply`` column, over every
basis word of the truncation as ``matrix_of`` does, per
``WeightSystem.form`` call on seeded pairs of elements, and per
``Scalar`` product and sum on fixed Gaussian rationals; each figure is
the best of REPEAT passes.  Every apply and form pass builds a fresh
weight system and operator, as one ``fta matrix`` run does.

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
from freetoeplitz.matrixrep import TruncatedSpace
from freetoeplitz.toeplitz import ToeplitzOperator, random_element, random_holomorphic

SYMBOL = "b1*t2 + t1 + 1/2*b2"
MU = (2, 3)
DEGREE = 10
PAIRS = 1000
REPEAT = 5
SEED = 0
# Scalar operations per pass, on one real and two complex values
SCALAR_OPS = 100000
REAL = Fraction(2, 3)
COMPLEX = ((Fraction(-1, 3), Fraction(1, 2)), (Fraction(5, 7), Fraction(1, 9)))


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
    t, cols = bench_columns()
    print("apply   %8.2f us/column  (%s, n=2 L=%d mu=2,3, %d columns)"
          % (1e6 * t / cols, SYMBOL, DEGREE, cols))
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
