"""Time two layers: Toeplitz columns and the sesquilinear form.

Prints microseconds per ``ToeplitzOperator.apply`` column, over every
basis word of the truncation as ``matrix_of`` does, and per
``WeightSystem.form`` call on seeded pairs of elements; each figure is
the best of REPEAT passes.  Every pass builds a fresh weight system
and operator, as one ``fta matrix`` run does.

Usage: PYTHONPATH=src python3 benchmarks/bench_layers.py
"""

import platform
import random
import time

from freetoeplitz.expr import parse_element
from freetoeplitz.form import WeightSystem
from freetoeplitz.freealg import AlgebraElement
from freetoeplitz.matrixrep import TruncatedSpace
from freetoeplitz.toeplitz import ToeplitzOperator, random_element, random_holomorphic

SYMBOL = "b1*t2 + t1 + 1/2*b2"
MU = (2, 3)
DEGREE = 10
PAIRS = 1000
REPEAT = 5
SEED = 0


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


if __name__ == "__main__":
    main()
