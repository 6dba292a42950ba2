"""Time the word-pairing kernel in microseconds per pair.

Usage: python3 benchmarks/bench_kernel.py [--pairs N] [--max-len L]
"""

import argparse
import random
import time

from freetoeplitz import kernel as _pure

# perfbench/worker.py reads make_pairs, bench, _pure.form_factors and
# _speedups; there is no compiled kernel, so _speedups is None
_speedups = None


def make_pairs(count, max_len, seed=0):
    rnd = random.Random(seed)
    pairs = []
    for _ in range(count):
        f = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, 3)
            for _ in range(rnd.randint(0, max_len))
        )
        g = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, 3)
            for _ in range(rnd.randint(0, max_len))
        )
        pairs.append((f, g))
    # mirror-heavy pairs that actually recurse, not just die on the
    # first letter comparison
    for _ in range(count // 4):
        i = tuple(rnd.randint(1, 3) for _ in range(rnd.randint(1, max_len // 2)))
        mirror = i + tuple(-c for c in reversed(i))
        pairs.append((mirror, mirror))
    return pairs


def bench(fn, pairs, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for f, g in pairs:
            fn(f, g)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=200000)
    ap.add_argument("--max-len", type=int, default=10)
    args = ap.parse_args()

    pairs = make_pairs(args.pairs, args.max_len)
    t = bench(_pure.form_factors, pairs)
    print("%.3f s  (%.2f us/pair)" % (t, 1e6 * t / len(pairs)))


if __name__ == "__main__":
    main()
