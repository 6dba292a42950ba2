"""Word-pairing kernel.

``form_factors(f, g)`` evaluates the structural part of the recursive
sesquilinear pairing of two words.  The pairing of two words is either
zero or a product of weights of multi-indices; this function returns the
list of those multi-indices (possibly empty, meaning the value 1) or
``None`` when the pairing vanishes.  Weight lookup and multiplication
stay in the caller so the same kernel serves every weight system.

The recursion is run as a loop: each step strips the leading
same-kind/opposite-kind run pair off both words (or off the single
remaining word once the other side is exhausted), compares the glued
multi-indices, and records the surviving weight factor.  Words whose
first letters have opposite kinds pair to zero; bar-initial words are
handled by reading letter signs relative to the first letter's kind,
with the same weight factors as the theta-initial case.
"""

from __future__ import annotations

from .freealg import run_ends

# named in benchmark reports; this pure-Python kernel is the only one
KERNEL_IMPL = "pure"


def form_factors(f, g):
    """Weight-factor multi-indices of the pairing of words f and g.

    Returns a list of multi-index tuples whose weights multiply to the
    pairing value, or None when the pairing is zero.
    """
    factors = []
    while True:
        if not f:
            if not g:
                return factors
            f, g = g, f  # one-sided case; the pairing of words is real
        if not g:
            h = f
            s = 1 if h[0] > 0 else -1
            while h:
                p, q = run_ends(h)
                if q - p != p:
                    return None
                # leading run must mirror the following opposite run
                for t in range(p):
                    if h[t] != -h[q - 1 - t]:
                        return None
                factors.append(tuple(h[t] * s for t in range(p)))
                h = h[q:]
            return factors
        if (f[0] > 0) != (g[0] > 0):
            return None
        s = 1 if f[0] > 0 else -1
        pf, qf = run_ends(f)
        pg, qg = run_ends(g)
        # glue f's head with g's reversed mid and vice versa
        left = tuple(f[t] * s for t in range(pf)) + tuple(
            -g[t] * s for t in range(qg - 1, pg - 1, -1)
        )
        right = tuple(g[t] * s for t in range(pg)) + tuple(
            -f[t] * s for t in range(qf - 1, pf - 1, -1)
        )
        if left != right:
            return None
        factors.append(left)
        f = f[qf:]
        g = g[qg:]
