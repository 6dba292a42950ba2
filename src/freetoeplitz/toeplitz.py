"""Toeplitz operators, ladder operators and the property checkers.

An operator is represented by its symbol; its action on a holomorphic
element phi is the projection of phi times the symbol.  The checkers
verify (or exhibit the failure of) the adjoint and star-compatibility
identities, exactly, with seeded reproducible sampling where sampling is
involved.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .expr import format_element, format_scalar, format_word
from .freealg import AlgebraElement, Scalar, word_star
from .projection import glue_partner, partner, project


class ToeplitzOperator:
    """Right-symbol Toeplitz operator phi -> P(phi * symbol)."""

    def __init__(self, symbol, weights):
        self.symbol = symbol
        self.weights = weights

    def apply(self, phi):
        if not phi.is_holomorphic():
            raise ValueError("argument must lie in the holomorphic subalgebra")
        return project(self.weights, phi * self.symbol)

    __call__ = apply


def creation(ws, j, phi):
    """Append the j-th holomorphic generator; equals T_{t_j}."""
    _check_index(ws, j)
    op = ToeplitzOperator(AlgebraElement.from_word((j,)), ws)
    return op.apply(phi)


def annihilation(ws, j, phi):
    """Strip a trailing t_j with its weight ratio; equals T_{b_j}."""
    _check_index(ws, j)
    op = ToeplitzOperator(AlgebraElement.from_word((-j,)), ws)
    return op.apply(phi)


def _check_index(ws, j):
    if not 1 <= j <= ws.n:
        raise ValueError("generator index out of range: %d (n=%d)" % (j, ws.n))


@dataclass(frozen=True)
class AdjointViolation:
    f1: AlgebraElement
    f2: AlgebraElement
    lhs: Scalar
    rhs: Scalar


def format_adjoint_violations(violations):
    """One violation per line: f1 <TAB> f2 <TAB> lhs <TAB> rhs."""
    return "\n".join(
        "%s\t%s\t%s\t%s"
        % (format_element(v.f1), format_element(v.f2),
           format_scalar(v.lhs), format_scalar(v.rhs))
        for v in violations
    )


# small pool of exact coefficients for sampled elements
_COEFF_POOL = (
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(Fraction(1, 2)),
    Scalar(0, 1),
    Scalar(0, -1),
    Scalar(1, 1),
    Scalar(Fraction(-1, 3), Fraction(1, 2)),
)


def random_holomorphic(rnd, n, max_terms=4, max_len=6):
    """Seeded random element of the holomorphic subalgebra."""
    return _random_terms(rnd, n, max_terms, max_len, holomorphic=True)


def random_element(rnd, n, max_terms=4, max_len=6):
    """Seeded random element of the full algebra."""
    return _random_terms(rnd, n, max_terms, max_len, holomorphic=False)


def _random_terms(rnd, n, max_terms, max_len, holomorphic):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        length = rnd.randint(0, max_len)
        # the kind of a letter is drawn before its index, never if holomorphic
        w = tuple(
            (1 if holomorphic else rnd.choice((1, -1))) * rnd.randint(1, n)
            for _ in range(length)
        )
        c = rnd.choice(_COEFF_POOL)
        terms[w] = terms.get(w, Scalar(0)) + c
    return AlgebraElement(terms)


def symmetry_suite(ws, trials, max_len, seed):
    """Number of sampled pairs (a, b) with conj(<a, b>) != <b, a>."""
    rnd = random.Random(seed)
    bad = 0
    for _ in range(trials):
        a = random_element(rnd, ws.n, max_len=max_len)
        b = random_element(rnd, ws.n, max_len=max_len)
        if ws.form(a, b).conjugate() != ws.form(b, a):
            bad += 1
    return bad


def check_adjoint(ws, g, trials=500, seed=0):
    """Sample <f1, T_g f2> against <T_{g*} f1, f2> on holomorphic pairs.

    Returns the list of AdjointViolation.  For symbols in the
    holomorphic subalgebra or its conjugate it must come back empty; for
    general symbols it may not.
    """
    rnd = random.Random(seed)
    tg = ToeplitzOperator(g, ws)
    tgs = ToeplitzOperator(g.star(), ws)
    violations = []
    for _ in range(trials):
        f1 = random_holomorphic(rnd, ws.n)
        f2 = random_holomorphic(rnd, ws.n)
        lhs = ws.form(f1, tg.apply(f2))
        rhs = ws.form(tgs.apply(f1), f2)
        if lhs != rhs:
            violations.append(AdjointViolation(f1, f2, lhs, rhs))
    return violations


def adjoint_suite(ws, trials, max_len, seed):
    """check_adjoint on one sampled symbol per 50 trials (at least one).

    Each symbol is holomorphic or, with probability 1/2, its star, so
    every returned violation is a failure of the adjoint theorem.
    """
    rnd = random.Random(seed)
    violations = []
    for _ in range(max(1, trials // 50)):
        g = random_holomorphic(rnd, ws.n, max_len=max_len)
        if rnd.random() < 0.5:
            g = g.star()
        violations += check_adjoint(ws, g, trials=50, seed=rnd.randint(0, 2**31))
    return violations


# the two canonical star-compatibility failures, as (prop, f1, f2, g)
# keys of CompatibilityViolation; both need n >= 2
COUNTEREXAMPLES = (
    (1, (1,), (1, 2), (-2, 1, -1)),
    (2, (1,), (1,), (2, -2)),
)


class CounterexampleValues(NamedTuple):
    ce1_lhs: Fraction
    ce1_rhs: Fraction
    ce2_lhs: Fraction
    ce2_rhs: Fraction

    @property
    def reproduced(self):
        """Both identities fail: a nonzero left side against zero."""
        return bool(self.ce1_lhs and self.ce2_lhs) and not (self.ce1_rhs or self.ce2_rhs)


def reproduce_counterexamples(ws):
    """The two star-compatibility failures, computed from the form.

    First: f1 = t1, f2 = t1*t2, g = b2*t1*b1 gives
    <f1, f2 g> = w(1,2) w(1) against <f1 g*, f2> = 0.  Second:
    f1 = f2 = t1, g = t2*b2 gives w(1,2) against 0.  Requires n >= 2.
    """
    if ws.n < 2:
        raise ValueError("counterexamples require n >= 2")
    values = []
    for prop, f1, f2, g in COUNTEREXAMPLES:
        rhs = (f1 + word_star(g), f2) if prop == 1 else (f1 + word_star(f2), g)
        values += [ws.form_words(f1, f2 + g), ws.form_words(*rhs)]
    return CounterexampleValues(*values)


@dataclass(frozen=True)
class CompatibilityViolation:
    """Failure of one of the two star-compatibility identities.

    prop 1 is <f1, f2 g> = <f1 g*, f2>; prop 2 is
    <f1, f2 g> = <f1 f2*, g>.  f1 and f2 are holomorphic words, g an
    arbitrary word.
    """

    prop: int
    f1: tuple
    f2: tuple
    g: tuple
    lhs: Fraction
    rhs: Fraction


def check_compatibility(n, max_len, ws):
    """Both identities on every triple within max_len, through candidates.

    f1 and f2 range over the holomorphic words and g over all words of
    length at most max_len, with len(f1) = len(f2) + balance(g): outside
    that class every side pairs to zero.  Each side pairs nonzero for at
    most one pair per (holomorphic word, g), so only those candidate
    pairs are evaluated, and every violation is among them:

    <f1, f2 g> fixes f1 = partner(f2 g); <f1 g*, f2> fixes
    f2 = partner(f1 g*), as word pairings are real and symmetric; and
    <f1 f2*, g> fixes f2 = glue_partner(f1, g).
    """
    letters = [c for j in range(1, n + 1) for c in (j, -j)]
    words = [
        w
        for r in range(max_len + 1)
        for w in itertools.product(letters, repeat=r)
    ]
    holo = [w for w in words if all(c > 0 for c in w)]
    violations = []
    for g in words:
        bal = sum(1 if c > 0 else -1 for c in g)
        gs = word_star(g)
        pairs = set()
        for f in holo:
            candidates = (
                (partner(f + g), f), (f, partner(f + gs)), (f, glue_partner(f, g))
            )
            pairs.update(p for p in candidates if None not in p)
        # violations come ordered by g, then f2, then f1
        for f1, f2 in sorted(pairs, key=lambda p: (len(p[1]), p[1], p[0])):
            if len(f1) != len(f2) + bal or max(len(f1), len(f2)) > max_len:
                continue
            lhs = ws.form_words(f1, f2 + g)
            rhs1 = ws.form_words(f1 + gs, f2)
            if lhs != rhs1:
                violations.append(CompatibilityViolation(1, f1, f2, g, lhs, rhs1))
            rhs2 = ws.form_words(f1 + word_star(f2), g)
            if lhs != rhs2:
                violations.append(CompatibilityViolation(2, f1, f2, g, lhs, rhs2))
    return violations


def compat_suite(ws, max_len):
    """check_compatibility with the pass rule of the compat suite.

    Returns (violations, passed, partial).  At n = 1 the suite passes
    only on an empty list; the identities are false there too, so it
    fails.  At n >= 2 every canonical counterexample whose words fit in
    max_len must be found; ``partial`` names those that do not fit, or
    is empty.
    """
    violations = check_compatibility(ws.n, max_len, ws)
    if ws.n == 1:
        return violations, not violations, ""
    found = {(v.prop, v.f1, v.f2, v.g) for v in violations}
    unreached = [key for key in COUNTEREXAMPLES if max(map(len, key[1:])) > max_len]
    passed = found.issuperset(key for key in COUNTEREXAMPLES if key not in unreached)
    partial = " or ".join(
        "the identity-%d counterexample (f1 = %s, f2 = %s, g = %s)"
        % (key[0], *map(format_word, key[1:]))
        for key in unreached
    )
    if partial:
        partial = "partial check: max_len=%d cannot reach %s" % (max_len, partial)
    return violations, passed, partial
