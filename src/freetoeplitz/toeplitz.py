"""Toeplitz operators, ladder operators and the property checkers.

An operator (``projection.ToeplitzOperator``) is represented by its
symbol; its action on a holomorphic element phi is the projection of phi
times the symbol.  The checkers verify (or exhibit the failure of) the
adjoint and star-compatibility identities, exactly, with seeded
reproducible sampling where sampling is involved.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .expr import format_element, format_scalar, format_word
from .freealg import AlgebraElement, Scalar, balance, swap_alphabet, word_star
from .kernel import glue_step
# perfbench/test_tracer.py checks that its tracer wraps toeplitz.project
from .projection import ToeplitzOperator, _head, partner, partner_families, project  # noqa: F401


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
        prev = terms.get(w)
        terms[w] = c if prev is None else prev + c
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
# the smallest failures at n = 1, as the same keys
N1_WITNESSES = (
    (1, (1,), (), (1, -1, 1)),
    (2, (1,), (1, 1), (-1,)),
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


def _glued(block, word):
    """(factor, suffix) of the glue step that exhausts block, or (None, None) if it fails."""
    step = glue_step(block, word)
    return (None, None) if step is None else (step[0], step[2])


def compat_families(g):
    """The candidate pairs of ``compat_pairs`` for the word g, unexpanded.

    Each side of the identities pairs a one-block word with another
    word: f1 in <f1, f2 g>, f2 in <f1 g*, f2> and f1 f2* in <f1 f2*, g>.
    The kernel's first glue step exhausts that block and leaves a factor
    and a suffix of g or g*, so the side is w(factor) <suffix, 1>.  With
    (t, r, rest) = _head(g) and (t', r', rest') = _head(g*), a side-1
    family member has the factor f1 + r and the suffix rest, a side-2
    member f2 + r' and rest', and a side-4 member, for g empty or
    theta-initial with first block (t, r, rest), f1 + r and rest.  So
    one split of each head gives every member's (factor, suffix); only
    the few single pairs take a ``glue_step``.

    Only pairs with len(f1) = len(f2) + balance(g) are listed, outside
    which every side is zero.  Returns (singles, families), with sides
    numbered 0, 1, 2 for sides 1, 2 and 4: (f1, f2, side, (factor,
    suffix)) for each single pair, factor None where its glue step
    fails, and (a, b, c, e, side, suffix) for each family, whose pair
    (a + u + b, u + c) has the factor a + u + e for every holomorphic
    word u.
    """
    bal = balance(g)
    gs = word_star(g)
    t, r, rest = _head(g)
    ts, rs, rests = _head(gs)
    pairs1, fams1 = partner_families(t, r)
    pairs2, fams2 = partner_families(ts, rs)
    # singles as (f1, f2, side, block, word), glued below
    singles = [(f1, f2, 0, f1, f2 + g) for f1, f2 in pairs1]
    singles += [(f1, f2, 1, f2, f1 + gs) for f2, f1 in pairs2]
    families = [((), s1, s2, s1 + r, 0, rest) for s1, s2 in fams1]
    families += [((), s2, s1, s1 + rs, 1, rests) for s1, s2 in fams2]
    # <f1 f2*, g>: for g bar-initial f1 is empty and rev(f2) is the
    # partner of g with its letter kinds swapped; otherwise f1 + r = t + f2,
    # so f1 is t + u, or a proper prefix of t that r completes, and empty
    # only if r = t (else f2* is bar-initial)
    if g and g[0] < 0:
        f2 = partner(swap_alphabet(g))
        if f2 is not None:
            singles.append(((), f2[::-1], 2, swap_alphabet(f2), g))
    else:
        p = len(t)
        families.append((t, (), r, r, 2, rest))
        singles += [
            (t[:j], r[p - j:], 2, t[:j] + word_star(r[p - j:]), g)
            for j in range(p) if r[:p - j] == t[j:] and (j or r == t)
        ]
    singles = [
        (f1, f2, side, _glued(block, word))
        for f1, f2, side, block, word in singles if len(f1) == len(f2) + bal
    ]
    families = [fam for fam in families if len(fam[0]) + len(fam[1]) == len(fam[2]) + bal]
    return singles, families


def compat_pairs(g, holo):
    """The pairs (f1, f2) that check_compatibility evaluates for the word g.

    holo[r] lists the holomorphic words of length r, for r up to max_len.
    Each side of the identities pairs nonzero for at most one pair per
    holomorphic word: side 1, <f1, f2 g>, fixes f1 = partner(f2 g);
    side 2, <f1 g*, f2>, fixes f2 = partner(f1 g*), as word pairings are
    real and symmetric; and side 4, <f1 f2*, g>, fixes f2 once f1 is
    glued to g's head run.  ``compat_families`` lists each side's pairs
    from g's head, in families (a + u + b, u + c) over holomorphic u,
    and they are kept within max_len, outside which every side is zero.
    Returns (f1, f2, sides) triples sorted by f2, then f1, where sides
    holds, for sides 1, 2 and 4 in turn, None where that side did not
    list the pair, which then pairs to zero, and else the side's
    (factor, suffix) from ``compat_families``.
    """
    max_len = len(holo) - 1
    singles, families = compat_families(g)
    sides = {}
    for f1, f2, i, closed in singles:
        if max(len(f1), len(f2)) <= max_len:
            sides.setdefault((f1, f2), [None, None, None])[i] = closed
    for a, b, c, e, i, suffix in families:
        for length in range(max_len - max(len(a) + len(b), len(c)) + 1):
            for u in holo[length]:
                pair = (a + u + b, u + c)
                entry = sides.get(pair)
                if entry is None:
                    entry = sides[pair] = [None, None, None]
                entry[i] = (a + u + e, suffix)
    return sorted(
        ((f1, f2, entry) for (f1, f2), entry in sides.items()),
        key=lambda t: (len(t[1]), t[1], t[0]),
    )


def check_compatibility(n, max_len, ws):
    """Both identities on every triple within max_len, through candidates.

    f1 and f2 range over the holomorphic words and g over all words of
    length at most max_len.  Only the pairs of ``compat_pairs`` are
    evaluated, and of each pair only the sides it lists, each as
    w(factor) <suffix, 1> from its (factor, suffix); every other side is
    zero.  Each suffix is paired with the empty word once per call.
    Weights are positive, so a listed side is zero only where its suffix
    pairs to zero with 1 or its glue step fails, and two sides are
    compared as ``Fraction``s only where both are nonzero.  Violations
    come ordered by g, then f2, then f1.
    """
    letters = [c for j in range(1, n + 1) for c in (j, -j)]
    holo = [list(itertools.product(range(1, n + 1), repeat=r)) for r in range(max_len + 1)]
    zero, one = Fraction(0), Fraction(1)
    tails = {}

    def value(closed):
        # a listed side's value, or None where it is zero
        factor, suffix = closed
        if factor is None:
            return None
        tail = tails.get(suffix)
        if tail is None:
            tail = ws.form_words(suffix, ())
            # kept as ``one`` when 1, so that its sides skip a product
            tail = tails[suffix] = one if tail == 1 else tail
        if not tail:
            return None
        weight = ws.weight(factor)
        return weight if tail is one else weight * tail

    violations = []
    for g in (w for r in range(max_len + 1) for w in itertools.product(letters, repeat=r)):
        for f1, f2, (x1, x2, x4) in compat_pairs(g, holo):
            lhs, rhs1, rhs2 = x1 and value(x1), x2 and value(x2), x4 and value(x4)
            if lhs is not rhs1 and (lhs is None or rhs1 is None or lhs != rhs1):
                violations.append(CompatibilityViolation(1, f1, f2, g, lhs or zero, rhs1 or zero))
            if lhs is not rhs2 and (lhs is None or rhs2 is None or lhs != rhs2):
                violations.append(CompatibilityViolation(2, f1, f2, g, lhs or zero, rhs2 or zero))
    return violations


def compat_suite(ws, max_len):
    """check_compatibility with the pass rule of the compat suite.

    Returns (violations, passed, partial).  At n = 1 the suite passes
    only on an empty list; the identities are false there too, so it
    fails once max_len reaches a witness.  At n >= 2 every canonical
    counterexample whose words fit in max_len must be found.  ``partial``
    names the counterexamples (``N1_WITNESSES`` at n = 1) that do not
    fit, or is empty.
    """
    violations = check_compatibility(ws.n, max_len, ws)
    keys = COUNTEREXAMPLES if ws.n > 1 else N1_WITNESSES
    unreached = [key for key in keys if max(map(len, key[1:])) > max_len]
    if ws.n == 1:
        passed = not violations
    else:
        found = {(v.prop, v.f1, v.f2, v.g) for v in violations}
        passed = found.issuperset(key for key in keys if key not in unreached)
    partial = " or ".join(
        "the identity-%d counterexample (f1 = %s, f2 = %s, g = %s)"
        % (key[0], *map(format_word, key[1:]))
        for key in unreached
    )
    if partial:
        partial = "partial check: max_len=%d cannot reach %s" % (max_len, partial)
    return violations, passed, partial
