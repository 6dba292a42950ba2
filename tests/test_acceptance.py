"""Acceptance suite: one test per criterion, printing a pass/fail line.

Criterion 8 records the exact refutation of the star-compatibility
identities at n=1.  Identity 1, <f1, f2 g> = <f1 g*, f2>, fails first
at f1 = t1, f2 = 1, g = t1*b1*t1 with 0 against w(1)^2; identity 2,
<f1, f2 g> = <f1 f2*, g>, fails already at f1 = t1, f2 = t1*t1, g = b1
with w(1,1) against 0.  The criterion asserts both witnesses and their
values, that the identity-1 failures are Toeplitz adjoint failures, and
that the candidate-driven checker drops no violation.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from freetoeplitz.expr import format_element, parse_element
from freetoeplitz.freealg import AlgebraElement, Scalar, theta_word, word_star
from freetoeplitz.form import WeightSystem
from freetoeplitz.matrixrep import (
    TruncatedSpace,
    adjoint_defect,
    commutator_matrix,
    matrix_of,
)
from freetoeplitz.projection import project, project_oracle, project_word
from freetoeplitz.scanproj import (
    LeftRightRightmost,
    Stochastic,
    monte_carlo_mean,
    scan_project,
)
from freetoeplitz.toeplitz import (
    ToeplitzOperator,
    annihilation,
    check_compatibility,
    creation,
    random_element,
    random_holomorphic,
    reproduce_counterexamples,
)

from conftest import all_words, compat_enumeration, random_word


def report(num, ok, detail=""):
    line = "ACCEPTANCE %2d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " — " + detail
    print(line)
    assert ok, line


def test_criterion_01_counterexample_reproduction():
    t0 = time.time()
    ok = reproduce_counterexamples(WeightSystem.unit(2)) == (1, 0, 1, 0)
    ok = ok and reproduce_counterexamples(WeightSystem(2, mu=(2, 3))) == (12, 0, 6, 0)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, "counterexamples exact, %.2fs" % elapsed)


def test_criterion_02_complex_symmetry():
    t0 = time.time()
    ws = WeightSystem(2, mu=(2, 3))
    words = list(all_words(2, 5))
    bad = 0
    fw = ws.form_words
    for a in range(len(words)):
        fa = words[a]
        for b in range(a, len(words)):
            if fw(fa, words[b]) != fw(words[b], fa):
                bad += 1
    rnd = random.Random(202)
    ws3 = WeightSystem(3, mu=(2, 3, Fraction(1, 2)))
    for _ in range(1000):
        f = random_word(rnd, 3, 8)
        g = random_word(rnd, 3, 8)
        if ws3.form(
            AlgebraElement.from_word(f), AlgebraElement.from_word(g)
        ).conjugate() != ws3.form(
            AlgebraElement.from_word(g), AlgebraElement.from_word(f)
        ):
            bad += 1
    elapsed = time.time() - t0
    report(2, bad == 0 and elapsed < 60, "%d violations, %.1fs" % (bad, elapsed))


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    ws = WeightSystem(2, mu=(2, 3))
    bad = 0
    for w in all_words(2, 7):
        if project_word(ws, w) != project_oracle(ws, w):
            bad += 1
    elapsed = time.time() - t0
    report(3, bad == 0 and elapsed < 120, "%d discrepancies, %.1fs" % (bad, elapsed))


def test_criterion_04_projection_properties():
    ws = WeightSystem(2, mu=(2, 3))
    rnd = random.Random(404)
    bad = 0
    for _ in range(500):
        a = random_element(rnd, 2, max_len=5)
        b = random_element(rnd, 2, max_len=5)
        p = project(ws, a)
        if not p.is_holomorphic():
            bad += 1
        if project(ws, p) != p:
            bad += 1
        phi = random_holomorphic(rnd, 2, max_len=5)
        if project(ws, phi) != phi:
            bad += 1
        if ws.form(project(ws, a), b) != ws.form(a, project(ws, b)):
            bad += 1
    report(4, bad == 0, "%d failures over 500 seeded elements" % bad)


def test_criterion_05_weak_adjoint():
    ws = WeightSystem.unit(2)
    holo = [w for w in all_words(2, 4) if all(c > 0 for c in w)]
    symbols = holo + [word_star(g) for g in holo if g]
    bad = 0
    for sym in symbols:
        g = AlgebraElement.from_word(sym)
        tg = ToeplitzOperator(g, ws)
        tgs = ToeplitzOperator(g.star(), ws)
        images = {f2: tg.apply(AlgebraElement.from_word(f2)) for f2 in holo}
        star_images = {f1: tgs.apply(AlgebraElement.from_word(f1)) for f1 in holo}
        for f1 in holo:
            e1 = AlgebraElement.from_word(f1)
            for f2 in holo:
                lhs = ws.form(e1, images[f2])
                rhs = ws.form(star_images[f1], AlgebraElement.from_word(f2))
                if lhs != rhs:
                    bad += 1
    g = AlgebraElement.from_word((-2, 1, -1))
    lhs = ws.form(
        AlgebraElement.from_word((1,)),
        ToeplitzOperator(g, ws).apply(AlgebraElement.from_word((1, 2))),
    )
    rhs = ws.form(
        ToeplitzOperator(g.star(), ws).apply(AlgebraElement.from_word((1,))),
        AlgebraElement.from_word((1, 2)),
    )
    witness = lhs == Scalar(1) and rhs == Scalar(0)
    report(
        5,
        bad == 0 and witness,
        "%d violations on P u P*; general-symbol witness %s" % (bad, witness),
    )


def test_criterion_06_ladder_formulas():
    ws = WeightSystem(2, mu=(2, 3))
    bad = 0
    for r in range(6):
        for i in itertools.product((1, 2), repeat=r):
            wi = AlgebraElement.from_word(theta_word(i))
            for j in (1, 2):
                k = i + (j,)
                ratio = ws.weight(k) / ws.weight(i)
                if annihilation(ws, j, AlgebraElement.from_word(theta_word(k))) != Scalar(
                    ratio
                ) * wi:
                    bad += 1
                if creation(ws, j, wi) != AlgebraElement.from_word(theta_word(k)):
                    bad += 1
                if (not i or i[-1] != j) and not annihilation(ws, j, wi).is_zero():
                    bad += 1
            if r == 0:
                for j in (1, 2):
                    if not annihilation(ws, j, AlgebraElement.one()).is_zero():
                        bad += 1
    report(6, bad == 0, "%d ladder failures" % bad)


def test_criterion_07_matrix_adjointness():
    t0 = time.time()
    ws = WeightSystem.unit(2)
    space = TruncatedSpace.build(2, 4)
    assert space.dim == 31
    rnd = random.Random(707)
    worst = 0.0
    for _ in range(20):
        g = random_holomorphic(rnd, 2, max_len=3)
        if rnd.random() < 0.5:
            g = g.star()
        worst = max(worst, adjoint_defect(ws, g, space))
    m1 = matrix_of(ws, AlgebraElement.from_word((1,)), space)
    m2 = matrix_of(ws, AlgebraElement.from_word((2,)), space)
    comm = float(np.abs(commutator_matrix(m1, m2).entries).max())
    elapsed = time.time() - t0
    report(
        7,
        worst <= 1e-12 and comm >= 1 - 1e-9 and elapsed < 30,
        "max defect %.2e, commutator max %.3f, %.1fs" % (worst, comm, elapsed),
    )


def test_criterion_08_n1_conjecture_evidence():
    t0 = time.time()
    v2 = check_compatibility(2, 5, WeightSystem.unit(2))
    found = {(v.prop, v.f1, v.f2, v.g) for v in v2}
    has_known = (1, (1,), (1, 2), (-2, 1, -1)) in found and (
        2,
        (1,),
        (1,),
        (2, -2),
    ) in found

    # n=1 refutes both identities.  The smallest witness of identity 1
    # gives 0 against w(1)^2, that of identity 2 gives w(1,1) against 0;
    # at mu=(2,) both weights are 4, so the values are the weights.
    w1 = (1, (1,), (), (1, -1, 1))
    w2 = (2, (1,), (1, 1), (-1,))
    ws1 = WeightSystem.unit(1)
    ws_mu2 = WeightSystem(1, mu=(2,))
    v1 = check_compatibility(1, 5, ws1)
    runs = (
        (v1, (0, 1), (1, 0)),
        (check_compatibility(1, 3, ws_mu2), (0, 4), (4, 0)),
    )
    witnesses = True
    for vs, value1, value2 in runs:
        values = {(v.prop, v.f1, v.f2, v.g): (v.lhs, v.rhs) for v in vs}
        witnesses = witnesses and values.get(w1) == value1
        witnesses = witnesses and values.get(w2) == value2

    # no identity-1 violation below the witness's length
    shortest = not any(v.prop == 1 for v in check_compatibility(1, 2, ws1))

    # every identity-1 violation has a mixed symbol and is an adjoint
    # failure <f1, P(f2 g)> != <P(f1 g*), f2> through the oracle projection
    prop1 = [v for v in v1 if v.prop == 1]
    adjoint_route = bool(prop1)
    for v in prop1:
        mixed = any(c > 0 for c in v.g) and any(c < 0 for c in v.g)
        f1 = AlgebraElement.from_word(v.f1)
        f2 = AlgebraElement.from_word(v.f2)
        lhs = ws1.form(f1, project_oracle(ws1, v.f2 + v.g))
        rhs = ws1.form(project_oracle(ws1, v.f1 + word_star(v.g)), f2)
        exact = lhs == Scalar(v.lhs) and rhs == Scalar(v.rhs)
        if not (mixed and exact and lhs != rhs):
            adjoint_route = False

    # the candidate-driven checker misses nothing
    checked = {
        (v.prop, v.f1, v.f2, v.g, v.lhs, v.rhs)
        for v in check_compatibility(1, 4, ws1)
    }
    unpruned = compat_enumeration(1, 4, ws1, prune=False)
    matches_oracle = checked == unpruned and len(unpruned) == 31

    elapsed = time.time() - t0
    detail = (
        "n=2 contains known counterexamples: %s; n=1 violations: %d "
        "(%d of identity 1, all confirmed as adjoint failures: %s); "
        "witnesses t1*b1*t1 and b1 exact: %s; none shorter for identity 1: "
        "%s; checker = unpruned enumeration at max_len 4: %s, %.1fs"
        % (
            has_known,
            len(v1),
            len(prop1),
            adjoint_route,
            witnesses,
            shortest,
            matches_oracle,
            elapsed,
        )
    )
    ok = has_known and witnesses and shortest and adjoint_route and matches_oracle
    report(8, ok and elapsed < 120, detail)


def test_criterion_09_scanning():
    lrr = LeftRightRightmost()
    ok = scan_project((1, 2, -2, -1), lrr).result == ()
    ok = ok and scan_project((-1, 1), lrr).is_zero
    ok = ok and scan_project((1, 2), lrr).result == (1, 2)
    ok = ok and scan_project((1, 2, -1), lrr).result == (2,)
    word = (1, 1, 2, -2, -1, 2)
    first = scan_project(word, lrr)
    deterministic = all(scan_project(word, lrr) == first for _ in range(100))
    freqs = monte_carlo_mean((-1,), (1,), Stochastic(0.5), trials=10000, seed=1)
    mc = abs(freqs.get((), 0.0) - 0.5) <= 0.02
    report(
        9,
        ok and deterministic and mc,
        "examples %s, deterministic %s, empirical freq %.3f"
        % (ok, deterministic, freqs.get((), 0.0)),
    )


def test_criterion_10_cli_contract():
    from freetoeplitz.cli import main

    rnd = random.Random(1010)
    bad = 0
    for _ in range(1000):
        terms = {}
        for _ in range(rnd.randint(1, 4)):
            w = tuple(
                rnd.choice((1, -1)) * rnd.randint(1, 2)
                for _ in range(rnd.randint(0, 5))
            )
            terms[w] = Scalar(
                Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)),
                Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)),
            )
        a = AlgebraElement(terms)
        if parse_element(format_element(a), 2) != a:
            bad += 1
    counter_ok = main(["check", "--suite", "counterexamples", "--n", "2"]) == 0
    malformed_ok = main(["form", "t1 +", "t1", "--n", "2"]) == 2
    report(
        10,
        bad == 0 and counter_ok and malformed_ok,
        "%d round-trip failures, counterexamples exit 0: %s, malformed exit 2: %s"
        % (bad, counter_ok, malformed_ok),
    )
