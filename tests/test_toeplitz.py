import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from freetoeplitz.freealg import AlgebraElement, Scalar, theta_word, word_star
from freetoeplitz import toeplitz
from freetoeplitz.form import WeightSystem
from freetoeplitz.kernel import glue_step
from freetoeplitz.projection import partner, project_word
from freetoeplitz.toeplitz import (
    CounterexampleValues,
    ToeplitzOperator,
    adjoint_suite,
    annihilation,
    check_adjoint,
    check_compatibility,
    compat_pairs,
    compat_suite,
    creation,
    format_adjoint_violations,
    random_element,
    random_holomorphic,
    reproduce_counterexamples,
    symmetry_suite,
)

from conftest import (
    all_words,
    compat_enumeration,
    compat_per_pair,
    compat_scan,
    custom_weights,
    project_pairwise,
)


def w(word):
    return AlgebraElement.from_word(word)


def test_apply_examples(ws2):
    op = ToeplitzOperator(w((2,)), ws2)
    assert op.apply(w((1,))) == w((1, 2))
    op = ToeplitzOperator(w((-2, 1, -1)), ws2)
    assert op.apply(w((1, 2))) == w((1,))
    op = ToeplitzOperator(AlgebraElement.one(), ws2)
    phi = w((1, 1, 2))
    assert op.apply(phi) == phi


def test_apply_rejects_non_holomorphic(ws2):
    op = ToeplitzOperator(w((1,)), ws2)
    with pytest.raises(ValueError, match="holomorphic"):
        op.apply(w((-1,)))


def _apply_expanded(ws, g, phi):
    # the product expanded first, then project_word summed term by term
    out = AlgebraElement.zero()
    for word, c in (phi * g).items():
        out = out + c * project_word(ws, word)
    return out


@pytest.mark.parametrize("weights", ["unit", "mu23", "custom"])
def test_apply_matches_expanded_product(weights):
    rnd = random.Random(31)
    ws = {
        "unit": WeightSystem.unit(2),
        "mu23": WeightSystem(2, mu=(2, 3)),
        "custom": custom_weights(rnd, 2, 9),
    }[weights]
    cancelled = 0
    for _ in range(200):
        phi = random_holomorphic(rnd, 2, max_len=3)
        g = random_element(rnd, 2, max_len=3)
        # phi (1 + t) times (t - t t) g drops every phi t t g word in the
        # expansion; random pairs alone almost never cancel
        t = w((rnd.randint(1, 2),))
        for f, h in ((phi, g), (phi * (w(()) + t), (t - t * t) * g)):
            assert ToeplitzOperator(h, ws).apply(f) == _apply_expanded(ws, h, f)
            # product words that cancel in the expansion but project nonzero
            product = f * h
            cancelled += sum(
                1 for wa in f.terms for wb in h.terms
                if wa + wb not in product.terms and project_word(ws, wa + wb)
            )
    # not vacuous: apply sums images of words that the expansion drops
    assert cancelled > 100


def _symbol_term_kind(wb):
    return "empty" if not wb else "bar" if wb[0] < 0 else "theta"


@pytest.mark.parametrize("weights", ["unit", "mu23", "custom"])
def test_prepared_apply_matches_pairwise_projection(weights):
    # one operator per symbol, applied to several phi, so that the split
    # terms and their kept tails serve many applications
    rnd = random.Random(43)
    ws = {
        "unit": WeightSystem.unit(2),
        "mu23": WeightSystem(2, mu=(2, 3)),
        "custom": custom_weights(rnd, 2, 7),
    }[weights]
    # b1*t2 after a trailing t1 passes the partner test with the zero
    # tail <t2, 1>; b1*t1 and t2*b2*t1*b1 have nonzero tails
    extra = w(()) + w((-1, 2)) + w((-1, 1)) + w((2, -2, 1, -1))
    hits = dict.fromkeys(("empty", "bar", "theta", "zero-tail", "empty phi"), 0)
    for _ in range(60):
        g = random_element(rnd, 2, max_terms=5, max_len=4) + extra
        op = ToeplitzOperator(g, ws)
        for _ in range(4):
            phi = random_holomorphic(rnd, 2, max_len=3) + w(())
            assert op.apply(phi) == project_pairwise(ws, phi, g)
            for wa in phi.terms:
                for wb in g.terms:
                    image = project_word(ws, wa + wb)
                    if not wa:
                        hits["empty phi"] += bool(image)
                    elif image:
                        hits[_symbol_term_kind(wb)] += 1
                    elif partner(wa + wb) is not None:
                        hits["zero-tail"] += 1
    # not vacuous: every kind of symbol term projects nonzero after a
    # nonempty phi word, and partner hits with a zero tail occur
    assert min(hits.values()) > 50, hits


def test_apply_undefined_weight_raises_as_pairwise():
    # b1*t2*b2 has the tail <t2*b2, 1> = w(2); after t2 it has no
    # partner, so a table without w(2) raises only where the partner
    # test passes, as projecting each pair of words does
    table = {i: 1 for r in range(1, 4) for i in itertools.product((1, 2), repeat=r)}
    del table[(2,)]
    ws = WeightSystem.custom(2, table)
    op = ToeplitzOperator(w((-1, 2, -2)), ws)
    assert op.apply(w((2,)) + w(())).is_zero()
    with pytest.raises(ValueError, match="weight undefined"):
        op.apply(w((1, 1)))
    # random tables, each without one weight: apply raises exactly when
    # the pairwise projection does, and agrees with it otherwise
    rnd = random.Random(47)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        table = {
            i: Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
            for r in range(1, 7)
            for i in itertools.product((1, 2), repeat=r)
        }
        del table[rnd.choice([i for i in table if len(i) <= 2])]
        ws = WeightSystem.custom(2, table)
        g = random_element(rnd, 2, max_len=3)
        phi = random_holomorphic(rnd, 2, max_len=3)
        try:
            expected = project_pairwise(ws, phi, g)
        except ValueError:
            expected = None
        op = ToeplitzOperator(g, ws)
        if expected is None:
            with pytest.raises(ValueError, match="weight undefined"):
                op.apply(phi)
        else:
            assert op.apply(phi) == expected
        outcomes[expected is None] += 1
    # not vacuous: both outcomes occur often
    assert min(outcomes.values()) > 20, outcomes


def test_apply_entry_out_of_range_raises_after_the_fold(ws23):
    # T_{t1} t3 = t3*t1 needs w(3, 1), which has no mu_3; under product
    # weights the kept coefficient of t1 is w(()) <(), 1>, and it must
    # not hide that, whether or not an earlier hit computed it
    for first in (None, w((2,))):
        op = ToeplitzOperator(w((1,)), ws23)
        if first is not None:
            assert op.apply(first) == Scalar(1) * w((2, 1))
        for phi in (w((3,)), w((2, 3)), w((3, 2)) + w((1,))):
            with pytest.raises(ValueError, match="multi-index entry out of range: 3"):
                op.apply(phi)
    # the entry may sit in i, with r as after b1, or in the symbol itself
    op = ToeplitzOperator(w((-1,)), ws23)
    assert op.apply(w((2, 1))) == Scalar(2) * w((2,))
    with pytest.raises(ValueError, match="out of range: 3"):
        op.apply(w((3, 1)))
    with pytest.raises(ValueError, match="out of range: 3"):
        ToeplitzOperator(w((3,)), ws23).apply(w((1,)))
    # a partner miss looks no weight up
    assert op.apply(w((3,))).is_zero()


def test_apply_sums_words_cancelled_in_the_expansion():
    # (1 + t1)(t1 - t1*t1) = t1 - t1*t1*t1: t1*t1 arises twice with
    # opposite signs and is projected twice, once from each pair
    ws = WeightSystem(1, mu=(2,))
    phi = w(()) + w((1,))
    g = w((1,)) - w((1, 1))
    assert (phi * g).terms.keys() == {(1,), (1, 1, 1)}
    assert ToeplitzOperator(g, ws).apply(phi) == w((1,)) - w((1, 1, 1))


def test_quantization_linear(ws23):
    rnd = random.Random(21)
    from freetoeplitz.toeplitz import random_element

    for _ in range(50):
        g = random_element(rnd, 2, max_len=4)
        h = random_element(rnd, 2, max_len=4)
        phi = random_holomorphic(rnd, 2, max_len=4)
        alpha = Scalar(Fraction(2, 3), 1)
        lhs = ToeplitzOperator(alpha * g + h, ws23).apply(phi)
        rhs = alpha * ToeplitzOperator(g, ws23).apply(phi) + ToeplitzOperator(
            h, ws23
        ).apply(phi)
        assert lhs == rhs


def test_creation(ws23):
    assert creation(ws23, 1, AlgebraElement.one()) == w((1,))
    assert creation(ws23, 1, w((2,))) == w((2, 1))
    with pytest.raises(ValueError):
        creation(ws23, 3, AlgebraElement.one())


def test_creation_zero_kernel(ws23):
    rnd = random.Random(8)
    for _ in range(100):
        phi = random_holomorphic(rnd, 2)
        if phi.is_zero():
            continue
        assert not creation(ws23, 1, phi).is_zero()


def test_creation_is_right_multiplication(ws23):
    rnd = random.Random(17)
    for _ in range(100):
        phi = random_holomorphic(rnd, 2)
        assert creation(ws23, 2, phi) == phi * w((2,))


def test_annihilation_ladder(ws23):
    # strips a trailing t_j with ratio w(i,j)/w(i)
    assert annihilation(ws23, 1, w((2, 1))) == Scalar(2) * w((2,))
    assert annihilation(ws23, 1, w((2,))).is_zero()
    assert annihilation(ws23, 1, AlgebraElement.one()).is_zero()
    assert annihilation(ws23, 2, AlgebraElement.one()).is_zero()


def test_ladder_formulas_exhaustive(ws23):
    for r in range(6):
        for i in itertools.product((1, 2), repeat=r):
            for j in (1, 2):
                up = creation(ws23, j, w(theta_word(i)))
                assert up == w(theta_word(i + (j,)))
                ratio = ws23.weight(i + (j,)) / ws23.weight(i)
                norm_ratio = ws23.form(up, up).re / ws23.form(
                    w(theta_word(i)), w(theta_word(i))
                ).re
                assert norm_ratio == ratio
                down = annihilation(ws23, j, w(theta_word(i + (j,))))
                assert down == Scalar(ratio) * w(theta_word(i))
                if not i or i[-1] != j:
                    assert annihilation(ws23, j, w(theta_word(i))).is_zero()


def test_commutators(ws2):
    def commutator(g, h, phi):
        tg, th = ToeplitzOperator(g, ws2), ToeplitzOperator(h, ws2)
        return tg.apply(th.apply(phi)) - th.apply(tg.apply(phi))

    one = AlgebraElement.one()
    c = commutator(w((1,)), w((2,)), one)
    assert c == w((2, 1)) - w((1, 2))
    assert not c.is_zero()
    assert commutator(w((1,)), w((1,)), w((2,))).is_zero()
    # [T_{b1}, T_{t1}] 1 = 1
    assert commutator(w((-1,)), w((1,)), one) == one


def test_check_adjoint_holomorphic_symbol(ws23):
    assert check_adjoint(ws23, w((1, 2)), trials=200, seed=4) == []
    assert check_adjoint(ws23, AlgebraElement.one(), trials=100, seed=0) == []


def test_check_adjoint_detects_general_symbol_failure(ws2):
    g = w((-2, 1, -1))
    f1 = w((1,))
    f2 = w((1, 2))
    lhs = ws2.form(f1, ToeplitzOperator(g, ws2).apply(f2))
    rhs = ws2.form(ToeplitzOperator(g.star(), ws2).apply(f1), f2)
    assert lhs == Scalar(1)
    assert rhs == Scalar(0)
    violations = check_adjoint(ws2, g, trials=400, seed=0)
    assert violations
    text = format_adjoint_violations(violations)
    assert text and "\t" in text.splitlines()[0]


def test_adjoint_exhaustive_on_compatible_symbols(ws2):
    holo = [theta_word(i) for r in range(5) for i in itertools.product((1, 2), repeat=r)]
    symbols = [g for g in holo] + [word_star(g) for g in holo if g]
    for sym in symbols:
        g = w(sym)
        tg = ToeplitzOperator(g, ws2)
        tgs = ToeplitzOperator(g.star(), ws2)
        images = [tg.apply(w(f2)) for f2 in holo]
        star_images = [tgs.apply(w(f1)) for f1 in holo]
        for a, f1 in enumerate(holo):
            for b, f2 in enumerate(holo):
                assert ws2.form(w(f1), images[b]) == ws2.form(star_images[a], w(f2))


def test_reproduce_counterexamples():
    assert reproduce_counterexamples(WeightSystem.unit(2)) == (1, 0, 1, 0)
    assert reproduce_counterexamples(WeightSystem(2, mu=(2, 3))) == (12, 0, 6, 0)
    # w(1,2) = 5 and w(1) = 1, so the first display is 5
    assert reproduce_counterexamples(WeightSystem(2, mu=(1, 5))) == (5, 0, 5, 0)
    with pytest.raises(ValueError, match="n >= 2"):
        reproduce_counterexamples(WeightSystem.unit(1))


def test_check_compatibility_tiny_bound(ws2):
    assert check_compatibility(2, 1, ws2) == []


def test_check_compatibility_finds_known_counterexamples(ws2):
    found = {
        (v.prop, v.f1, v.f2, v.g)
        for v in check_compatibility(2, 3, ws2)
    }
    assert (1, (1,), (1, 2), (-2, 1, -1)) in found
    assert (2, (1,), (1,), (2, -2)) in found


def test_candidate_checker_matches_enumeration():
    # unpruned: every (f1, f2, g); pruned: only the theta-balanced ones
    cases = [(1, L, (1,), False) for L in range(7)]
    cases += [(2, L, mu, False) for L in range(4) for mu in ((1, 1), (2, 3))]
    cases += [(2, 4, (1, 1), True), (2, 4, (2, 3), True), (3, 2, (1, 2, 5), True)]
    for n, max_len, mu, prune in cases:
        ws = WeightSystem(n, mu=mu)
        checked = {
            (v.prop, v.f1, v.f2, v.g, v.lhs, v.rhs)
            for v in check_compatibility(n, max_len, ws)
        }
        assert checked == compat_enumeration(n, max_len, ws, prune), (n, max_len, mu)


def test_compat_pairs_match_scan():
    # for every g, the pairs listed from g's runs are the pairs that the
    # closed forms give when tried on every holomorphic word, and each
    # pair lists every side whose closed form gave it: a missing side
    # would be zeroed without being evaluated
    total = 0
    for n, top in ((1, 8), (2, 5), (3, 4)):
        for max_len in range(top + 1):
            holo = [list(itertools.product(range(1, n + 1), repeat=r)) for r in range(max_len + 1)]
            flat = [f for words in holo for f in words]
            for g in all_words(n, max_len):
                pairs = [
                    (f1, f2, sum(bit for bit, x in zip((1, 2, 4), sides) if x is not None))
                    for f1, f2, sides in compat_pairs(g, holo)
                ]
                assert pairs == compat_scan(flat, max_len, g), (n, max_len, g)
                total += len(pairs)
    # 1,439 + 15,321 + 20,059 of them at the largest max_len of each n
    assert total == 42619


def test_closed_forms_match_glue_step():
    # each listed side's (factor, suffix) is the kernel's first glue step
    # on that side's words, which exhausts the one-block word, and factor
    # is None where that step fails.  A pair's sides do not depend on
    # max_len, so the largest max_len of each n covers the smaller ones
    checked = failed = 0
    for n, max_len in ((1, 8), (2, 5), (3, 4)):
        holo = [list(itertools.product(range(1, n + 1), repeat=r)) for r in range(max_len + 1)]
        for g in all_words(n, max_len):
            gs = word_star(g)
            for f1, f2, sides in compat_pairs(g, holo):
                words = ((f1, f2 + g), (f2, f1 + gs), (f1 + word_star(f2), g))
                for (block, word), x in zip(words, sides):
                    if x is not None:
                        factor, suffix = x
                        expected = None if factor is None else (factor, (), suffix)
                        assert glue_step(block, word) == expected, (g, f1, f2, x)
                        checked += 1
                        failed += factor is None
    # not vacuous: every listed side of the 1,439 + 15,321 + 20,059 pairs,
    # 554 of them zero at the glue step
    assert (checked, failed) == (2439 + 18281 + 25845, 52 + 76 + 426)


def test_checker_matches_per_pair_oracle():
    # ordered lists with exact values: each listed side's closed form and
    # a memoised tail give what three full pairings per pair give
    cases = [(1, L, (2,)) for L in range(9)]
    cases += [(2, L, (2, 3)) for L in range(6)]
    cases += [(3, L, (2, 3, 5)) for L in range(5)]
    for n, max_len, mu in cases:
        ws = WeightSystem(n, mu=mu)
        assert check_compatibility(n, max_len, ws) == compat_per_pair(n, max_len, ws), (n, mu)
    # a glued factor can be twice max_len long, so each table reaches 2L
    for n, max_len in ((1, 8), (2, 4), (3, 3)):
        rnd = random.Random(n)
        table = {
            i: Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
            for r in range(1, 2 * max_len + 1)
            for i in itertools.product(range(1, n + 1), repeat=r)
        }
        ws = WeightSystem.custom(n, table)
        assert check_compatibility(n, max_len, ws) == compat_per_pair(n, max_len, ws), n


def test_compat_pairing_calls_pinned(monkeypatch):
    # at n=2, max_len=5 the 15,321 pairs hold 18,281 listed sides.  The
    # 1,365 words g list 1,129 families, whose members' sides are read in
    # closed form, and 338 single pairs, one glue step each; their 57
    # distinct suffixes are paired with 1 once (three full pairings per
    # pair would make 45,963 calls)
    steps, tails, families = [], [], []
    compat_families = toeplitz.compat_families

    def counted_step(f, g):
        steps.append(None)
        return glue_step(f, g)

    form_words = WeightSystem.form_words

    def counted(self, f, g):
        tails.append(None)
        return form_words(self, f, g)

    def counted_families(g):
        out = compat_families(g)
        families.extend(out[1])
        return out

    monkeypatch.setattr(toeplitz, "glue_step", counted_step)
    monkeypatch.setattr(toeplitz, "compat_families", counted_families)
    monkeypatch.setattr(WeightSystem, "form_words", counted)
    assert len(check_compatibility(2, 5, WeightSystem.unit(2))) == 8336
    assert (len(steps), len(tails), len(families)) == (338, 57, 1129)


def test_compat_tables_count_every_violation(ws2):
    path = Path(__file__).resolve().parents[1] / "scripts" / "compat_tables.py"
    spec = importlib.util.spec_from_file_location("compat_tables", path)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    violations = check_compatibility(2, 3, ws2)
    table = tables.compat_table(2, 3, ws2)
    counts = [sum(row[p][0] for row in table.values() if p in row) for p in (1, 2)]
    assert sum(counts) == len(violations)
    assert counts == [56, 204] and len(table) == 15
    # each witness is the first violation of its identity in its class
    for key, row in table.items():
        for prop, (_, witness) in row.items():
            assert witness == next(
                v for v in violations
                if v.prop == prop and (len(v.f1), len(v.f2), len(v.g)) == key
            )
    text = tables.format_table(2, 3, table, 0.0)
    assert "| 1 | 0 | 3 | 4 | 0 | f1 = `t1`, f2 = `1`, g = `t1*b1*t1`: 0 vs 1 |  |" in text


def test_samplers_keep_their_draws():
    # values of the samplers before they shared one body; the check
    # suites' seeded output depends on this draw sequence
    rnd = random.Random(2019)
    assert random_holomorphic(rnd, 2, max_len=3) == AlgebraElement(
        {(1,): Scalar(0, -1), (2,): Scalar(2)}
    )
    assert random_element(rnd, 2, max_len=3) == AlgebraElement(
        {(): Scalar(2), (-2, 2): Scalar(-1), (2, -1, -1): Scalar(0, -1)}
    )
    assert rnd.randint(0, 999) == 297


def test_counterexample_verdict():
    assert reproduce_counterexamples(WeightSystem.unit(2)).reproduced
    assert CounterexampleValues(1, 0, 1, 0).reproduced
    assert not CounterexampleValues(1, 1, 1, 0).reproduced
    assert not CounterexampleValues(1, 0, 0, 0).reproduced


def test_symmetry_and_adjoint_suites(ws23, monkeypatch):
    assert symmetry_suite(ws23, 30, 4, seed=3) == 0
    assert adjoint_suite(ws23, 60, 3, seed=3) == []
    seen = []

    def fake_check(ws, g, trials, seed):
        seen.append(g)
        return check_adjoint(ws, g, trials=2, seed=seed)

    # one sampled symbol per 50 trials, at least one
    monkeypatch.setattr(toeplitz, "check_adjoint", fake_check)
    for trials, symbols in ((1, 1), (49, 1), (149, 2)):
        seen.clear()
        adjoint_suite(ws23, trials, 3, seed=0)
        assert len(seen) == symbols
        assert all(g.is_holomorphic() or g.star().is_holomorphic() for g in seen)


def test_compat_suite_pass_rule(monkeypatch):
    ws2 = WeightSystem.unit(2)
    violations, passed, partial = compat_suite(ws2, 3)
    assert passed and not partial
    assert violations == check_compatibility(2, 3, ws2)
    violations, passed, partial = compat_suite(WeightSystem.unit(1), 3)
    assert violations and not passed and not partial

    # the suite looks check_compatibility up when it runs; drop one
    # canonical counterexample at a time and the suite fails
    real = toeplitz.check_compatibility
    for key in ((1, (1,), (1, 2), (-2, 1, -1)), (2, (1,), (1,), (2, -2))):
        def without_key(n, max_len, ws, key=key):
            return [v for v in real(n, max_len, ws) if (v.prop, v.f1, v.f2, v.g) != key]

        monkeypatch.setattr(toeplitz, "check_compatibility", without_key)
        assert not compat_suite(ws2, 3)[1]
    # at max_len 2 only the identity-2 counterexample is in reach, and
    # the identity-1 one is named as out of reach
    _, passed, partial = compat_suite(ws2, 2)
    assert not passed and "identity-1" in partial and "identity-2" not in partial
    monkeypatch.setattr(toeplitz, "check_compatibility", real)
    _, passed, partial = compat_suite(ws2, 2)
    assert passed and "g = b2*t1*b1" in partial


def test_n1_witnesses_are_the_first_violations():
    # each n = 1 witness is a violation from the max_len its words need,
    # and the partial line names it only below that max_len
    ws1 = WeightSystem.unit(1)
    for max_len in range(4):
        violations, passed, partial = compat_suite(ws1, max_len)
        found = {(v.prop, v.f1, v.f2, v.g) for v in violations}
        for key in toeplitz.N1_WITNESSES:
            reached = max(map(len, key[1:])) <= max_len
            assert (key in found) == reached
            assert ("identity-%d" % key[0] in partial) != reached
        assert passed == (not violations) == (max_len < 2)
