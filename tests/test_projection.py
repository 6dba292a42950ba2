import itertools
import random
from fractions import Fraction

import pytest

from freetoeplitz import toeplitz
from freetoeplitz.freealg import AlgebraElement, Scalar, theta_word, word_star
from freetoeplitz.form import WeightSystem
from freetoeplitz.kernel import form_factors
from freetoeplitz.projection import (
    ToeplitzOperator,
    _head,
    partner,
    partner_families,
    project,
    project_oracle,
    project_word,
)

from conftest import all_words, custom_weights, glue_partner


def test_project_word_examples(ws2):
    assert project_word(ws2, (1, 2, -2)) == AlgebraElement.from_word((1,))
    assert project_word(ws2, (-1, 1)) == AlgebraElement.one()
    assert project_word(ws2, (1, -2)).is_zero()
    assert project_word(ws2, ()) == AlgebraElement.one()


def test_project_fixes_holomorphic_words(ws23):
    for i in itertools.product((1, 2), repeat=4):
        w = theta_word(i)
        assert project_word(ws23, w) == AlgebraElement.from_word(w)


def test_project_linear_extension(ws2):
    a = AlgebraElement({(1,): Scalar(1), (1, -1): Scalar(1)})
    assert project(ws2, a) == AlgebraElement(
        {(1,): Scalar(1), (): Scalar(1)}
    )
    assert project(ws2, AlgebraElement.zero()).is_zero()
    assert project(ws2, Scalar(0, 2) * AlgebraElement.from_word((-1,))).is_zero()


def test_oracle_examples(ws2):
    assert project_oracle(ws2, (1, 2, -2)) == AlgebraElement.from_word((1,))
    assert project_oracle(ws2, (-2, 1, -1)).is_zero()
    assert project_oracle(ws2, ()) == AlgebraElement.one()


def test_oracle_equivalence_small_exhaustive(ws23):
    for w in all_words(2, 5):
        assert project_word(ws23, w) == project_oracle(ws23, w)


@pytest.mark.parametrize("mu", [(1, 1), (2, 3)])
def test_oracle_balance_restriction_matches_full_sweep(mu):
    # the default oracle enumerates only length balance(w); slack sweeps all
    ws = WeightSystem(2, mu=mu)
    for w in all_words(2, 5):
        assert project_oracle(ws, w) == project_oracle(ws, w, slack=0)


def test_oracle_equivalence_random_n3():
    rnd = random.Random(11)
    ws = WeightSystem(3, mu=(2, 3, Fraction(1, 2)))
    for _ in range(60):
        w = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, 3)
            for _ in range(rnd.randint(0, 10))
        )
        assert project_word(ws, w) == project_oracle(ws, w)


def test_oracle_slack_adds_nothing(ws23):
    for w in all_words(2, 3):
        assert project_oracle(ws23, w, slack=2) == project_oracle(ws23, w)


def test_idempotence(ws23):
    rnd = random.Random(3)
    from freetoeplitz.toeplitz import random_element

    for _ in range(200):
        a = random_element(rnd, 2)
        p = project(ws23, a)
        assert p.is_holomorphic()
        assert project(ws23, p) == p


def test_projection_form_symmetric(ws23):
    rnd = random.Random(13)
    from freetoeplitz.toeplitz import random_element

    for _ in range(200):
        a = random_element(rnd, 2, max_len=5)
        b = random_element(rnd, 2, max_len=5)
        lhs = ws23.form(project(ws23, a), b)
        rhs = ws23.form(a, project(ws23, b))
        assert lhs == rhs


def test_single_candidate(ws2):
    # beyond the empty multi-index the expansion has at most one term
    for w in all_words(2, 5):
        p = project_word(ws2, w)
        assert len(p.terms) <= 1


def test_partner_is_the_only_candidate():
    # no holomorphic word of length <= len(h) but partner(h) pairs
    # nonzero with h, nor any f2 but glue_partner(f1, g) in <f1 f2*, g>;
    # the second within the domain of check_compatibility at max_len 4.
    # A pairing is nonzero exactly when the kernel finds weight factors.
    holo = [w for w in all_words(2, 6) if all(c > 0 for c in w)]
    hits = 0
    for h in all_words(2, 6):
        nonzero = {f for f in holo if len(f) <= len(h) and form_factors(f, h) is not None}
        assert nonzero <= {partner(h)}, h
        hits += len(nonzero)
    short = [f for f in holo if len(f) <= 4]
    glue_hits = 0
    for g in all_words(2, 4):
        for f1 in short:
            nonzero = {
                f2 for f2 in short if form_factors(f1 + word_star(f2), g) is not None
            }
            assert nonzero <= {glue_partner(f1, g)}, (f1, g)
            glue_hits += len(nonzero)
    # not vacuous: 319 words to length 6 pair nonzero with a holomorphic
    # word, and 711 pairs (f1, f2) give a nonzero <f1 f2*, g> at max_len 4
    assert (hits, glue_hits) == (319, 711)


def test_partner_families_match_scan():
    # the families list exactly the pairs (partner(f + x), f) over every
    # holomorphic f, here to length 5, and every x to length 5 at n=2
    holo = [w for w in all_words(2, 5) if all(c > 0 for c in w)]
    families_seen = set()
    for x in all_words(2, 5):
        scan = {(partner(f + x), f) for f in holo} - {(None, f) for f in holo}
        pairs, families = partner_families(*_head(x)[:2])
        listed = set(pairs)
        for s1, s2 in families:
            listed.update((u + s1, u + s2) for u in holo)
            families_seen.add((len(s1), len(s2)))
        assert {p for p in listed if len(p[1]) <= 5} == scan, x
    # not vacuous: families of every shape, with either side padded
    assert {(0, 0), (1, 0), (0, 1), (3, 0), (0, 3)} <= families_seen


def _project_reference(ws, a):
    # the linear extension term by term, one element sum per term
    out = AlgebraElement.zero()
    for w, c in a.items():
        out = out + c * project_word(ws, w)
    return out


@pytest.mark.parametrize(
    "mu", [(1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 3))]
)
def test_project_matches_termwise_sum(mu):
    from freetoeplitz.toeplitz import random_element

    ws = WeightSystem(2, mu=mu)
    rnd = random.Random(17)
    shared = 0
    for _ in range(300):
        a = random_element(rnd, 2, max_terms=10, max_len=4)
        p = project(ws, a)
        assert p == _project_reference(ws, a)
        assert all(c.re or c.im for c in p.terms.values())
        images = [project_word(ws, w) for w in a.terms]
        shared += sum(1 for q in images if q) > len(p.terms)
    # not vacuous: terms often share their partner, summed or cancelled
    assert shared > 50


def test_oracle_equivalence_custom_weights():
    ws = custom_weights(random.Random(29), 2, 5)
    nonzero = 0
    for w in all_words(2, 5):
        p = project_word(ws, w)
        assert p == project_oracle(ws, w), w
        nonzero += bool(p)
    # not vacuous: every holomorphic word and many others project nonzero
    assert nonzero > 100


def test_project_word_undefined_weight_raises():
    # t1*t2*b2 has the first block k = t1*t2 and the partner t1; the
    # value needs w(1, 2) and w(1), and a table missing either raises
    full = {(1,): 2, (2,): 3, (1, 2): 5}
    assert project_word(WeightSystem.custom(2, full), (1, 2, -2)) == (
        Scalar(Fraction(5, 2)) * AlgebraElement.from_word((1,))
    )
    for missing in ((1, 2), (1,)):
        table = {i: v for i, v in full.items() if i != missing}
        with pytest.raises(ValueError, match="weight undefined"):
            project_word(WeightSystem.custom(2, table), (1, 2, -2))


def test_prepared_symbol_belongs_to_its_weights(ws2, ws23):
    # the operator is the prepared symbol, one class under both names
    assert toeplitz.ToeplitzOperator is ToeplitzOperator
    g = AlgebraElement.from_word((-1,)) + AlgebraElement.from_word((1, 2))
    phi = AlgebraElement.from_word((1,))
    assert project(ws23, phi, ToeplitzOperator(g, ws23)) == project(ws23, phi, g)
    with pytest.raises(ValueError, match="another weight system"):
        project(ws2, phi, ToeplitzOperator(g, ws23))
