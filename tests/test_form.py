import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from freetoeplitz.freealg import AlgebraElement, Scalar, theta_word
from freetoeplitz.form import WeightSystem, parse_rational, parse_weight_config

from conftest import all_words, random_word


def test_weight_product_mode():
    ws = WeightSystem(2, mu=(1, 1))
    assert ws.weight((1, 2)) == 1
    ws = WeightSystem(2, mu=(2, 3))
    assert ws.weight((1, 2, 1)) == 12
    assert ws.weight(()) == 1


@pytest.mark.parametrize("mu", [(2, 3), (Fraction(1, 2), Fraction(5, 3))])
def test_weight_memo_matches_plain_product(mu):
    ws = WeightSystem(2, mu=mu)
    for r in range(7):
        for i in itertools.product((1, 2), repeat=r):
            want = math.prod((Fraction(mu[j - 1]) for j in i), start=Fraction(1))
            # the second call reads the memo
            assert ws.weight(i) == want
            assert ws.weight(list(i)) == want


def test_weight_memo_long_index():
    ws = WeightSystem(2, mu=(2, 3))
    assert ws.weight((1, 2) * 2500) == Fraction(6) ** 2500


def test_weight_out_of_range_never_cached():
    ws = WeightSystem(2, mu=(2, 3))
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range: 3"):
            ws.weight((1, 3))
    assert ws.weight((1, 2)) == 6


def test_weight_custom_mode():
    ws = WeightSystem.custom(2, {(1,): Fraction(2), (1, 2): Fraction(5)})
    assert ws.weight(()) == 1
    assert ws.weight((1, 2)) == 5
    with pytest.raises(ValueError, match="weight undefined"):
        ws.weight((2,))


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        WeightSystem(1, mu=(0,))
    with pytest.raises(ValueError):
        WeightSystem.custom(1, {(1,): Fraction(-1)})


def test_form_words_known_values(ws2, ws23):
    # one factor survives: <t1, t1*t2*b2> = w(1,2)
    assert ws2.form_words((1,), (1, 2, -2)) == 1
    assert ws23.form_words((1,), (1, 2, -2)) == 6
    # two factors: w(1,2) * w(1)
    assert ws23.form_words((1,), (1, 2, -2, 1, -1)) == 12
    # index mismatch kills the delta
    assert ws2.form_words((1, -1), (2, -2)) == 0
    # opposite begins-with kinds
    assert ws2.form_words((1, -2), (-2, 1)) == 0


def test_form_words_dual_uses_same_weights(ws23):
    assert ws23.form_words((), (-1, 1)) == 2
    assert ws23.form_words((-1,), (-1,)) == 2
    assert ws23.form_words((-1, -2), (-1, -2)) == ws23.form_words((1, 2), (1, 2))


def test_form_sesquilinear(ws2):
    t1 = AlgebraElement.from_word((1,))
    t2 = AlgebraElement.from_word((2,))
    i = Scalar(0, 1)
    assert ws2.form(i * t1, t1) == Scalar(0, -1)
    assert ws2.form(t1 + t2, t1) == Scalar(1)
    assert ws2.form(t1, AlgebraElement.zero()) == Scalar(0)


def test_orthogonality_on_holomorphic_words():
    ws = WeightSystem(2, mu=(2, 3))
    idxs = [
        i
        for r in range(6)
        for i in itertools.product((1, 2), repeat=r)
    ]
    for i in idxs:
        for k in idxs:
            v = ws.form_words(theta_word(i), theta_word(k))
            assert v == (ws.weight(i) if i == k else 0)


def test_complex_symmetry_random():
    rnd = random.Random(42)
    ws = WeightSystem(3, mu=(2, 3, Fraction(1, 2)))
    for _ in range(1000):
        f = random_word(rnd, 3, 8)
        g = random_word(rnd, 3, 8)
        assert ws.form_words(f, g) == ws.form_words(g, f)
    from freetoeplitz.toeplitz import random_element

    for _ in range(300):
        a = random_element(rnd, 3)
        b = random_element(rnd, 3)
        assert ws.form(a, b).conjugate() == ws.form(b, a)


def test_positive_definite_on_holomorphic():
    rnd = random.Random(5)
    ws = WeightSystem(2, mu=(2, Fraction(1, 3)))
    from freetoeplitz.toeplitz import random_holomorphic

    for _ in range(200):
        p = random_holomorphic(rnd, 2)
        if p.is_zero():
            continue
        v = ws.form(p, p)
        assert v.im == 0 and v.re > 0


def test_star_shift_for_holomorphic_symbols(ws23):
    # <f1, f2 g> = <f1 g*, f2> for f1, f2 holomorphic and g in P or P*
    rnd = random.Random(9)
    from freetoeplitz.freealg import word_star

    for _ in range(400):
        f1 = random_word(rnd, 2, 5, holomorphic=True)
        f2 = random_word(rnd, 2, 5, holomorphic=True)
        g = random_word(rnd, 2, 4, holomorphic=True)
        if rnd.random() < 0.5:
            g = word_star(g)
        lhs = ws23.form_words(f1, f2 + g)
        rhs = ws23.form_words(f1 + word_star(g), f2)
        assert lhs == rhs


def test_recursion_depth_bound(ws2):
    # each factor consumes at least two letters, so the factor count is
    # bounded by the total length
    from freetoeplitz.kernel import form_factors

    for f in all_words(2, 4):
        for g in all_words(2, 4):
            factors = form_factors(f, g)
            if factors is not None:
                assert len(factors) <= len(f) + len(g) + 1


def _pinned_pairs():
    """The word pairs pinned by test_form_factors_pinned, as three sets."""
    letters = (1, -1, 2, -2)
    words = [w for r in range(4) for w in itertools.product(letters, repeat=r)]
    short = [(f, g) for f in words for g in words]
    rnd = random.Random(99)
    long_ = []
    for _ in range(20000):
        f = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, 3)
            for _ in range(rnd.randint(0, 12))
        )
        g = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, 3)
            for _ in range(rnd.randint(0, 12))
        )
        long_.append((f, g))
    # mirror-heavy words exercise every branch of the run scan
    cases = [
        (),
        (1,),
        (-1,),
        (1, -1),
        (-1, 1),
        (1, 2, -2, -1),
        (1, 2, -2, -1, 1, -1),
        (-1, -2, 2, 1),
        (1, 1, -1, -1, 2, -2),
    ]
    mirror = [(f, g) for f in cases for g in cases]
    return {"short": short, "random": long_, "mirror": mirror}


# sha256 of repr of the factor lists and the count of nonzero pairings,
# recorded from the kernel before its compiled twin was deleted
PINNED = {
    "short": ("3b1bebf77eb74af4d509fb96bcbca989f31473a558c14e9d7b7aee09bddf7fd0", 109),
    "random": ("fca43a092983259fd6ad0ff60a8e2bb0118db814d09ddada5ecfd68e672e7d4f", 211),
    "mirror": ("5a371bccddbfe49a571c9cb012156647df161f672f0a74f8d1097389a7bbb4e9", 25),
}


def test_form_factors_pinned():
    from freetoeplitz.kernel import form_factors

    for name, pairs in _pinned_pairs().items():
        results = [form_factors(f, g) for f, g in pairs]
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        nonzero = sum(r is not None for r in results)
        assert (digest, nonzero) == PINNED[name], name


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("2/3") == Fraction(2, 3)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("-2")
    with pytest.raises(ValueError):
        parse_rational("\u0662/\u0663")  # Arabic-Indic 2/3


def test_parse_weight_config():
    assert parse_weight_config("mu = 1, 2/3, 5") == [1, Fraction(2, 3), 5]
    assert parse_weight_config("# comment\nmu = 2\n") == [2]
    with pytest.raises(ValueError):
        parse_weight_config("nu = 1")
    with pytest.raises(ValueError):
        parse_weight_config("")
