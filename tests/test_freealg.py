import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import FractionScalar

from freetoeplitz.freealg import (
    AlgebraElement,
    Scalar,
    split_block,
    swap_alphabet,
    word_star,
)

words = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8
).map(tuple)

# Gaussian rationals as (re, im) pairs: zero, purely real, purely
# imaginary and general values all occur
parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
gaussians = st.one_of(
    st.tuples(parts, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), parts),
    st.tuples(parts, parts),
)


@given(words.filter(lambda w: len(w) > 0))
def test_split_block_runs_are_maximal(w):
    k, r, rest = split_block(w)
    assert k + word_star(r) + rest == w
    p, q = len(k), len(k) + len(r)
    first = w[0] > 0
    assert 1 <= p <= q <= len(w)
    assert all((c > 0) == first for c in w[:p])
    assert p == len(w) or (w[p] > 0) != first
    assert all((c > 0) != first for c in w[p:q])
    assert q == len(w) or (w[q] > 0) == first
    if p == len(w):
        assert q == p


@given(words)
def test_swap_alphabet_involution(w):
    assert swap_alphabet(swap_alphabet(w)) == w
    assert len(swap_alphabet(w)) == len(w)


@given(words, words)
def test_swap_alphabet_commutes_with_concat(u, v):
    assert swap_alphabet(u + v) == swap_alphabet(u) + swap_alphabet(v)


def test_star_on_generators():
    t1, t2, b2 = (AlgebraElement.from_word((j,)) for j in (1, 2, -2))
    assert (t1 * t2).star() == AlgebraElement.from_word((-2, -1))
    assert (t1 * b2).star() == AlgebraElement.from_word((2, -1))


def test_star_antilinear_on_scalars():
    a = Scalar(2, 1) * AlgebraElement.one()
    assert a.star() == Scalar(2, -1) * AlgebraElement.one()


@given(words, words)
def test_star_antimultiplicative_on_words(u, v):
    a = AlgebraElement.from_word(u)
    b = AlgebraElement.from_word(v)
    assert (a * b).star() == b.star() * a.star()


def test_star_involution_and_antimultiplicativity_on_elements():
    rnd = random.Random(7)
    for _ in range(200):
        a = _random_element(rnd)
        b = _random_element(rnd)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def _random_element(rnd, n=3, terms=3, max_len=5):
    out = {}
    for _ in range(terms):
        w = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, n)
            for _ in range(rnd.randint(0, max_len))
        )
        out[w] = Scalar(rnd.randint(-3, 3), rnd.randint(-3, 3))
    return AlgebraElement(out)


def test_holomorphic_meets_its_conjugate_only_in_scalars():
    # a word whose star is again all-theta must be the identity
    for w in [(1,), (1, 2), (2, 2, 1)]:
        assert any(c < 0 for c in word_star(w))
    assert word_star(()) == ()


def test_multiply_examples():
    t1, t2, b1 = (AlgebraElement.from_word((j,)) for j in (1, 2, -1))
    assert t1 * t2 == AlgebraElement.from_word((1, 2))
    lhs = (t1 + t2) * b1
    assert lhs == AlgebraElement.from_word((1, -1)) + AlgebraElement.from_word((2, -1))
    a = _random_element(random.Random(1))
    assert a * AlgebraElement.one() == a


def test_canonical_form_drops_zero_terms():
    a = AlgebraElement({(1,): Scalar(1)}) - AlgebraElement({(1,): Scalar(1)})
    assert a.is_zero()
    assert a.terms == {}


def test_scalar_arithmetic_exact():
    from fractions import Fraction

    c = Scalar(Fraction(1, 3), Fraction(1, 2))
    d = Scalar(Fraction(2, 3), Fraction(-1, 2))
    assert c + d == Scalar(1, 0)
    assert c.conjugate().conjugate() == c
    assert (c * d).conjugate() == c.conjugate() * d.conjugate()
    assert (c + d).conjugate() == c.conjugate() + d.conjugate()


def _parts(z):
    # the components of a Scalar, which are exactly Fraction
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


@given(gaussians, gaussians)
def test_scalar_arithmetic_matches_component_formula(x, y):
    (a, b), (c, d) = x, y
    s, t = Scalar(a, b), Scalar(c, d)
    assert _parts(s + t) == (a + c, b + d)
    assert _parts(s - t) == (a - c, b - d)
    assert _parts(s * t) == (a * c - b * d, a * d + b * c)
    assert _parts(s + 2) == _parts(2 + s) == (a + 2, b)
    assert _parts(s - 2) == (a - 2, b)
    assert _parts(2 - s) == (2 - a, -b)
    assert _parts(s * 3) == _parts(3 * s) == (3 * a, 3 * b)
    assert _parts(s * Fraction(1, 2)) == (a / 2, b / 2)


def _normal(z):
    # a Scalar's integers are in normal form, and its components are the
    # oracle's, as Fractions
    assert all(type(x) is int for x in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    return _parts(z)


@given(gaussians, st.integers(-5, 5))
def test_scalar_components_are_fractions(x, k):
    a, b = x
    o, ok = FractionScalar(a, b), FractionScalar(k)
    for z, expected in (
        (Scalar(k), ok),
        (Scalar(k, k), FractionScalar(k, k)),
        (Scalar(a), FractionScalar(a)),
        (Scalar(a, b), o),
        (Scalar(), FractionScalar()),
        (-Scalar(a, b), -o),
        (Scalar(a, b).conjugate(), o.conjugate()),
        (Scalar(a) + Scalar(k), FractionScalar(a) + ok),
        (Scalar(a) - Scalar(k), FractionScalar(a) - ok),
        (Scalar(a) * Scalar(k), FractionScalar(a) * ok),
        (Scalar(a, 1) - Scalar(k, 1), FractionScalar(a) - ok),
    ):
        assert _normal(z) == (expected.re, expected.im)
    assert _parts(Scalar(k)) == (k, 0)
    assert bool(Scalar(a, b)) == (a != 0 or b != 0) != Scalar(a, b).is_zero()


@given(gaussians, gaussians)
def test_real_fast_path_agrees_with_general_path(x, y):
    (a, b), (c, _) = x, y
    # a real value reached through the general formulas, and the same
    # value reached through real operands only
    z = Scalar(a, b)
    assert z * z.conjugate() == Scalar(a * a) + Scalar(b * b)
    assert hash(z * z.conjugate()) == hash(Scalar(a * a) + Scalar(b * b))
    for general, fast, direct in (
        (Scalar(a, 1) + Scalar(c, -1), Scalar(a) + Scalar(c), Scalar(a + c)),
        (Scalar(a, 1) - Scalar(c, 1), Scalar(a) - Scalar(c), Scalar(a - c)),
        (Scalar(a, 1) * Scalar(c), Scalar(a) * Scalar(c) + Scalar(0, c), Scalar(a * c, c)),
    ):
        assert general == fast == direct
        assert hash(general) == hash(fast) == hash(direct)


@given(parts, gaussians)
def test_product_with_one_real_operand(a, y):
    # one real operand scales both components, in normal form
    c, d = y
    expected = FractionScalar(a) * FractionScalar(c, d)
    for z in (Scalar(a) * Scalar(c, d), Scalar(c, d) * Scalar(a)):
        assert _normal(z) == (a * c, a * d) == (expected.re, expected.im)


# Gaussian rationals with large denominators, and pairs whose sum or
# difference cancels to zero in one or both components
big_parts = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30)
scalar_values = st.one_of(gaussians, st.tuples(big_parts, big_parts))
scalar_pairs = st.one_of(
    st.tuples(scalar_values, scalar_values),
    scalar_values.map(lambda x: (x, x)),
    scalar_values.map(lambda x: (x, (-x[0], -x[1]))),
    st.tuples(scalar_values, big_parts).map(lambda t: (t[0], (t[0][0], t[1]))),
)


@given(scalar_pairs)
def test_scalar_matches_fraction_pair_oracle(pair):
    x, y = pair
    s, t = Scalar(*x), Scalar(*y)
    o, p = FractionScalar(*x), FractionScalar(*y)
    for z, expected in (
        (s, o), (s + t, o + p), (s - t, o - p), (s * t, o * p), (-s, -o),
        (s.conjugate(), o.conjugate()), (s + t.conjugate(), o + p.conjugate()),
    ):
        assert _normal(z) == (expected.re, expected.im)
        assert bool(z) == bool(expected) != z.is_zero()
        assert repr(complex(z)) == repr(complex(expected))
    assert (s == t) == (o == p) == (s - t).is_zero()
    if s == t:
        assert hash(s) == hash(t)
    # the same value built from ints over a common denominator
    den = o.re.denominator * o.im.denominator
    u = Scalar(int(o.re * den), int(o.im * den), den)
    assert u == s and hash(u) == hash(s) and _normal(u) == _normal(s)


def test_scalar_denominator_must_be_positive():
    for den in (0, -1):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Scalar(1, 0, den)
    assert Scalar(2, -4, 6) == Scalar(Fraction(1, 3), Fraction(-2, 3))


def _zero_free(e):
    return all(c.re or c.im for c in e.terms.values())


@given(st.lists(st.tuples(words, gaussians), max_size=5), gaussians, words)
def test_cancelling_element_arithmetic_stores_no_zero(terms, x, u):
    a = AlgebraElement({w: Scalar(*z) for w, z in terms})
    assert _zero_free(a)
    for e in (a - a, a + (-a), -a + a):
        assert e.terms == {}
    # (1 + z u)(1 - z u) = 1 - z^2 u u: the two z u terms cancel
    z = Scalar(*x)
    one = AlgebraElement.one()
    p = (one + z * AlgebraElement.from_word(u)) * (one - z * AlgebraElement.from_word(u))
    assert _zero_free(p)
    if u:
        assert p == one - z * z * AlgebraElement.from_word(u + u)
        assert u not in p.terms
    assert _zero_free(a * p) and _zero_free(p * a + a)


def test_element_drops_zero_coefficients():
    a = AlgebraElement({(1,): Scalar(0), (2,): 0, (): Fraction(0), (-1,): Scalar(0, 2)})
    assert a.terms == {(-1,): Scalar(0, 2)}
    assert type(AlgebraElement({(1,): 3}).terms[(1,)]) is Scalar
