import random
from fractions import Fraction

import pytest

from freetoeplitz.expr import (
    MAX_NESTING,
    ExprError,
    format_element,
    format_scalar,
    format_word,
    parse_element,
    parse_word,
)
from freetoeplitz.freealg import AlgebraElement, Scalar


def test_basic_parsing():
    e = parse_element("t1*b2 + (1/2)i*t2^3", 2)
    assert e == AlgebraElement(
        {(1, -2): Scalar(1), (2, 2, 2): Scalar(0, Fraction(1, 2))}
    )


def test_star_parsing():
    assert parse_element("star(t1*t2)", 2) == AlgebraElement.from_word((-2, -1))
    assert parse_element("star(i)", 1) == Scalar(0, -1) * AlgebraElement.one()


def test_scalars():
    assert parse_element("1", 1) == AlgebraElement.one()
    assert parse_element("0", 1).is_zero()
    assert parse_element("i", 1) == Scalar(0, 1) * AlgebraElement.one()
    assert parse_element("-i", 1) == Scalar(0, -1) * AlgebraElement.one()
    assert parse_element("3/4i", 1) == Scalar(0, Fraction(3, 4)) * AlgebraElement.one()
    assert parse_element("2 - 2", 1).is_zero()


def test_precedence():
    # ^ binds tighter than *
    assert parse_element("t1*t2^2", 2) == AlgebraElement.from_word((1, 2, 2))
    assert parse_element("(t1*t2)^2", 2) == AlgebraElement.from_word((1, 2, 1, 2))
    assert parse_element("t1 + t2*t1", 2) == AlgebraElement(
        {(1,): Scalar(1), (2, 1): Scalar(1)}
    )


def test_unicode_theta_alias():
    assert parse_element("θ1*θ2", 2) == AlgebraElement.from_word((1, 2))


def test_errors_carry_offsets():
    with pytest.raises(ExprError) as info:
        parse_element("t1 $ t2", 2)
    assert info.value.offset == 4
    with pytest.raises(ExprError, match="index out of range"):
        parse_element("t3", 2)
    with pytest.raises(ExprError, match="zero denominator"):
        parse_element("1/0", 2)
    with pytest.raises(ExprError):
        parse_element("t1 +", 2)
    with pytest.raises(ExprError):
        parse_element("", 2)
    # only ASCII digits are digits: not superscripts, not other scripts
    for text, offset in (("t²", 1), ("t1^²", 4), ("²", 1), ("t\u0661", 1)):
        with pytest.raises(ExprError) as info:
            parse_element(text, 2)
        assert info.value.offset == offset
    # only the ASCII space and tab separate tokens; the offset counts
    # characters, so the no-break space after "θ1" (three UTF-8 bytes)
    # is at offset 3
    assert parse_element("t1\t+ t2", 2) == parse_element("t1+t2", 2)
    for text, offset in (("t1\u00a0+ t2", 3), ("\u2003t1", 1), ("t1\n", 3), ("θ1\u00a0t1", 3)):
        with pytest.raises(ExprError, match="unexpected character") as info:
            parse_element(text, 2)
        assert info.value.offset == offset


def test_parse_word():
    assert parse_word("t1*b2*b1", 2) == (1, -2, -1)
    with pytest.raises(ExprError):
        parse_word("t1 + t2", 2)
    with pytest.raises(ExprError):
        parse_word("2*t1", 2)


def test_format_scalar():
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(Fraction(1, 2))) == "1/2"
    assert format_scalar(Scalar(0, 1)) == "i"
    assert format_scalar(Scalar(0, Fraction(-2, 3))) == "-2/3i"
    assert format_scalar(Scalar(1, -1)) == "1 - i"
    assert format_scalar(Scalar(Fraction(-1, 2), Fraction(3, 4))) == "-1/2 + 3/4i"


def test_format_word():
    assert format_word(()) == "1"
    assert format_word((1, -2, 1)) == "t1*b2*t1"


def _random_element(rnd, n=2):
    terms = {}
    for _ in range(rnd.randint(1, 4)):
        word = tuple(
            rnd.choice((1, -1)) * rnd.randint(1, n)
            for _ in range(rnd.randint(0, 5))
        )
        c = Scalar(
            Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)),
            Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)),
        )
        terms[word] = c
    return AlgebraElement(terms)


def test_round_trip_random_elements():
    rnd = random.Random(123)
    for _ in range(1000):
        a = _random_element(rnd)
        assert parse_element(format_element(a), 2) == a


def test_element_from_text_validates_indices():
    assert parse_element("t1 + b2", 2) == AlgebraElement(
        {(1,): Scalar(1), (-2,): Scalar(1)}
    )
    with pytest.raises(ExprError):
        parse_element("t9", 2)


def test_nesting_limit():
    assert parse_element("(" * 50 + "t1 + b2" + ")" * 50, 2) == parse_element("t1 + b2", 2)
    deepest = "star(" * MAX_NESTING + "t1" + ")" * MAX_NESTING
    assert parse_element(deepest, 1) == AlgebraElement.from_word((1,))
    for opener in ("(", "star("):
        text = opener * (MAX_NESTING + 1) + "t1" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ExprError, match="nesting deeper than %d" % MAX_NESTING):
            parse_element(text, 1)
