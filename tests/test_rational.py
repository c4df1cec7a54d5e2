"""brat's Rational against fractions.Fraction: the text grammar, str, ==
and hash."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brat._record import LimitError
from brat.rational import Rational

# what Fraction(str) accepts on every supported Python: 3.10 has no
# underscores and no spaces around "/"; the exponent is kept short
COMMON = r"\s*[-+]?(\d{1,30}/\d{1,30}|(\d{1,30}(\.\d{0,30})?|\.\d{1,30})([eE][-+]?\d{1,3})?)\s*"
# what Python 3.13's Fraction(str) accepts: every run of digits may hold
# single underscores, and spaces may surround "/"
DIGITS = r"\d+(_\d+)*"
GRAMMAR_313 = re.compile(r"\s*[-+]?(?=\d|\.\d)(%s\s*/\s*%s|(%s)?(\.(%s)?)?([eE][-+]?%s)?)\s*"
                         % ((DIGITS,) * 5))


def size_past_the_digit_limit(text):
    """A decimal literal's digits plus its exponent's magnitude, when it has a
    nonzero mantissa and an exponent and they pass Python's int-to-str limit
    (brat refuses it); else 0."""
    mantissa, e, exponent = text.strip().replace("E", "e").partition("e")
    digits = "".join(filter(str.isdecimal, mantissa))
    size = len(digits) + abs(int(exponent or "0"))
    return size if e and int(digits) and 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < size else 0


def outcome(parse, text):
    """parse(text)'s value, or the type and message of its error."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.from_regex(COMMON, fullmatch=True))
def test_reads_what_every_python_s_fraction_reads(text):
    assert outcome(Rational, text) == outcome(Fraction, text)


@settings(max_examples=500)
@given(st.text(alphabet="0123456789+-/._eE \t٣", max_size=12))
def test_accepts_exactly_python_3_13_s_grammar(text):
    if GRAMMAR_313.fullmatch(text) and size_past_the_digit_limit(text):
        with pytest.raises(LimitError, match=" counts %d digits " % size_past_the_digit_limit(text)):
            Rational(text)
        return
    got = outcome(Rational, text)
    if GRAMMAR_313.fullmatch(text):
        # the Fraction of the text without what Python 3.10 or 3.11 refuses:
        # underscores, which stand only between digits, and spaces around "/"
        assert got == outcome(Fraction, re.sub(r"\s*/\s*", "/", text).replace("_", ""))
    else:
        assert got == (ValueError, "Invalid literal for Fraction: %r" % text)
    if sys.version_info >= (3, 13):
        assert got == outcome(Fraction, text)


@pytest.mark.parametrize("text", ["0e5000", "-0.000e-10000000", "٠e9999"])
def test_a_zero_mantissa_is_0_whatever_its_exponent(text):
    assert Rational(text) == 0


def test_with_no_digit_limit_an_exponent_is_expanded():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Rational("1e5000") == 10**5000 and Rational("-2.5e-5000") == Fraction(-25, 10**5001)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text, value", [
    (" 1 / 2 ", Fraction(1, 2)), ("1_0/3", Fraction(10, 3)), ("-1_0.2_5e1_0", Fraction(-1025 * 10**8)),
    ("1.", Fraction(1)), (".5e-1", Fraction(1, 20)), ("٣/٤", Fraction(3, 4)), ("+0/7", Fraction(0)),
])
def test_reads_python_3_13_s_literals_on_every_python(text, value):
    assert Rational(text) == value


@pytest.mark.parametrize("text", [
    "", ".", "/2", "1/", "1/-2", "1/2/3", "1.5/2", "1e5/2", "- 1", "+-1", "1 2", "_1", "1_", "1__0", "1._5",
    "1e", "1e+", "e1", ".e1", "1.d", "inf", "0x10", "²",
])
def test_refuses_what_python_3_13_refuses(text):
    with pytest.raises(ValueError) as info:
        Rational(text)
    assert str(info.value) == "Invalid literal for Fraction: %r" % text


@given(st.fractions())
def test_prints_equals_and_hashes_as_fraction(value):
    rational = Rational(value)
    assert (str(rational), hash(rational)) == (str(value), hash(value))
    assert rational == value and value == rational and rational == Rational(str(value))
    assert rational != value + 1 and value + 1 != rational
    if value.denominator == 1:
        assert rational == int(value) and hash(rational) == hash(int(value))


def test_hash_of_minus_one_and_of_a_denominator_the_hash_prime_divides():
    prime = sys.hash_info.modulus
    for value in (Fraction(-1), Fraction(1, prime), Fraction(-3, prime * 2)):
        assert hash(Rational(value)) == hash(value)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Rational("-4/0"), ZeroDivisionError, "Fraction(-4, 0)"),
    (lambda: Rational(1, Fraction(0)), ZeroDivisionError, "Fraction(1, 0)"),
    (lambda: Rational(0.5), TypeError, "a rational's terms are integers or rationals, got 0.5 and 1"),
    (lambda: Rational("1", "2"), TypeError, "a rational's terms are integers or rationals, got '1' and '2'"),
])
def test_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
