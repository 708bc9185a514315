from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simact.rationals import exact_decimal, format_rational, parse_rational


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_parse_format_roundtrip(num, den):
    f = Fraction(num, den)
    assert parse_rational(format_rational(f)) == f


def test_parse_plain_integers():
    assert parse_rational("7") == 7
    assert parse_rational("-3") == -3
    assert parse_rational("0") == 0


FLOATS = ["1.5", "1e3", " -.5E-3", "1.", "1e999999999"]


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1/0", "a/b", "1/2/3", "1e3", "--2", "+", "True", "None", "one", "1/2e", "1.5/2", "e5"] + FLOATS[2:]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError, match="not a float" if bad in FLOATS else "malformed"):
        parse_rational(bad)


@given(st.text("0123456789._eE+-/ x", max_size=6))
def test_only_decimal_texts_are_called_floats(text):
    # Fraction reads exactly the decimal and exponent forms as numbers, so the
    # float message goes to a text exactly when Fraction reads it and it has
    # a decimal point or an exponent
    try:
        Fraction(text)
        decimal = any(c in text for c in ".eE")
    except (ValueError, ZeroDivisionError):
        decimal = False
    try:
        parse_rational(text)
    except ValueError as exc:
        assert ("not a float" in str(exc)) == decimal
    else:
        assert not decimal


def test_format_is_canonical():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-6, 3)) == "-2"
    assert format_rational(Fraction(0)) == "0"


def test_exact_decimal_truncates_toward_zero():
    assert exact_decimal(Fraction(2, 3)) == "0.666666666666"
    assert exact_decimal(Fraction(-2, 3)) == "-0.666666666666"
    assert exact_decimal(Fraction(1, 2)) == "0.5"
    assert exact_decimal(Fraction(3)) == "3.0"
    assert exact_decimal(Fraction(0)) == "0.0"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_exact_decimal_is_close(num, den):
    f = Fraction(num, den)
    text = exact_decimal(f)
    sign = -1 if text.startswith("-") else 1
    whole, frac = text.lstrip("-").split(".")
    value = sign * (Fraction(int(whole)) + Fraction(int(frac), 10 ** len(frac)))
    assert abs(value - f) < Fraction(1, 10**11)
    assert abs(value) <= abs(f)
