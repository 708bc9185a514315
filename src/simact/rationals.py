"""Helpers for exact rationals at the package boundary.

All arithmetic inside the package uses fractions.Fraction.  These helpers
only cover the wire format ("p/q" strings) and a deterministic decimal
rendering for human-facing columns.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["parse_rational", "format_rational", "exact_decimal"]

_DIGITS = r"\d+(?:_\d+)*"
# the decimal and exponent forms that Fraction reads: exact in value, but
# not the wire format
_DECIMAL = re.compile(rf"[-+]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.

    Raises ValueError on anything else (floats included: the wire format is
    exact by design).  Only a text in decimal or exponent form is called a
    float; any other text is malformed.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s or "E" in s:
        # read by its form, not by Fraction, which would expand an exponent
        # such as 1e999999999 in full
        if _DECIMAL.fullmatch(s):
            raise ValueError(f"rational {text!r} must be integer or p/q, not a float")
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p" for integers, otherwise "p/q" in lowest terms."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


_PLACES = 12  # fractional digits kept


def exact_decimal(value: Fraction) -> str:
    """Deterministic decimal rendering, display only.

    Truncates toward zero at 12 fractional digits, then strips
    trailing zeros (keeping at least one digit after the point).  Never
    touches floating point, so identical inputs give identical bytes.
    """
    f = Fraction(value)
    sign = "-" if f < 0 else ""
    f = abs(f)
    scaled = f.numerator * 10**_PLACES // f.denominator
    whole, frac = divmod(scaled, 10**_PLACES)
    digits = str(frac).rjust(_PLACES, "0").rstrip("0") or "0"
    return f"{sign}{whole}.{digits}"
