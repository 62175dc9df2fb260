"""Exact rational scalars and the text grammar used for them in model files.

Every probability in this package is a ``fractions.Fraction``: arbitrary
precision, always reduced, denominator always positive.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

# Strict grammar: an optional sign, ASCII digits, optionally "/digits".  No
# floats, no decimals, no whitespace, no underscores, no other scripts' digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class NumeralLengthError(ValueError):
    """A numeral has more digits than ``sys.get_int_max_str_digits()`` lets ``int`` convert."""


def parse_integer(text: str) -> int:
    """Parse a base-10 integer: what ``int`` accepts, minus underscores and non-ASCII digits."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError(f"invalid int value: {text!r}")
    digits, limit = len(text.lstrip("+-")), sys.get_int_max_str_digits()
    if 0 < limit < digits:  # refused in this package's words, not int()'s
        raise NumeralLengthError(f"numeral of {digits} digits exceeds the {limit}-digit limit")
    return int(text)


def _rational_text(numerator: int, denominator: int, what: str) -> str:
    """``str(Fraction(numerator, denominator))`` for ``denominator > 0``, reduced by one
    gcd; a numeral too long for ``str(int)`` is refused, naming ``what``."""
    g = math.gcd(numerator, denominator)
    try:
        return str(numerator // g) if denominator == g else f"{numerator // g}/{denominator // g}"
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise NumeralLengthError(f"{what} has a numeral past the {limit}-digit limit") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer written in base 10.

    Rejects anything else: decimal points, exponents, embedded whitespace,
    and zero denominators.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r} (expected p/q or an integer)")
    numerator = parse_integer(match.group(1))
    denominator_text = match.group(2)
    if denominator_text is None:
        return Fraction(numerator)
    denominator = parse_integer(denominator_text)
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)
