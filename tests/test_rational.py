import math
import random
import sys
from fractions import Fraction as F

import pytest

from oddsaudit import parse_rational
from oddsaudit.rational import parse_integer


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", F(0)),
        ("1", F(1)),
        ("7", F(7)),
        ("-3", F(-3)),
        ("+4", F(4)),
        ("1/3", F(1, 3)),
        ("2/4", F(1, 2)),  # reduced on parse
        ("-2/6", F(-1, 3)),
        ("10/5", F(2)),
        ("036/012", F(3)),
    ],
)
def test_parse_accepts_integers_and_fractions(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", " ", "1.5", "1e3", "1/0", "-1/0", "a/b", "1/2/3", "1 /2", " 1/2", "1/-2", "0x2", "/3", "3/",
     "\u0661/\u0662", "\uff11", "1_0", "1/2_0", "1/2\n"],
)
def test_parse_rejects_non_rationals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_numerals_up_to_the_interpreter_digit_limit_parse_as_int_does():
    """The limit is the interpreter's own, read at each call: a numeral at it
    parses exactly as before, and one digit more is refused in this package's words."""
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            at, past = "9" * digits, "0" * (digits + 1)
            assert parse_integer(f"-{at}") == -int(at)
            assert parse_rational(f"1/{at}") == F(1, int(at))
            for parse, text in ((parse_integer, past), (parse_rational, f"{past}/1")):
                with pytest.raises(ValueError, match=f"numeral of {digits + 1} digits exceeds"):
                    parse(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value,expected",
    [(F(0), "0"), (F(2, 1), "2"), (F(1, 3), "1/3"), (F(-5, 10), "-1/2"), (F(12, 4), "3")],
)
def test_format_reduced_without_unit_denominator(value, expected):
    assert str(value) == expected


def test_parse_format_round_trip_random():
    rng = random.Random(1905)
    for _ in range(500):
        value = F(rng.randint(-400, 400), rng.randint(1, 400))
        assert parse_rational(str(value)) == value


def test_arithmetic_stays_canonical():
    """Denominator positive and gcd(|num|, den) == 1 after arbitrary arithmetic."""
    rng = random.Random(42)
    acc = F(1, 3)
    for _ in range(300):
        other = F(rng.randint(-20, 20), rng.randint(1, 20))
        acc = rng.choice([acc + other, acc * other, acc - other])
        assert acc.denominator > 0
        assert math.gcd(abs(acc.numerator), acc.denominator) == 1
        assert F(acc.numerator, acc.denominator) == acc
