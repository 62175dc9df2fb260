"""The line-oriented text format for models.

Grammar (UTF-8, ``#`` starts a comment to end of line, blank lines ignored)::

    hypotheses <n>
    evidence <m>
    atom <i> <bitstring> <rational>

The two header lines come first, in that order.  ``<bitstring>`` has length
``m``; its k-th character gives the sign of ``E_{k+1}``.  ``<rational>`` is
``p/q`` or an integer.  Every number is written in ASCII digits; ``n`` is at
most :data:`MAX_HYPOTHESES` and ``m`` at most ``MAX_EVIDENCE``, each refused
at its header line.  Atoms omitted from the file are zero; repeating an
``(i, bitstring)`` pair is an error.

Canonical output orders atoms by ascending ``i``, then by the bitstring read
as a binary number, and omits zero atoms, so writing is byte-deterministic.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from .errors import ModelFormatError
from .model import Model, _check_size, _mask_bits
from .rational import NumeralLengthError, parse_integer, parse_rational

#: Files declaring more hypotheses than this are refused: the audit does work
#: per hypothesis whether or not it has mass.
MAX_HYPOTHESES = 1024


def loads(text: str) -> Model:
    """Parse the model format.  Raises :class:`ModelFormatError` on grammar
    violations and :class:`InvalidModelError` on distribution violations."""
    n = m = None
    table = {}  # (i, mask) -> index into values, in file order
    values = []  # each distinct rational token's value, in order of first appearance
    # Per-file memos: each distinct index, bitstring and rational token is
    # parsed and checked once, at its first line; only checked results enter.
    indices, masks, codes = {}, {}, {}

    def fail(message: str):
        raise ModelFormatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "atom":
            if m is None:  # set only after n
                fail("atom line before the 'hypotheses'/'evidence' headers")
            if len(tokens) != 4:
                line = raw.split("#", 1)[0].strip()
                fail(f"expected 'atom <i> <bitstring> <rational>', got {line!r}")
            _, index, bits, rational = tokens
            i = indices.get(index)
            if i is None:
                i = _integer(index, "hypothesis index", fail)
                if not 1 <= i <= n:
                    fail(f"hypothesis index {i} out of range 1..{n}")
                indices[index] = i
            mask = masks.get(bits)
            if mask is None:
                mask = masks[bits] = _mask(bits, m, fail)
            key = (i, mask)
            if key in table:
                fail(f"duplicate atom ({i}, {bits})")
            k = codes.get(rational)
            if k is None:
                try:
                    values.append(parse_rational(rational))
                except ValueError as exc:
                    fail(str(exc))
                k = codes[rational] = len(values) - 1
            table[key] = k
        elif keyword == "hypotheses":
            if n is not None:
                fail("duplicate 'hypotheses' header")
            n = _positive_int(tokens, fail)
            if n > MAX_HYPOTHESES:
                fail(f"hypothesis count {n} exceeds the limit {MAX_HYPOTHESES}")
        elif keyword == "evidence":
            if n is None:
                fail("'evidence' must follow the 'hypotheses' header")
            if m is not None:
                fail("duplicate 'evidence' header")
            m = _positive_int(tokens, fail)
            _check_size(n, m)  # the evidence cap, before any atom is read
        else:
            fail(f"unknown directive {keyword!r}")
    if n is None or m is None:
        raise ModelFormatError("missing 'hypotheses'/'evidence' headers")
    return Model._from_table(n, m, table, values)


def _positive_int(tokens, fail):
    if len(tokens) != 2:
        fail(f"expected '{tokens[0]} <count>'")
    value = _integer(tokens[1], "count", fail)
    if value < 1:
        fail(f"count must be positive, got {value}")
    return value


def _integer(token, what, fail):
    try:
        return parse_integer(token)
    except NumeralLengthError as exc:  # too long to echo
        fail(str(exc))
    except ValueError:
        fail(f"{what} is not an integer: {token!r}")


def _mask(bits, m, fail):
    """The evidence mask of a bitstring: bit k is character k."""
    if len(bits) != m or bits.strip("01"):
        fail(f"bitstring {bits!r} must have length {m} over {{0,1}}")
    return int(bits[::-1], 2)


def dumps(model: Model) -> str:
    """Canonical text form; stable byte-for-byte for equal models.  Raises
    :class:`ModelFormatError` past :data:`MAX_HYPOTHESES` or on an atom with
    more digits than :func:`loads` reads."""
    if model.n > MAX_HYPOTHESES:
        raise ModelFormatError(f"hypothesis count {model.n} exceeds the limit {MAX_HYPOTHESES}")
    lines = [f"hypotheses {model.n}", f"evidence {model.m}"]
    for i in range(1, model.n + 1):
        # Equal-length bitstrings sort as the binary numbers they spell.
        for bits, num in sorted((_mask_bits(mask, model.m), num) for mask, num in model.numerators(i)):
            try:
                lines.append(f"atom {i} {bits} {Fraction(num, model.denominator)}")
            except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
                raise ModelFormatError(f"atom ({i}, {bits}) has too many digits to read back") from None
    return "\n".join(lines) + "\n"


def load(path: str | os.PathLike) -> Model:
    return loads(Path(path).read_text(encoding="utf-8"))


def dump(model: Model, path: str | os.PathLike) -> None:
    Path(path).write_text(dumps(model), encoding="utf-8")
