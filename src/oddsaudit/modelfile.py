"""The line-oriented text format for models.

Grammar (UTF-8, ``#`` starts a comment to end of line, blank lines ignored)::

    hypotheses <n>
    evidence <m>
    atom <i> <bitstring> <rational>

The two header lines come first, in that order.  ``<bitstring>`` has length
``m``; its k-th character gives the sign of ``E_{k+1}``.  ``<rational>`` is
``p/q`` or an integer.  Every number is written in ASCII digits, and ``n``
is at most :data:`MAX_HYPOTHESES`.  Atoms omitted from the file are zero;
repeating an ``(i, bitstring)`` pair is an error.

Canonical output orders atoms by ascending ``i``, then by the bitstring read
as a binary number, and omits zero atoms, so writing is byte-deterministic.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ModelFormatError
from .model import Model, signs_to_bits
from .rational import parse_integer, parse_rational

#: Files declaring more hypotheses than this are refused: the audit does work
#: per hypothesis whether or not it has mass.
MAX_HYPOTHESES = 1024


def loads(text: str) -> Model:
    """Parse the model format.  Raises :class:`ModelFormatError` on grammar
    violations and :class:`InvalidModelError` on distribution violations."""
    n = m = None
    atoms = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        def fail(message: str):
            raise ModelFormatError(f"line {lineno}: {message}")

        if keyword == "hypotheses":
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
        elif keyword == "atom":
            if n is None or m is None:
                fail("atom line before the 'hypotheses'/'evidence' headers")
            if len(tokens) != 4:
                fail(f"expected 'atom <i> <bitstring> <rational>', got {line!r}")
            try:
                i = parse_integer(tokens[1])
            except ValueError:
                fail(f"hypothesis index is not an integer: {tokens[1]!r}")
            if not 1 <= i <= n:
                fail(f"hypothesis index {i} out of range 1..{n}")
            bits = tokens[2]
            if len(bits) != m or bits.strip("01"):
                fail(f"bitstring {bits!r} must have length {m} over {{0,1}}")
            key = (i, tuple(ch == "1" for ch in bits))
            if key in atoms:
                fail(f"duplicate atom ({i}, {bits})")
            try:
                atoms[key] = parse_rational(tokens[3])
            except ValueError as exc:
                fail(str(exc))
        else:
            fail(f"unknown directive {keyword!r}")
    if n is None or m is None:
        raise ModelFormatError("missing 'hypotheses'/'evidence' headers")
    return Model(n=n, m=m, atoms=atoms)


def _positive_int(tokens, fail):
    if len(tokens) != 2:
        fail(f"expected '{tokens[0]} <count>'")
    try:
        value = parse_integer(tokens[1])
    except ValueError:
        fail(f"count is not an integer: {tokens[1]!r}")
    if value < 1:
        fail(f"count must be positive, got {value}")
    return value


def dumps(model: Model) -> str:
    """Canonical text form; stable byte-for-byte for equal models."""
    lines = [f"hypotheses {model.n}", f"evidence {model.m}"]
    # Sign tuples sort in bitstring order, since False < True.
    lines.extend(
        f"atom {i} {signs_to_bits(signs)} {value}"
        for (i, signs), value in sorted(model.atoms.items())
    )
    return "\n".join(lines) + "\n"


def load(path: str | os.PathLike) -> Model:
    return loads(Path(path).read_text(encoding="utf-8"))


def dump(model: Model, path: str | os.PathLike) -> None:
    Path(path).write_text(dumps(model), encoding="utf-8")
