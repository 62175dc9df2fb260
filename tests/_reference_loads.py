"""A reference for ``oddsaudit.modelfile.loads``: the loader's earlier line
walk, frozen here so that tests can compare the loader with it.

It splits every line for a comment, tests the header branches first, maps
each atom to its ``Fraction`` and builds the model through the public
``Model(n, m, atoms)``, so the evidence cap is refused only after the whole
file is read.  Unlike ``_brute`` it uses the package's numeral parsers and
``Model``: it checks the loader's walk and encoding, not the arithmetic.
"""

from oddsaudit import Model, ModelFormatError
from oddsaudit.modelfile import MAX_HYPOTHESES
from oddsaudit.rational import NumeralLengthError, parse_integer, parse_rational


def loads(text: str) -> Model:
    n = m = None
    table = {}  # (i, mask) -> value, in file order
    indices, masks, values = {}, {}, {}

    def fail(message: str):
        raise ModelFormatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword = tokens[0]
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
                if len(bits) != m or bits.strip("01"):
                    fail(f"bitstring {bits!r} must have length {m} over {{0,1}}")
                mask = masks[bits] = int(bits[::-1], 2)
            key = (i, mask)
            if key in table:
                fail(f"duplicate atom ({i}, {bits})")
            value = values.get(rational)
            if value is None:
                try:
                    value = values[rational] = parse_rational(rational)
                except ValueError as exc:
                    fail(str(exc))
            table[key] = value
        else:
            fail(f"unknown directive {keyword!r}")
    if n is None or m is None:
        raise ModelFormatError("missing 'hypotheses'/'evidence' headers")
    signs = {mask: tuple(bool(mask >> k & 1) for k in range(m)) for mask in masks.values()}
    return Model(n, m, {(i, signs[mask]): value for (i, mask), value in table.items()})


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
    except NumeralLengthError as exc:
        fail(str(exc))
    except ValueError:
        fail(f"{what} is not an integer: {token!r}")
