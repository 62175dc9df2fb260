"""Joint probability models over a hypothesis partition and binary evidence.

A :class:`Model` fixes ``n`` mutually exclusive, jointly exhaustive
hypotheses ``H_1..H_n`` and ``m`` binary evidence propositions ``E_1..E_m``,
and keeps the exact probability of every nonzero atom ``H_i AND E_1^{s_1} AND
... AND E_m^{s_m}`` (an atom pins the truth value of every proposition) as an
integer numerator over one common denominator ``L``.  The
partition structure is therefore built in: exhaustiveness and exclusivity are
properties of the representation, not runtime checks, and the complement of a
hypothesis is always the union of the remaining cells.

All probabilities are exact rationals.  Conditioning on an event of
probability zero raises :class:`~oddsaudit.errors.ZeroProbabilityError`;
there is no sentinel value.

Conventions used throughout the package:

* hypothesis indices ``i`` and evidence indices ``j`` are 1-based;
* a sign vector is a ``tuple[bool, ...]`` of length ``m`` whose entry ``j-1``
  is the truth value of ``E_j`` in the atom;
* an event is a mapping ``{j: required_sign}``; the empty mapping is the
  sure event.
"""

from __future__ import annotations

import enum
import math
import numbers
from fractions import Fraction
from itertools import compress, product, repeat
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .errors import InvalidModelError, ZeroProbabilityError

Signs = tuple[bool, ...]
AtomKey = tuple[int, Signs]
Event = Mapping[int, bool]

#: Models with more evidence propositions than this are refused: both audit
#: modes build dense tables over all 2**m evidence subsets.
MAX_EVIDENCE = 16
#: Cap on the bits of the lcm of a model's atom denominators, to which every atom is scaled.
MAX_DENOMINATOR_BITS = 1 << 15


class Side(enum.Enum):
    """Which partition cell an operation conditions on."""

    GIVEN_H = "given-H"
    GIVEN_NOT_H = "given-not-H"

    def __str__(self) -> str:
        return self.value


def bits_to_signs(bits: str) -> Signs:
    """Convert a ``{0,1}`` string to a sign vector; character k is E_{k+1}."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"sign bitstring must be nonempty over {{0,1}}: {bits!r}")
    return tuple(ch == "1" for ch in bits)


def signs_to_bits(signs: Signs) -> str:
    return "".join("1" if s else "0" for s in signs)


def sign_vectors(m: int) -> Iterator[Signs]:
    """All 2**m sign vectors, ordered by their bitstring read as a binary number."""
    return product((False, True), repeat=m)


def _check_signs(signs, m: int, error: type) -> None:
    if type(signs) is not tuple or len(signs) != m or not all(map(isinstance, signs, repeat(bool))):
        raise error(f"sign vector must be a tuple of m={m} bools, got {signs!r}")


def _exact(value, what: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidModelError(f"{what} must be exact (int or Fraction), got float {value!r}")
    if not isinstance(value, numbers.Rational):  # text goes through rational.parse_rational
        raise InvalidModelError(f"{what} is not a rational value: {value!r}")
    return Fraction(value)


def _shown_total(total: Fraction) -> Fraction | str:
    """``total`` for an error message; one too long to print says how it misses 1."""
    if max(total.numerator, total.denominator).bit_length() > 256:
        return "less than 1" if total < 1 else "more than 1"
    return total


def _mask_bits(mask: int, m: int) -> str:
    """The bitstring of an evidence mask: character k is bit k, the sign of E_{k+1}."""
    return format(mask, f"0{m}b")[::-1]


def _check_size(n: int, m: int) -> None:
    """Refuse ``n`` or ``m`` that is not a positive int, and ``m`` past :data:`MAX_EVIDENCE`."""
    if type(n) is not int or n < 1:
        raise InvalidModelError(f"need at least one hypothesis, got n={n!r}")
    if type(m) is not int or m < 1:
        raise InvalidModelError(f"need at least one evidence proposition, got m={m!r}")
    if m > MAX_EVIDENCE:
        raise InvalidModelError(f"m={m} exceeds the evidence cap {MAX_EVIDENCE} "
                                "(audits enumerate 2**m subsets)")


def _checked_values(n: int, m: int, atoms, table: dict) -> Iterator[Fraction]:
    """Check ``atoms`` and then each key and value in turn, setting ``table[i, mask]``
    to the value's position and yielding the value."""
    if not isinstance(atoms, Mapping):
        raise InvalidModelError(f"atoms must be a mapping, got {type(atoms).__name__}")
    bits = [1 << k for k in range(m)]
    for k, (key, value) in enumerate(atoms.items()):
        if type(key) is not tuple or len(key) != 2:
            raise InvalidModelError(f"atom key must be (i, signs): {key!r}")
        i, signs = key
        if type(i) is not int or not 1 <= i <= n:
            raise InvalidModelError(f"hypothesis index out of range 1..{n}: {i!r}")
        _check_signs(signs, m, InvalidModelError)
        if type(value) is not Fraction:
            value = _exact(value, f"atom probability for ({i}, {signs_to_bits(signs)})")
        table[i, sum(compress(bits, signs))] = k
        yield value


class _Immutable:
    """The base of every value: a subclass's ``__slots__`` are its fields, which
    ``__init__`` takes by position or by name and sets once; after that, assigning
    or deleting one raises :class:`AttributeError`.  ``==`` and ``hash`` read the
    tuple that ``_identity()`` returns, by default the fields; pickles and copies
    carry every attribute, and ``repr`` reads ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__slots__
        if kwargs:  # the fields after those given by position, by name
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def _identity(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        return self._identity() == other._identity() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._identity())


class Model(_Immutable):
    """Exact joint distribution over ``n`` hypotheses and ``m`` evidence bits.

    ``Model(n, m, atoms)`` takes ``atoms`` mapping ``(i, signs)`` (an int in
    ``1..n``, a tuple of ``m`` bools; nothing else is accepted) to the atom
    probability; omitted atoms are zero.  Construction checks that values are
    nonnegative and total exactly 1, and keeps only the integer form: every
    query is an integer sum over :meth:`numerators`, the nonzero atoms scaled
    by :attr:`denominator` ``L`` (the lcm of the atom denominators).  The
    caller's mapping is not kept.  Equality and hash compare the integer
    form, and :attr:`atoms` is a fresh read-only view of it on each read.
    A model is immutable: assigning or deleting an attribute raises
    :class:`AttributeError`.
    """

    __slots__ = ("n", "m", "denominator", "_masses", "_columns")

    def __init__(self, n: int, m: int, atoms: Mapping[AtomKey, Fraction]) -> None:
        table: dict[tuple[int, int], int] = {}
        self._build(n, m, table, _checked_values(n, m, atoms, table))

    @classmethod
    def _from_table(cls, n: int, m: int, table: Mapping[tuple[int, int], int], values) -> Model:
        """The model of ``table`` and ``values``, read as :meth:`_build` reads them; the
        caller has checked each key (``1 <= i <= n``, ``0 <= mask < 2**m``)."""
        model = object.__new__(cls)
        model._build(n, m, table, values)
        return model

    def _build(self, n: int, m: int, table, values) -> None:
        """Check ``n`` and ``m``, then set them and the integer form of ``table``, which maps
        each checked atom key ``(i, mask)`` to an index into ``values``; a generator ``values``
        may fill ``table`` as it goes.  Refuses in order a negative value, a common denominator
        past :data:`MAX_DENOMINATOR_BITS` (each naming its first atom) and a total other than 1."""
        _check_size(n, m)
        checked: list[Fraction] = []
        for value in values:
            if value.numerator < 0:
                i, mask = next(key for key, code in table.items() if code == len(checked))
                raise InvalidModelError(
                    f"negative atom probability {value} for ({i}, {_mask_bits(mask, m)})")
            checked.append(value)
        denominators = dict.fromkeys(v.denominator for v in checked)  # in order of first appearance
        scale = 1
        for q in denominators:
            if (scale := math.lcm(scale, q)).bit_length() > MAX_DENOMINATOR_BITS:
                i, mask = next(key for key, k in table.items() if checked[k].denominator == q)
                raise InvalidModelError(f"atom ({i}, {_mask_bits(mask, m)}) takes the common "
                                        f"denominator past {MAX_DENOMINATOR_BITS} bits")
        factors = {q: scale // q for q in denominators}  # a big-int division: once per denominator
        scaled = [value.numerator * factors[value.denominator] for value in checked]
        columns: dict[int, list[tuple[int, int]]] = {}
        for (i, mask), k in table.items():
            if num := scaled[k]:
                columns.setdefault(i, []).append((mask, num))
        masses = {i: sum(num for _, num in column) for i, column in columns.items()}
        total = sum(masses.values())
        if total != scale:
            shown = _shown_total(Fraction(total, scale))
            raise InvalidModelError(f"atom probabilities total {shown}, expected exactly 1")
        super().__init__(n, m, scale, masses, {i: tuple(c) for i, c in columns.items()})

    @property
    def atoms(self) -> Mapping[AtomKey, Fraction]:
        """A read-only view of the nonzero atoms, ``(i, signs) -> Fraction``,
        built anew from the integer form on each read."""
        return MappingProxyType({
            (i, tuple(bool(mask >> k & 1) for k in range(self.m))): Fraction(num, self.denominator)
            for i, column in self._columns.items() for mask, num in column
        })

    def _identity(self) -> tuple:
        """What equal models share: ``n``, ``m``, ``L`` and each column as a set."""
        columns = frozenset((i, frozenset(column)) for i, column in self._columns.items())
        return self.n, self.m, self.denominator, columns

    def __repr__(self) -> str:
        count = sum(map(len, self._columns.values()))
        return f"Model(n={self.n}, m={self.m}, {count} nonzero atoms)"

    # -- lookups ---------------------------------------------------------

    def check_hypothesis(self, i: int) -> None:
        if type(i) is not int or not 1 <= i <= self.n:
            raise IndexError(f"hypothesis index out of range 1..{self.n}: {i!r}")

    def validate_event(self, event: Event) -> None:
        for j, sign in event.items():
            if type(j) is not int or not 1 <= j <= self.m:
                raise ValueError(f"evidence index out of range 1..{self.m}: {j!r}")
            if not isinstance(sign, bool):
                raise ValueError(f"evidence sign for E{j} must be a bool, got {sign!r}")

    def atom(self, i: int, signs: Signs) -> Fraction:
        """P(H_i AND the full conjunction described by ``signs``)."""
        self.check_hypothesis(i)
        _check_signs(signs, self.m, ValueError)
        return self.joint_prob(dict(enumerate(signs, 1)), i)

    def numerators(self, i: int) -> tuple[tuple[int, int], ...]:
        """H_i's nonzero atoms as ``(mask, L * probability)`` pairs, ``L`` being
        :attr:`denominator`; bit ``j-1`` of ``mask`` is the sign of ``E_j``."""
        self.check_hypothesis(i)
        return self._columns.get(i, ())

    def mass(self, i: int) -> int:
        """L * P(H_i): the total of the hypothesis' column of numerators."""
        self.check_hypothesis(i)
        return self._masses.get(i, 0)

    def _masked_sum(self, care: int, want: int, i: int | None = None) -> int:
        """L * P(the evidence bits in ``care`` equal those of ``want``), AND H_i
        when ``i`` is given; ``i`` and the masks are taken as already checked."""
        columns = self._columns.values() if i is None else (self._columns.get(i, ()),)
        return sum(num for column in columns for mask, num in column if mask & care == want)

    def _masked_sums(self, care: int, want: int) -> dict[int, int]:
        """:meth:`_masked_sum` AND H_i for every H_i that has atoms, from one scan."""
        return {i: self._masked_sum(care, want, i) for i in self._columns}

    def _event_masks(self, event: Event) -> tuple[int, int]:
        """The ``(care, want)`` masks of a checked event: the bits it fixes, and those it sets."""
        self.validate_event(event)
        care = sum(1 << (j - 1) for j in event)
        want = sum(1 << (j - 1) for j, sign in event.items() if sign)
        return care, want

    # -- marginals and conditionals --------------------------------------

    def prior(self, i: int) -> Fraction:
        """P(H_i): total mass of the hypothesis' column."""
        return Fraction(self.mass(i), self.denominator)

    def event_prob(self, event: Event) -> Fraction:
        """P(event): mass of all atoms consistent with every literal."""
        return Fraction(self._masked_sum(*self._event_masks(event)), self.denominator)

    def joint_prob(self, event: Event, i: int) -> Fraction:
        """P(event AND H_i)."""
        self.check_hypothesis(i)
        return Fraction(self._masked_sum(*self._event_masks(event), i), self.denominator)

    def cond(self, event: Event, i: int, side: Side) -> Fraction:
        """P(event | H_i) or P(event | not-H_i), per ``side``.

        The complement cell is the union of the other hypotheses, so its mass
        is exactly ``1 - P(H_i)``.
        """
        if not isinstance(side, Side):
            raise ValueError(f"side must be a Side member, got {side!r}")
        mass, masks = self.mass(i), self._event_masks(event)
        top = self._masked_sum(*masks, i)
        if side is Side.GIVEN_NOT_H:
            mass, top = self.denominator - mass, self._masked_sum(*masks) - top
        if mass == 0:
            raise ZeroProbabilityError(
                f"cannot condition on {'H' if side is Side.GIVEN_H else 'not-H'}{i}: "
                f"it has probability 0"
            )
        return Fraction(top, mass)

    def posteriors(self, event: Event) -> Callable[[int], Fraction]:
        """The function ``i -> P(H_i | event)`` by direct conditioning, from one scan
        of the atoms; the event is checked here, ``i`` on each call, which raises
        on an event of probability 0."""
        joint = self._masked_sums(*self._event_masks(event))
        total = sum(joint.values())

        def posterior(i: int) -> Fraction:
            self.check_hypothesis(i)
            if total == 0:
                raise ZeroProbabilityError("cannot condition on an event of probability 0")
            return Fraction(joint.get(i, 0), total)

        return posterior
