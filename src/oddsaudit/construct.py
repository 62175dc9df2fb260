"""Model builders: product construction, bundled examples, measurement scenes.

The product construction assembles a joint model from hypothesis priors and
per-hypothesis evidence conditionals, making every evidence subset
conditionally independent given each hypothesis *by construction*.  Whether
independence also holds given the complements is a property of the chosen
numbers — that asymmetry is exactly what the audit module probes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import InvalidModelError
from .model import Model, _Immutable, _check_size, _exact, _shown_total


class ConditionalSpec(_Immutable):
    """Priors plus the conditional matrix P(E_j | H_i).

    ``priors[i-1]`` is P(H_i); ``cond[j-1][i-1]`` is P(E_j | H_i).  Priors
    are nonnegative and sum to exactly 1; every conditional lies in [0, 1].
    Both are kept as tuples of ``Fraction``; a spec is immutable, and equality,
    hash and ``repr`` read the pair ``(priors, cond)``.
    """

    __slots__ = ("priors", "cond")

    def __init__(self, priors, cond) -> None:
        priors = tuple(_exact(p, "prior") for p in priors)
        if not priors:
            raise InvalidModelError("need at least one hypothesis prior")
        if any(p < 0 for p in priors):
            raise InvalidModelError("priors must be nonnegative")
        total = sum(priors, Fraction(0))
        if total != 1:
            raise InvalidModelError(f"priors total {_shown_total(total)}, expected exactly 1")
        if not cond:
            raise InvalidModelError("need at least one evidence conditional row")
        rows = []
        for j, row in enumerate(cond, 1):
            row = tuple(_exact(c, f"conditional for E{j}") for c in row)
            if len(row) != len(priors):
                raise InvalidModelError(
                    f"conditional row for E{j} has {len(row)} entries, expected {len(priors)}"
                )
            if any(not 0 <= c <= 1 for c in row):
                raise InvalidModelError(f"conditionals for E{j} must lie in [0, 1]")
            rows.append(row)
        super().__init__(priors, tuple(rows))

    @property
    def n(self) -> int:
        return len(self.priors)

    @property
    def m(self) -> int:
        return len(self.cond)


def from_conditionals(spec: ConditionalSpec) -> Model:
    """Build the product model: atom(i, s) = P(H_i) * prod_j P(E_j^{s_j} | H_i).

    The result reproduces the priors and singleton conditionals exactly, and
    every evidence subset is conditionally independent given each hypothesis
    with positive prior.
    """
    _check_size(spec.n, spec.m)  # before the n * 2**m entries are built
    table, values = {}, []  # (i, mask) -> index into values
    for i, prior in enumerate(spec.priors, 1):
        column = {0: prior} if prior else {}  # mask -> value; each E_j splits every entry in two
        for j0, row in enumerate(spec.cond):  # in place, so the masks come in sign_vectors order
            bit, c, d = 1 << j0, row[i - 1], 1 - row[i - 1]
            column = {key: v for mask, value in column.items()
                      for key, v in ((mask, value * d), (mask | bit, value * c)) if v}
        table.update(((i, mask), k) for k, mask in enumerate(column, len(values)))
        values += column.values()
    return Model._from_table(spec.n, spec.m, table, values)


_F = Fraction

_EXAMPLES = {
    # Three hypotheses, certainty-producing second proposition: E2 pins H1 while
    # E1 is uninformative everywhere.  Some all-evidence posteriors are zero.
    "glymour": ((_F(1, 3),) * 3, ((_F(1, 2),) * 3, (1, 0, 0))),
    # Same priors and E1 row, but E2 conditionals moved to 1/2, 1/3, 1/6: all
    # posteriors stay nonzero, yet E2 still updates H1 and H3.
    "modified": ((_F(1, 3),) * 3, ((_F(1, 2),) * 3, (_F(1, 2), _F(1, 3), _F(1, 6)))),
    # Four hypotheses where both propositions update something: E1 moves H1/H2,
    # E2 moves H3/H4 — still never two updaters for the same hypothesis.
    "four": ((_F(1, 4),) * 4, ((_F(1, 3), _F(2, 3), _F(1, 2), _F(1, 2)),
                              (_F(1, 2), _F(1, 2), _F(1, 3), _F(2, 3)))),
}

EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))


def example_model(name: str) -> Model:
    """One of the bundled counterexample tables, glymour, modified or four: a product
    spec of equal priors and one row of P(E_j | H_i) per E_j, built by :func:`from_conditionals`."""
    try:
        priors, cond = _EXAMPLES[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose one of {', '.join(EXAMPLE_NAMES)}"
        ) from None
    return from_conditionals(ConditionalSpec(priors, cond))


def measurement_scenario(
    values: Sequence,
    weights: Sequence,
    noise: Mapping,
    e1_test: Callable[[Fraction], bool],
    e2_test: Callable[[Fraction], bool],
) -> Model:
    """Two noisy readings of one discrete quantity, as a joint model.

    A quantity takes value ``values[i]`` with probability ``weights[i]``
    (hypothesis H_i).  Two instruments report ``y = x + err1`` and
    ``z = x + err2`` with errors drawn independently from ``noise`` (a finite
    signed distribution, offset -> probability).  E_1 is ``e1_test(y)`` and
    E_2 is ``e2_test(z)``.

    Because the two errors are independent given the true value, every
    hypothesis cell gets conditionally independent evidence by construction.
    Independence given the *complement* of a cell is not granted and, with
    three or more well-separated values, typically fails.
    """
    values = [_exact(v, "measured value") for v in values]
    if len(values) < 2:
        raise InvalidModelError(
            "need at least two distinct values: a one-cell partition has no complement"
        )
    if len(set(values)) != len(values):
        raise InvalidModelError("values must be distinct")
    if len(weights) != len(values):
        raise InvalidModelError(f"got {len(weights)} weights for {len(values)} values")
    weights = [_exact(w, "weight") for w in weights]
    if not noise:
        raise InvalidModelError("noise distribution must be nonempty")
    offsets = [_exact(d, "noise offset") for d in noise.keys()]
    probs = [_exact(p, "noise probability") for p in noise.values()]
    if any(p < 0 for p in probs):
        raise InvalidModelError("noise probabilities must be nonnegative")
    if sum(probs, Fraction(0)) != 1:
        raise InvalidModelError("noise probabilities must total exactly 1")

    reachable = sorted({v + d for v in values for d in offsets})
    for label, test in (("first", e1_test), ("second", e2_test)):
        if not any(test(w) for w in reachable):
            raise InvalidModelError(
                f"the {label} predicate selects no reachable measurement value"
            )

    def conditional(test) -> tuple[Fraction, ...]:
        return tuple(
            sum((p for d, p in zip(offsets, probs) if test(v + d)), Fraction(0))
            for v in values
        )

    spec = ConditionalSpec(
        priors=tuple(weights),
        cond=(conditional(e1_test), conditional(e2_test)),
    )
    return from_conditionals(spec)
