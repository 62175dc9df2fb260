"""Odds-form Bayesian updating with multiplicative likelihood-ratio factors.

The scheme multiplies the prior odds on a hypothesis by one likelihood ratio
per observed evidence literal.  Odds are kept as projective pairs
``(for_h, against_h)`` rather than quotients so that certainty-producing
evidence (a conditional probability of zero on one side) flows through the
product without division by zero: ``(1, 0)`` is "infinite odds", and the pair
only becomes illegal when both components vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegeneratePriorError, ImpossibleEvidenceError, InvalidModelError
from .model import Event, Model, Side, _exact


@dataclass(frozen=True, eq=False)
class OddsPair:
    """Projective odds ``(for_h, against_h)``, both >= 0, never both zero.

    ``(a, b)`` and ``(λa, λb)`` describe the same odds for any λ > 0, so
    equality cross-multiplies instead of comparing components.
    """

    for_h: Fraction
    against_h: Fraction

    def __post_init__(self) -> None:
        for name in ("for_h", "against_h"):
            value = _exact(getattr(self, name), f"odds component {name}")
            if value < 0:
                raise InvalidModelError(f"odds component {name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.for_h == 0 and self.against_h == 0:
            raise ImpossibleEvidenceError("odds pair (0, 0) is undefined")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OddsPair):
            return NotImplemented
        return self.for_h * other.against_h == self.against_h * other.for_h

    def __hash__(self) -> int:
        return hash(("OddsPair", self.posterior()))

    def posterior(self) -> Fraction:
        """The probability these odds assign the hypothesis: a/(a+b)."""
        return self.for_h / (self.for_h + self.against_h)


def prior_odds(model: Model, i: int) -> OddsPair:
    """(P(H_i), P(not-H_i)).  Defined for every hypothesis: the components sum to 1."""
    p = model.prior(i)
    return OddsPair(p, 1 - p)


def likelihood_pair(model: Model, j: int, sign: bool, i: int) -> OddsPair:
    """(P(E_j^sign | H_i), P(E_j^sign | not-H_i)).

    Needs 0 < P(H_i) < 1 so that both conditionals exist.  A negated literal
    uses the complement conditional, 1 - P(E_j | .), on each side.  If the
    literal is impossible on both sides there is no usable factor and
    :class:`ImpossibleEvidenceError` is raised.
    """
    model.check_hypothesis(i)
    prior = model.prior(i)
    if prior == 0 or prior == 1:
        raise DegeneratePriorError(
            f"likelihood ratio for H{i} needs 0 < P(H{i}) < 1, got {prior}"
        )
    event = {j: sign}
    given_h = model.cond(event, i, Side.GIVEN_H)
    given_not_h = model.cond(event, i, Side.GIVEN_NOT_H)
    if given_h == 0 and given_not_h == 0:
        raise ImpossibleEvidenceError(
            f"E{j}={'1' if sign else '0'} has probability 0 both given H{i} and given not-H{i}"
        )
    return OddsPair(given_h, given_not_h)


def odds_update(prior: OddsPair, factors: Iterable[OddsPair]) -> OddsPair:
    """Componentwise product of the prior odds and every factor.

    The result is projectively independent of factor order.  A ``(0, 0)``
    product means the evidence combination is impossible under both the
    hypothesis and its complement, which is a hard error distinct from
    conditioning on a zero-probability cell.
    """
    for_h, against_h = prior.for_h, prior.against_h
    for factor in factors:
        for_h *= factor.for_h
        against_h *= factor.against_h
    if for_h == 0 and against_h == 0:
        raise ImpossibleEvidenceError(
            "evidence combination is impossible both given H and given not-H"
        )
    return OddsPair(for_h, against_h)


def odds_posterior(model: Model, event: Event, i: int) -> Fraction:
    """Posterior P(H_i | event) via the odds-product scheme.

    One likelihood factor per literal of ``event``; unobserved propositions
    contribute nothing.  With no literals this is exactly the prior.  Exact
    agreement with :meth:`Model.posterior` is guaranteed only when the model
    is conditionally independent given H_i and given not-H_i.
    """
    model.validate_event(event)
    factors = [likelihood_pair(model, j, sign, i) for j, sign in sorted(event.items())]
    return odds_update(prior_odds(model, i), factors).posterior()
