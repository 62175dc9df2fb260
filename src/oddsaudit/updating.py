"""Odds-form Bayesian updating with multiplicative likelihood-ratio factors.

The scheme multiplies the prior odds on a hypothesis by one likelihood ratio
per observed evidence literal.  Odds are kept as projective integer pairs
``(for_h, against_h)``: ``(a, b)`` and ``(λa, λb)`` are the same odds, so no
quotient is ever taken and certainty-producing evidence (a conditional
probability of zero on one side) flows through the product without division
by zero.  Only a ``(0, 0)`` pair is illegal.

With ``L`` the model's :attr:`~oddsaudit.model.Model.denominator` and ``M``,
``a``, ``b`` equal to ``L`` times P(H_i), P(E_j^s, H_i) and P(E_j^s, not-H_i),
the prior odds are ``(M, L - M)`` and the likelihood pair of the literal
``E_j^s`` is ``(a * (L - M), b * M)``, proportional to
(P(E_j^s | H_i), P(E_j^s | not-H_i)).  Every factor is an integer masked sum
over the atom numerators, and one ``Fraction`` is built at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import DegeneratePriorError, ImpossibleEvidenceError
from .model import Event, Model


def odds_posteriors(model: Model, event: Event) -> Callable[[int], Fraction]:
    """The function ``i -> P(H_i | event)`` of :func:`odds_posterior`, with
    every hypothesis' masked sum of each literal taken in one scan of the atoms."""
    model.validate_event(event)
    literals = []
    for j, sign in sorted(event.items()):
        bit = 1 << (j - 1)
        joint = model._masked_sums(bit, bit if sign else 0)
        literals.append((j, sign, joint, sum(joint.values())))
    L = model.denominator

    def posterior(i: int) -> Fraction:
        M = model.mass(i)
        if event and M in (0, L):
            raise DegeneratePriorError(
                f"likelihood ratio for H{i} needs 0 < P(H{i}) < 1, got {M // L}"
            )
        for_h, against_h = M, L - M
        for j, sign, joint, total in literals:
            a = joint.get(i, 0)
            b = total - a
            if a == 0 and b == 0:
                raise ImpossibleEvidenceError(
                    f"E{j}={'1' if sign else '0'} has probability 0 both given H{i} and given not-H{i}"
                )
            for_h *= a * (L - M)
            against_h *= b * M
        if for_h == 0 and against_h == 0:
            raise ImpossibleEvidenceError(
                "evidence combination is impossible both given H and given not-H"
            )
        return Fraction(for_h, for_h + against_h)

    return posterior


def odds_posterior(model: Model, event: Event, i: int) -> Fraction:
    """Posterior P(H_i | event) via the odds-product scheme.

    One likelihood pair per literal of ``event``, in index order; unobserved
    propositions contribute nothing.  With no literals this is exactly the
    prior.  A literal needs 0 < P(H_i) < 1 (else :class:`DegeneratePriorError`)
    and a nonzero probability on at least one side (else
    :class:`ImpossibleEvidenceError`); a product of ``(0, 0)`` means the
    combination is impossible both given H_i and given not-H_i, also an
    :class:`ImpossibleEvidenceError`.  Exact agreement with
    :meth:`Model.posterior` is guaranteed only when the model is conditionally
    independent given H_i and given not-H_i.
    """
    return odds_posteriors(model, event)(i)
