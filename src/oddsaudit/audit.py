"""Audits a model against the assumptions behind odds-product updating.

The checked assumptions are: more than two hypotheses; a partition (built
into the representation); and conditional independence of every evidence
subset, both given each hypothesis and given its complement.  On top of the
assumption checks this module determines, per hypothesis, which evidence
propositions are *relevant* (able to move the posterior at all), and verifies
that no hypothesis has more than one relevant proposition — the structural
collapse that full two-sided independence forces on such models.

"Produces updating" is read as the marginal inequality
``P(E_j | H_i) != P(E_j)``.  For a non-degenerate hypothesis this is
equivalent to the likelihood ratio differing from 1; the equivalence is
asserted as a property by the test suite rather than assumed here.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePriorError
from .model import Model, Side

_PARTITION_NOTE = (
    "exhaustive and mutually exclusive by construction; atom masses total exactly 1"
)


@dataclass(frozen=True)
class IndependenceViolation:
    """One evidence subset whose joint conditional fails to factorize.

    ``joint`` is P(AND_{j in subset} E_j | side of H_i); ``product`` is the
    product of the singleton conditionals.  They differ, or this would not
    be a violation.
    """

    hypothesis: int
    side: Side
    subset: tuple[int, ...]
    joint: Fraction
    product: Fraction

    def describe(self) -> str:
        members = ",".join(f"E{j}" for j in self.subset)
        return (
            f"H{self.hypothesis} {self.side} {{{members}}}: "
            f"joint={self.joint} product={self.product}"
        )


@dataclass(frozen=True)
class TheoremOutcome:
    """Result of the at-most-one-updating-proposition check."""

    status: str  # "holds" | "violated" | "not-applicable"
    hypothesis: int | None = None
    evidence_pair: tuple[int, int] | None = None
    reason: str | None = None


@dataclass(frozen=True)
class PairIdentities:
    """Exact identities that two-sided independence forces on a pair (E_j, E_k).

    ``residuals[i]`` is the difference between the two sides of the linear
    relation

        P(Ej)P(Ek) - P(Ej)P(Ek,Hi) - P(Ej,Hi)P(Ek)
            = P(EjEk)(1 - P(Hi)) - P(EjEk,Hi)

    which must vanish for every hypothesis.  ``factorization_holds`` states
    whether P(Ej)P(Ek) = P(EjEk) unconditionally.  ``bracket_products[i]`` is
    [P(Ej) - P(Ej|Hi)]*[P(Ek) - P(Ek|Hi)], which must vanish because one of
    the two factors does.
    """

    residuals: dict[int, Fraction]
    factorization_holds: bool
    bracket_products: dict[int, Fraction]


@dataclass(frozen=True)
class AuditReport:
    """Structured audit verdicts; render with :func:`render_report`."""

    n: int
    m: int
    pairwise: bool
    independence_violations: tuple[IndependenceViolation, ...]
    relevance: dict[int, frozenset[int]]
    degenerate_hypotheses: frozenset[int]
    # Hypotheses with no mass on the all-evidence conjunction; () when every
    # all-evidence posterior is nonzero, None when the conjunction has probability 0.
    condition1_failures: tuple[int, ...] | None
    theorem: TheoremOutcome

    @property
    def clean(self) -> bool:
        """No violations and, where applicable, no multiple updating."""
        return not self.independence_violations and self.theorem.status != "violated"


def _superset_sums(model: Model, hypotheses) -> list[int]:
    """``T[S] = L * P(one of hypotheses, and every E_j true for j in S)``,
    indexed by bitmask S: the superset-sum (zeta) transform of the atoms.

    Each of Yates' m passes adds every odd entry onto its even neighbour,
    folding bit 0, and rotates that bit to the top; m * 2**(m-1) additions.
    """
    table = [0] * (1 << model.m)
    for i in hypotheses:
        for mask, num in model.numerators(i):
            table[mask] += num
    half = len(table) >> 1
    for _ in range(model.m):
        odd = table[1::2]
        table[:half] = map(operator.add, table[0::2], odd)
        table[half:] = odd
    return table


def _totals(model: Model) -> list[int]:
    """The superset sums of the whole model, built once and kept on it; never mutated."""
    totals = vars(model).get("_superset_totals")
    if totals is None:
        totals = _superset_sums(model, range(1, model.n + 1))
        object.__setattr__(model, "_superset_totals", totals)
    return totals


def _failing_subsets(table: list[int], m: int, pairwise: bool) -> list[tuple]:
    """(subset, joint, product) for each J whose identity fails on the superset
    sums ``table``, which this overwrites; sorted by size, then subset."""
    # Masks run upward, so J's lower part (J minus its top bit) comes first and
    # has had its table entry replaced by its product of singletons.
    powers = [table[0] ** size for size in range(m)]
    failing = []
    for mask in range(3, len(table)):
        top = 1 << (mask.bit_length() - 1)
        size = mask.bit_count()
        if mask == top or (pairwise and size > 2):
            continue
        joint = table[mask]
        table[mask] = product = table[mask ^ top] * table[top]
        if joint * powers[size - 1] != product:
            subset = tuple(j + 1 for j in range(m) if mask >> j & 1)
            failing.append(
                (subset, Fraction(joint, table[0]), Fraction(product, table[0] ** size))
            )
    failing.sort(key=lambda found: (len(found[0]), found[0]))
    return failing


def check_independence(
    model: Model,
    i: int,
    side: Side,
    *,
    pairwise: bool = False,
) -> list[IndependenceViolation]:
    """All evidence subsets (|J| >= 2) whose conditional fails to factorize.

    In pairwise mode only |J| = 2 subsets are tested — a strictly weaker
    check.  If the conditioning cell has probability zero there are no
    conditionals to audit and the result is empty; callers track degeneracy
    separately.

    With ``g`` the superset sums of H_i (given H) or of the other cells
    (given not-H: ``T - g``), P(AND_J E_j | side) is ``g[J] / g[{}]``, so J
    factorizes iff ``g[J] * g[{}]**(|J|-1) == prod_{j in J} g[{j}]``.
    """
    model.check_hypothesis(i)
    prior = model.prior(i)
    if prior == (0 if side is Side.GIVEN_H else 1):
        return []
    if prior == 0:
        # The complement of an empty cell is the whole model, the same for
        # every such hypothesis: its failing subsets are found once per mode.
        kept = f"_whole_model_failures_{pairwise}"
        failing = vars(model).get(kept)
        if failing is None:
            failing = _failing_subsets(list(_totals(model)), model.m, pairwise)
            object.__setattr__(model, kept, failing)
    else:
        table = _superset_sums(model, (i,))
        if side is Side.GIVEN_NOT_H:
            table[:] = map(operator.sub, _totals(model), table)
        failing = _failing_subsets(table, model.m, pairwise)
    return [IndependenceViolation(i, side, *found) for found in failing]


def relevant_evidence(model: Model, i: int) -> frozenset[int]:
    """Evidence indices able to update H_i: { j : P(E_j | H_i) != P(E_j) }.

    Degenerate hypotheses (prior 0 or 1) admit no updating and return the
    empty set.  With ``g`` and ``T`` as in :func:`check_independence`, the
    test is ``g[{j}] * T[{}] != T[{j}] * g[{}]``.
    """
    model.check_hypothesis(i)
    prior = model.prior(i)
    if prior == 0 or prior == 1:
        return frozenset()
    column = model.numerators(i)
    mass = sum(num for _, num in column)
    totals = _totals(model)
    return frozenset(
        j + 1
        for j in range(model.m)
        if sum(num for mask, num in column if mask >> j & 1) * totals[0] != totals[1 << j] * mass
    )


def _theorem_outcome(
    n: int,
    violations: tuple[IndependenceViolation, ...],
    relevance: dict[int, frozenset[int]],
) -> TheoremOutcome:
    if n <= 2:
        return TheoremOutcome(
            "not-applicable", reason=f"needs more than two hypotheses, have n={n}"
        )
    if violations:
        return TheoremOutcome(
            "not-applicable",
            reason=f"{len(violations)} independence violation(s) present",
        )
    # Degenerate hypotheses have empty relevance, so they never match here.
    for i in sorted(relevance):
        updating = sorted(relevance[i])
        if len(updating) >= 2:
            return TheoremOutcome("violated", hypothesis=i, evidence_pair=(updating[0], updating[1]))
    return TheoremOutcome("holds")


def check_assumptions(model: Model, *, pairwise: bool = False) -> AuditReport:
    """Run every audit and collect the verdicts into one report.

    ``pairwise`` is passed to :func:`check_independence`.  The theorem check
    (no hypothesis has two or more updating evidence propositions) is not
    applicable when n <= 2 or when any independence violation exists: the
    structural claim only binds models that satisfy the assumptions.
    """
    violations = tuple(
        violation
        for i in range(1, model.n + 1)
        for side in Side
        for violation in check_independence(model, i, side, pairwise=pairwise)
    )
    degenerate = frozenset(i for i in range(1, model.n + 1) if model.prior(i) in (0, 1))
    relevance = {i: relevant_evidence(model, i) for i in range(1, model.n + 1)}

    all_true = {j: True for j in range(1, model.m + 1)}
    failures = None
    if model.event_prob(all_true) != 0:
        failures = tuple(
            i
            for i in range(1, model.n + 1)
            if model.atom(i, (True,) * model.m) == 0
        )

    return AuditReport(
        n=model.n,
        m=model.m,
        pairwise=pairwise,
        independence_violations=violations,
        relevance=relevance,
        degenerate_hypotheses=degenerate,
        condition1_failures=failures,
        theorem=_theorem_outcome(model.n, violations, relevance),
    )


def check_pair_identities(model: Model, j: int, k: int) -> PairIdentities:
    """Evaluate the forced identities for the evidence pair (E_j, E_k).

    Requires j != k and every hypothesis non-degenerate (the bracket factors
    condition on each H_i).  On a model that is fully independent given each
    cell and its complement, all residuals and bracket products are exactly 0
    and the marginals factorize.
    """
    if j == k:
        raise ValueError(f"need two distinct evidence indices, got j=k={j}")
    model.validate_event({j: True, k: True})
    priors = {i: model.prior(i) for i in range(1, model.n + 1)}
    for i, p in priors.items():
        if p == 0 or p == 1:
            raise DegeneratePriorError(
                f"pair identities need 0 < P(H{i}) < 1, got {p}"
            )
    p_j = model.event_prob({j: True})
    p_k = model.event_prob({k: True})
    p_jk = model.event_prob({j: True, k: True})
    residuals: dict[int, Fraction] = {}
    brackets: dict[int, Fraction] = {}
    for i in range(1, model.n + 1):
        lhs = p_j * p_k - p_j * model.joint_prob({k: True}, i) - model.joint_prob({j: True}, i) * p_k
        rhs = p_jk * (1 - priors[i]) - model.joint_prob({j: True, k: True}, i)
        residuals[i] = lhs - rhs
        brackets[i] = (p_j - model.cond({j: True}, i, Side.GIVEN_H)) * (
            p_k - model.cond({k: True}, i, Side.GIVEN_H)
        )
    return PairIdentities(
        residuals=residuals,
        factorization_holds=p_j * p_k == p_jk,
        bracket_products=brackets,
    )


def _hyp_list(indices) -> str:
    return ", ".join(f"H{i}" for i in sorted(indices))


def render_report(report: AuditReport) -> str:
    """Deterministic line-oriented text form of an :class:`AuditReport`."""
    lines = [
        f"hypotheses: {report.n}",
        f"evidence: {report.m}",
        f"hypothesis-count (n > 2): "
        + ("ok" if report.n > 2 else f"failed (need n > 2, have n={report.n})"),
        f"partition: {_PARTITION_NOTE}",
        f"independence-mode: {'pairwise' if report.pairwise else 'full'}",
    ]
    if report.independence_violations:
        lines.append(f"independence-violations: {len(report.independence_violations)}")
        lines.extend(f"  {v.describe()}" for v in report.independence_violations)
    else:
        lines.append("independence-violations: none")
    lines.append("relevance:")
    for i in sorted(report.relevance):
        members = sorted(report.relevance[i])
        shown = ", ".join(f"E{j}" for j in members) if members else "none"
        lines.append(f"  H{i}: {shown}")
    lines.append(
        "degenerate-hypotheses: "
        + (_hyp_list(report.degenerate_hypotheses) if report.degenerate_hypotheses else "none")
    )
    if report.condition1_failures is None:
        lines.append(
            "all-evidence-posteriors-nonzero: not-evaluable "
            "(the all-evidence conjunction has probability 0)"
        )
    elif not report.condition1_failures:
        lines.append("all-evidence-posteriors-nonzero: yes")
    else:
        lines.append(
            f"all-evidence-posteriors-nonzero: no ({_hyp_list(report.condition1_failures)})"
        )
    outcome = report.theorem
    if outcome.status == "holds":
        lines.append("multiple-updating: none (at most one updating evidence item per hypothesis)")
    elif outcome.status == "violated":
        j1, j2 = outcome.evidence_pair
        lines.append(f"multiple-updating: FOUND (H{outcome.hypothesis} updated by E{j1} and E{j2})")
    else:
        lines.append(f"multiple-updating: not-applicable ({outcome.reason})")
    return "\n".join(lines) + "\n"
