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

import operator
from fractions import Fraction

from .errors import DegeneratePriorError
from .model import Model, Side, _Immutable
from .rational import _rational_text

_PARTITION_NOTE = (
    "exhaustive and mutually exclusive by construction; atom masses total exactly 1"
)


class IndependenceViolation(_Immutable):
    """One evidence subset whose joint conditional fails to factorize.

    ``joint`` is P(AND_{j in subset} E_j | side of H_i); ``product`` is the
    product of the singleton conditionals.  They differ, or this would not
    be a violation.  Both are read from ``_figures``, the walk's integers
    ``(mask of J, joint * base, product * base**|J|, base)`` with ``base`` the
    side's mass times ``L``, and ``==`` and ``hash`` compare what they read.
    """

    __slots__ = ("hypothesis", "side", "_figures")

    def __init__(self, hypothesis: int, side: Side, _figures: tuple[int, int, int, int]) -> None:
        object.__setattr__(self, "hypothesis", hypothesis)  # directly: one per failing subset
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "_figures", _figures)

    @property
    def subset(self) -> tuple[int, ...]:
        mask = self._figures[0]
        return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)

    @property
    def joint(self) -> Fraction:
        return Fraction(self._figures[1], self._figures[3])

    @property
    def product(self) -> Fraction:
        mask, _, product, base = self._figures
        return Fraction(product, base ** mask.bit_count())

    def _identity(self) -> tuple:
        return self.hypothesis, self.side, self.subset, self.joint, self.product

    def describe(self, names: dict[int, str] | None = None) -> str:
        """The report line; ``names`` keeps each mask's member text across one render."""
        mask, joint, product, base = self._figures
        names = {} if names is None else names
        if (members := names.get(mask)) is None:
            members = names[mask] = ",".join(f"E{j}" for j in self.subset)
        name = f"H{self.hypothesis} {self.side.value} {{{members}}}"
        return (f"{name}: joint={_rational_text(joint, base, name)} "
                f"product={_rational_text(product, base ** mask.bit_count(), name)}")


class TheoremOutcome(_Immutable):
    """Result of the at-most-one-updating-proposition check: ``status`` is "holds",
    "violated" (``hypothesis``, ``evidence_pair``) or "not-applicable" (``reason``)."""

    __slots__ = ("status", "hypothesis", "evidence_pair", "reason")

    def __init__(self, status: str, hypothesis=None, evidence_pair=None, reason=None) -> None:
        super().__init__(status, hypothesis, evidence_pair, reason)


class PairIdentities(_Immutable):
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

    __slots__ = ("residuals", "factorization_holds", "bracket_products")


class AuditReport(_Immutable):
    """Structured audit verdicts; render with :func:`render_report`.
    ``condition1_failures`` lists the hypotheses with no mass on the all-evidence
    conjunction, or is None when that conjunction has probability 0."""

    __slots__ = ("n", "m", "pairwise", "independence_violations", "relevance",
                 "degenerate_hypotheses", "condition1_failures", "theorem")

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


def _failing_subsets(table: list[int], m: int, pairwise: bool) -> list[tuple[int, int, int, int]]:
    """(J, table[J], its product of singletons, table[0]) for each bitmask J of
    size 2 to m (2 only if ``pairwise``) whose identity fails on the superset
    sums ``table``, which this overwrites.

    Each size's masks extend the previous size's by a higher index, so J comes
    in order of size, then subset, and J minus its top bit has already had its
    table entry replaced by its product of singletons.
    """
    base = table[0]
    level = [1 << j for j in range(m)]
    power = 1
    failing = []
    for size in range(2, 3 if pairwise else m + 1):
        level = [mask | 1 << j for mask in level for j in range(mask.bit_length(), m)]
        power *= base  # base ** (size - 1)
        for mask in level:
            top = 1 << (mask.bit_length() - 1)
            joint = table[mask]
            table[mask] = product = table[mask ^ top] * table[top]
            if joint * power != product:
                failing.append((mask, joint, product, base))
    return failing


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

    The violations come by hypothesis, then side (given H_i, given not-H_i):
    each evidence subset (|J| >= 2; only |J| = 2 in the weaker ``pairwise``
    mode) whose conditional fails to factorize.  A side whose conditioning
    cell has probability zero has nothing to audit.  ``relevance[i]`` is
    { j : P(E_j | H_i) != P(E_j) }, empty for a hypothesis of prior 0 or 1.
    The theorem check (no hypothesis has two or more updating evidence
    propositions) is not applicable when n <= 2 or when any independence
    violation exists: the structural claim only binds models that satisfy
    the assumptions.

    The tables are local to the run: the whole model's ``T`` once, then one
    ``g`` per hypothesis of prior strictly between 0 and 1, read for relevance
    (``g[{j}] * L != T[{j}] * L * P(H_i)``), walked given H and, as ``T - g``,
    given not-H.  On a cell's table, J factorizes iff
    ``g[J] * g[{}]**(|J|-1) == prod_{j in J} g[{j}]``.  A cell of prior 0 (1)
    has only its given-not-H (given-H) side, which is ``T``, walked at most once.
    Condition 1 reads each cell's atom with every E_j true, from one scan.
    """
    L, m, hypotheses = model.denominator, model.m, range(1, model.n + 1)
    totals = _superset_sums(model, hypotheses)
    degenerate = frozenset(i for i in hypotheses if model.mass(i) in (0, L))
    whole_model = _failing_subsets(list(totals), m, pairwise) if degenerate else []
    found: list[IndependenceViolation] = []
    relevance = dict.fromkeys(hypotheses, frozenset())
    for i in hypotheses:
        mass = model.mass(i)
        if i in degenerate:  # one nonempty side, whose table is T
            walks = [(Side.GIVEN_H if mass else Side.GIVEN_NOT_H, whole_model)]
        else:
            table = _superset_sums(model, (i,))
            relevance[i] = frozenset(j + 1 for j in range(m)
                                     if table[1 << j] * L != totals[1 << j] * mass)
            complement = list(map(operator.sub, totals, table))
            walks = [(side, _failing_subsets(cells, m, pairwise))
                     for side, cells in ((Side.GIVEN_H, table), (Side.GIVEN_NOT_H, complement))]
        found += (IndependenceViolation(i, side, f) for side, rows in walks for f in rows)
    violations = tuple(found)
    corner = model._masked_sums(full := (1 << m) - 1, full)  # L * P(H_i, every E_j true)

    failures = tuple(i for i in hypotheses if not corner.get(i)) if totals[-1] else None
    return AuditReport(model.n, m, pairwise, violations, relevance, degenerate, failures,
                       _theorem_outcome(model.n, violations, relevance))


def check_pair_identities(model: Model, j: int, k: int) -> PairIdentities:
    """Evaluate the forced identities for the evidence pair (E_j, E_k).

    Requires j != k and every hypothesis non-degenerate (the bracket factors
    condition on each H_i).  On a model that is fully independent given each
    cell and its complement, all residuals and bracket products are exactly 0
    and the marginals factorize.

    Everything is read from integer sums over the atom numerators: with
    ``M_i, a_i, b_i, c_i`` equal to ``L`` times P(H_i), P(E_j, H_i),
    P(E_k, H_i) and P(E_j E_k, H_i), and ``A, B, C`` their sums over i,
    residual i is ``(AB - A b_i - a_i B - C (L - M_i) + c_i L) / L^2``,
    bracket i is ``(A M_i - a_i L)(B M_i - b_i L) / (L M_i)^2``, and the
    marginals factorize iff ``AB = CL``.
    """
    model.validate_event({j: True})  # each on its own: True == 1 would merge the keys
    model.validate_event({k: True})
    if j == k:
        raise ValueError(f"need two distinct evidence indices, got j=k={j}")
    L = model.denominator
    bits = (1 << (j - 1), 1 << (k - 1), 1 << (j - 1) | 1 << (k - 1))
    sums = {}
    for i in range(1, model.n + 1):
        mass = model.mass(i)
        if mass in (0, L):
            raise DegeneratePriorError(
                f"pair identities need 0 < P(H{i}) < 1, got {Fraction(mass, L)}"
            )
        sums[i] = (mass, *(model._masked_sum(want, want, i) for want in bits))
    _, A, B, C = map(sum, zip(*sums.values()))
    residuals, brackets = {}, {}
    for i, (M, a, b, c) in sums.items():
        residuals[i] = Fraction(A * B - A * b - a * B - C * (L - M) + c * L, L * L)
        brackets[i] = Fraction((A * M - a * L) * (B * M - b * L), (L * M) ** 2)
    return PairIdentities(residuals, A * B == C * L, brackets)


def _hyp_list(indices) -> str:
    return ", ".join(f"H{i}" for i in sorted(indices)) or "none"


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
    violations, names = report.independence_violations, {}  # names: each mask's member text
    lines.append(f"independence-violations: {len(violations) or 'none'}")
    lines.extend(f"  {v.describe(names)}" for v in violations)
    lines.append("relevance:")
    for i in sorted(report.relevance):
        members = sorted(report.relevance[i])
        shown = ", ".join(f"E{j}" for j in members) if members else "none"
        lines.append(f"  H{i}: {shown}")
    lines.append(f"degenerate-hypotheses: {_hyp_list(report.degenerate_hypotheses)}")
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
