"""Exhaustive grid sweeps that stress the at-most-one-updater property.

The sweep covers every :class:`~oddsaudit.construct.ConditionalSpec` on a
rational grid: priors are compositions of D into n parts over denominator D,
and every conditional P(E_j | H_i) ranges over {0, 1/D, ..., 1}.  Each spec
builds a product model, so independence given each hypothesis holds by
construction and only independence given the complements has to be filtered.
Survivors satisfy the full two-sided assumption set; on every one of them the
audit's multiple-updating check is expected to come back clean.

The filter runs on grid *numerators*: with priors P_k/D and conditionals
C_{j,k}/D, independence of the pair E_j, E_l given not-H_i is equivalent to
the integer identity

    (sum_{k!=i} P_k C_{j,k} C_{l,k}) * (D - P_i)
        = (sum_{k!=i} P_k C_{j,k}) * (sum_{k!=i} P_k C_{l,k})

and "E_j updates H_i" is equivalent to C_{j,i} * D != sum_k P_k C_{j,k}.

Only the m(m-1)/2 pairs are tested, not the 2^m - m - 1 subsets, and that
decides every subset: on a product spec with n > 2, two-sided independence
of every evidence subset holds if and only if no hypothesis is updated by two
propositions.  This is the package's extension of the paper's salvage
theorem.  Write pi_k for the priors, c_{jk} for P(E_j | H_k), p_j = P(E_j),
x_k = c_{jk} - p_j, y_k = c_{lk} - p_l and S = sum_k pi_k x_k y_k.

* Pairs force disjoint updating (the paper's direction, needing n > 2).  As
  sum_k pi_k x_k = sum_k pi_k y_k = 0, independence of E_j and E_l given
  not-H_i (pi_i < 1) reads S (1 - pi_i) = pi_i x_i y_i.  If some pi_i is 1
  nothing is updated; otherwise summing over the n cells gives S (n - 1) = S,
  so S = 0 and pi_i x_i y_i = 0: no hypothesis of positive prior is updated
  by both E_j and E_l.
* Disjoint updating factors every subset.  If the sets R_j of hypotheses
  that E_j updates are pairwise disjoint, then c_{jk} = p_j off R_j wherever
  pi_k > 0, so sum_{k in R_j} pi_k c_{jk} = p_j pi(R_j) and
  sum_k pi_k prod_{j in J} c_{jk} = prod_{j in J} p_j.  Removing one cell H_i
  keeps the factorisation, as c_{ji} = p_j for all but at most one j in J.

Both predicates are unchanged by relabelling hypotheses (priors and columns
of C together), relabelling evidence (rows of C) and negating a proposition
(row j becomes D minus row j).  So the identities run only on nonincreasing
prior compositions, each composition reading the tallies of its sorted form,
and there once per symmetry class of C: a nondecreasing m-tuple of canonical
rows (of a row's base-(D+1) code and its negation's, the smaller), counted
m!/prod(mult!) times for the row orders, times 2 for each row that is not its
own negation.  Negation does not keep conditionals nonzero, so
``require_condition1`` only sorts the rows.
``models_enumerated`` counts the grid models covered, not predicate
evaluations.  Survivors (``on_survivor`` and violations) come from running
the same identities over a composition's whole grid in flat-index order, and
their verdicts must add up to the composition's class-weighted tallies; a
violation's hypothesis and evidence pair come from
:func:`~oddsaudit.audit.relevant_evidence` on its model.

Every integer formed, the identities' terms (at most D^4) included, stays
below the grid size (D+1)^{nm}; the arithmetic is int64 numpy while that is
below 2^62, and the same code runs on Python integers (``dtype=object``)
beyond.  The tests check both against the audit route and against full-grid
tallies that test every subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .audit import relevant_evidence
from .construct import ConditionalSpec, from_conditionals
from .errors import InvalidModelError, SweepLimitError

#: Default enumeration budget; (n=4, m=2, D=4) needs ~13.7M of it.
DEFAULT_MAX_MODELS = 20_000_000

_CHUNK_ROWS = 1 << 18
_INT64_HEADROOM = 1 << 62

GridPoint = tuple[int, ...]


@dataclass(frozen=True)
class SweepConfig:
    """Grid description: n hypotheses, m evidence propositions, denominator D.

    With ``require_condition1`` set, only specs whose every hypothesis keeps a
    nonzero posterior after observing all evidence true are kept.
    """

    n: int
    m: int
    denominator: int
    require_condition1: bool = False

    def __post_init__(self) -> None:
        if self.n <= 2:
            raise InvalidModelError(
                f"sweeps target the multiple-updating property, which needs n > 2; got n={self.n}"
            )
        if self.m < 2:
            raise InvalidModelError(f"need at least two evidence propositions, got m={self.m}")
        if self.denominator < 1:
            raise InvalidModelError(f"denominator must be >= 1, got {self.denominator}")


@dataclass(frozen=True)
class SweepViolation:
    """A survivor on which some hypothesis has two updating propositions."""

    spec: ConditionalSpec
    hypothesis: int
    evidence: tuple[int, int]


@dataclass
class SweepResult:
    models_enumerated: int = 0
    models_satisfying_all: int = 0
    theorem_violations: list[SweepViolation] = field(default_factory=list)
    witnesses_with_updating: int = 0


def spec_from_grid(priors: GridPoint, cond_digits: GridPoint, denominator: int) -> ConditionalSpec:
    """Rebuild the ConditionalSpec at integer grid coordinates.

    ``cond_digits`` is the conditional matrix flattened row-major by evidence
    index: entry ``j*n + i`` is the numerator of P(E_{j+1} | H_{i+1}).
    """
    n = len(priors)
    if n == 0 or len(cond_digits) % n:
        raise ValueError(f"{len(cond_digits)} conditionals do not tile {n} hypotheses")
    m = len(cond_digits) // n
    return ConditionalSpec(
        priors=tuple(Fraction(p, denominator) for p in priors),
        cond=tuple(
            tuple(Fraction(cond_digits[j * n + i], denominator) for i in range(n))
            for j in range(m)
        ),
    )


def witness_filename(priors: GridPoint, cond_digits: GridPoint) -> str:
    """Deterministic name for a survivor, derived from its grid coordinates."""
    return (
        "witness_p" + "-".join(map(str, priors))
        + "_c" + "-".join(map(str, cond_digits)) + ".model"
    )


def _violation(P, digits, D) -> SweepViolation:
    """Name the first hypothesis with two updating propositions, and its first two."""
    spec = spec_from_grid(P, digits, D)
    model = from_conditionals(spec)
    for i in range(1, model.n + 1):
        updating = sorted(relevant_evidence(model, i))
        if len(updating) >= 2:
            return SweepViolation(spec, i, (updating[0], updating[1]))
    raise AssertionError(f"no hypothesis of {spec} has two updating propositions")


def _scan(P, C, D, subsets, require_c1):
    """The pair identities on a stack of conditional matrices ``C`` of shape
    (specs, m, n), all with priors ``P``, for the evidence pairs ``subsets``.
    Column 0 of the result says whether a spec survives; columns 1 and 2
    whether it survives with some hypothesis updated by at least one, or two,
    propositions."""
    P_arr = np.array(P, dtype=C.dtype)
    T1 = C @ P_arr  # (specs, m): D^2 * P(E_j) per spec
    ok = np.ones(len(C), dtype=bool)
    if require_c1:
        ok &= (C > 0).all(axis=(1, 2))
    for j, l in subsets:
        M = C[:, j, :] * C[:, l, :]
        TJ = M @ P_arr
        for i, p in enumerate(P):
            if p == D:
                continue
            lhs = (TJ - M[:, i] * p) * (D - p)
            rhs = (T1[:, j] - C[:, j, i] * p) * (T1[:, l] - C[:, l, i] * p)
            ok &= lhs == rhs
    most = np.zeros(len(C), dtype=np.int64)  # updating propositions of the most updated hypothesis
    for i, p in enumerate(P):
        if p not in (0, D):
            most = np.maximum(most, (C[:, :, i] * D != T1).sum(axis=1))
    return np.stack([ok, ok & (most >= 1), ok & (most >= 2)], axis=1)


def _places(base, width, dtype):
    """Place values of a ``width``-digit number in ``base``, most significant first."""
    return np.array([base ** (width - 1 - k) for k in range(width)], dtype=dtype)


def _classes(n, m, D, negate, dtype):
    """The symmetry classes of the conditional matrices, in chunks of
    (C, weights): one canonical member each, of shape (classes, m, n), and the
    number of matrices each class stands for.

    A class is a nondecreasing m-tuple of canonical row codes.
    """
    base, N = D + 1, (D + 1) ** n
    codes = np.array([c for c in range(N) if not negate or c <= N - 1 - c], dtype=dtype)
    rows = codes[:, None] // _places(base, n, dtype) % base
    # A canonical row stands for itself and, unless it is its own negation, for that.
    doubles = np.where(negate & (2 * codes != N - 1), 2, 1).astype(dtype)
    tuples = itertools.combinations_with_replacement(range(len(codes)), m)
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(tuples, _CHUNK_ROWS))
        ranks = np.fromiter(chunk, dtype=np.intp).reshape(-1, m)
        if not len(ranks):
            return
        # Orders of the rows: m! over the factorial of each run of equal rows
        # (``run`` is the length of the current run so far), times each row's doubling.
        weights = math.factorial(m) * doubles[ranks[:, 0]]
        run = np.ones(len(ranks), dtype=dtype)
        for k in range(1, m):
            run = np.where(ranks[:, k] == ranks[:, k - 1], run + 1, 1)
            weights = weights // run * doubles[ranks[:, k]]
        yield rows[ranks], weights


def _classify(stars, n, m, D, subsets, require_c1, dtype):
    """Run the identities once per class for each sorted composition in
    ``stars``.  Returns, per composition, the grid models behind each
    :func:`_scan` verdict column."""
    counts = {P: [0, 0, 0] for P in stars}
    covered = 0
    for C, weights in _classes(n, m, D, not require_c1, dtype):
        covered += int(weights.sum())
        for P in stars:
            found = _scan(P, C, D, subsets, require_c1)
            counts[P] = [c + int(weights[f].sum()) for c, f in zip(counts[P], found.T)]
    assert covered == (D + 1) ** (n * m), "the classes must cover the grid"
    return counts


def _members(P, counts, n, m, D, subsets, require_c1, dtype):
    """Survivors of composition ``P`` in flat-index order, as (digits, violates),
    from the identities run on every spec of its grid.  The grid's verdict
    columns must add up to the class-weighted ``counts``."""
    base, size = D + 1, (D + 1) ** (n * m)
    powers = _places(base, n * m, dtype)
    listed = [0, 0, 0]
    for start in range(0, size, _CHUNK_ROWS):
        digits = np.arange(start, min(start + _CHUNK_ROWS, size), dtype=dtype)[:, None] // powers
        digits %= base
        found = _scan(P, digits.reshape(-1, m, n), D, subsets, require_c1)
        listed = [c + int(f.sum()) for c, f in zip(listed, found.T)]
        survivors = np.nonzero(found[:, 0])[0]
        for row, violates in zip(digits[survivors].tolist(), found[survivors, 2].tolist()):
            yield tuple(row), violates
    assert listed == counts, "the listing must match the classes"


def _budget_exhausted(max_models: int, partial: SweepResult) -> SweepLimitError:
    return SweepLimitError(
        f"enumeration budget {max_models} exhausted after "
        f"{partial.models_enumerated} models "
        f"({partial.models_satisfying_all} satisfying so far)",
        partial=partial,
    )


def sweep(
    config: SweepConfig,
    *,
    max_models: int = DEFAULT_MAX_MODELS,
    on_survivor: Callable[[GridPoint, GridPoint], None] | None = None,
) -> SweepResult:
    """Cover the grid, filter the assumption set, tally updating behaviour.

    ``on_survivor`` receives every survivor as integer grid coordinates
    ``(priors, cond_digits)``, in order of prior composition and then of flat
    index; :func:`spec_from_grid` turns them back into a ConditionalSpec.
    Exceeding ``max_models`` raises :class:`SweepLimitError` carrying the
    partial tallies; the budget admits the prior compositions whose blocks fit
    in it whole, and only those are classified, so partial results stop at a
    composition boundary.
    """
    n, m, D = config.n, config.m, config.denominator
    c1 = config.require_condition1
    block = (D + 1) ** (n * m)
    result = SweepResult()
    if block > max_models:
        raise _budget_exhausted(max_models, result)
    subsets = list(itertools.combinations(range(m), 2))
    dtype = np.int64 if block < _INT64_HEADROOM else object
    compositions = [P for P in itertools.product(range(D + 1), repeat=n) if sum(P) == D]
    admitted = compositions[: max_models // block]
    stars = {tuple(sorted(P, reverse=True)) for P in admitted if not (c1 and 0 in P)}
    tallies = _classify(stars, n, m, D, subsets, c1, dtype) if stars else {}

    for P in admitted:
        if c1 and 0 in P:
            result.models_enumerated += block  # nothing on this composition can qualify
            continue
        counts = tallies[tuple(sorted(P, reverse=True))]
        satisfying, updating, violations = counts
        result.models_satisfying_all += satisfying
        result.witnesses_with_updating += updating
        if (on_survivor is not None and satisfying) or violations:
            for digits, violates in _members(P, counts, n, m, D, subsets, c1, dtype):
                if violates:
                    result.theorem_violations.append(_violation(P, digits, D))
                if on_survivor is not None:
                    on_survivor(P, digits)
        result.models_enumerated += block
    if len(admitted) < len(compositions):
        raise _budget_exhausted(max_models, result)
    return result
