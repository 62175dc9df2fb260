"""Exhaustive grid sweeps that stress the at-most-one-updater property.

The sweep covers every :class:`~oddsaudit.construct.ConditionalSpec` on a
rational grid: priors are compositions of D into n parts over denominator D,
and every conditional P(E_j | H_i) ranges over {0, 1/D, ..., 1}.  Each spec
builds a product model, so independence given each hypothesis holds by
construction and only independence given the complements has to be filtered.
Survivors satisfy the full two-sided assumption set; on every one of them the
audit's multiple-updating check is expected to come back clean.

The filter runs on grid *numerators*, priors P_k/D and conditionals C_{j,k}/D.
For rows a, b of C write t_a = sum_k P_k a_k, X_{a,i} = D a_i - t_a and K_ab =
D sum_k P_k a_k b_k - t_a t_b.  Independence of the two propositions given
not-H_i (P_i < D) is the integer identity K_ab (D - P_i) = P_i X_{a,i} X_{b,i},
D times (sum_{k!=i} P_k a_k b_k)(D - P_i) = (sum_{k!=i} P_k a_k)(sum_{k!=i}
P_k b_k); "row a updates H_i" is 0 < P_i < D and X_{a,i} != 0.

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

So on one prior composition the rows form a graph G: a-b is an edge when the
identity holds for every i, and a spec survives iff every pair of its rows is
an edge (loops count: two equal rows must pass too).  A row's update mask has
bit i set iff it updates H_i.  A zero-prior column enters neither t, K nor a
mask, but its identity reads K_ab = 0; so G's rows range over the columns of
nonzero prior, each standing for (D+1)^z grid rows when z priors are zero,
and G also requires K_ab = 0 when z > 0.  ``require_condition1`` keeps the
rows of nonzero entries, and nothing of a zero-prior composition.

Thus the m = 2 sweep certifies every m: a violation at any m has two rows whose
masks meet, an edge of G (a loop if they are equal) and so on its own a
violating m = 2 survivor on the same composition.  If no edge of G, loops
included, joins meeting masks on (n, 2, D), nothing violates on any (n, m, D).

Survivors, the ordered m-tuples of pairwise adjacent rows, are counted by
recursion over neighbourhoods; less the tuples of rows with empty masks they
leave those with updating, and less the tuples still pairwise adjacent once
the edges between meeting masks go, the violations.  Counts do not change
when hypotheses are relabelled (priors and columns together), so each
nonincreasing composition is counted once; ``models_enumerated`` counts grid
models covered.  Survivors (``on_survivor`` and violations, named from the
row masks) are listed by the same recursion on each composition's own graph
in flat-index order, and must match the sorted form's counts, a cross-check
of that symmetry.

Every identity term is at most D^5, so the arithmetic is int64 and
:func:`sweep` refuses D > 6208 (D^5 >= 2^63), m > 16 (a Model's cap: every
witness is one, and the recursions run m deep) and, before any graph is
built, graphs past 2^14 rows (2 N^2 bytes with the edge-pruned copy, 542 MB
peak RSS at the cap).  The tests check the counts against the audit route
and against oracles that test every subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .construct import ConditionalSpec
from .errors import InvalidModelError, SweepLimitError
from .model import MAX_EVIDENCE

#: Default enumeration budget; (n=4, m=2, D=4) needs ~13.7M of it.
DEFAULT_MAX_MODELS = 20_000_000

_MAX_ROWS = 1 << 14  # G and its edge-pruned copy take 2 N^2 bytes
_CHUNK_ROWS = 1 << 16

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
        for name in ("n", "m", "denominator"):
            if type(getattr(self, name)) is not int:
                raise InvalidModelError(f"{name} must be an int, got {getattr(self, name)!r}")
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


def _compositions(n, D):
    """The prior compositions, n-tuples of non-negative ints summing to D, in
    lexicographic order: the next one moves a unit from the last nonzero part
    k > 0 to part k - 1 and the rest of part k to the end."""
    P = [0] * (n - 1) + [D]
    while True:
        yield tuple(P)
        k = next((k for k in range(n - 1, 0, -1) if P[k]), 0)
        if k == 0:
            return
        P[k - 1] += 1
        P[k], P[-1] = 0, P[k] - 1


def _rows(width, D, c1):
    """Every row of ``width`` entries, 1..D with ``c1`` and 0..D otherwise, in
    lexicographic order (the grid's digit order)."""
    return np.indices((D + 1 - c1,) * width, dtype=np.int64).reshape(width, -1).T + c1


def _graph(P, D, c1):
    """The row-pair graph of prior composition ``P``: ``G[a, b]`` says whether
    rows a and b, over the columns of nonzero prior in :func:`_rows` order,
    pass the pair identity for every hypothesis, and ``mask[a]`` has bit k set
    iff row a updates the k-th hypothesis of nonzero prior."""
    live = np.array([p for p in P if p], dtype=np.int64)
    rows = _rows(len(live), D, c1)
    t = rows @ live
    X = D * rows - t[:, None]
    G = np.empty((len(rows), len(rows)), dtype=bool)
    step = max(1, _CHUNK_ROWS // len(rows))
    for s in range(0, len(rows), step):  # the upper triangle, one block of rows at a time
        block = slice(s, s + step)
        K = (D * live * rows[block]) @ rows[s:].T - np.multiply.outer(t[block], t[s:])
        ok = (K == 0) | (len(live) == len(P))  # a zero prior needs K == 0
        for k in np.flatnonzero(live < D):
            ok &= K * (D - live[k]) == np.multiply.outer(live[k] * X[block, k], X[s:, k])
        G[block, s:] = ok
        G[s:, block] = ok.T
    mask = ((X != 0) & (live < D)) @ (1 << np.arange(len(live), dtype=np.int64))
    return G, mask


def _cliques(G, k, S, memo):
    """Ordered k-tuples of the rows in ``S`` whose every pair is an edge of
    ``G``; a repeated row needs its loop.  ``memo`` caches counts on ``G``."""
    key = (k, S.tobytes())
    if key not in memo:
        if k == 2:
            memo[key] = int(np.count_nonzero(G if S.all() else G[np.ix_(S, S)]))
        else:
            memo[key] = sum(_cliques(G, k - 1, S & G[a], memo) for a in np.flatnonzero(S))
    return memo[key]


def _counts(P, m, D, c1):
    """Grid models of sorted composition ``P`` that survive, that survive with
    some hypothesis updated, and that survive with one updated twice."""
    G, mask = _graph(P, D, c1)
    apart = G.copy()  # G without the edges between rows whose masks meet
    step = max(1, _CHUNK_ROWS // len(G))
    for s in range(0, len(G), step):
        apart[s : s + step] &= (mask[s : s + step, None] & mask) == 0
    weight = (D + 1) ** (P.count(0) * m)
    every, memo = np.ones(len(G), dtype=bool), {}
    survivors, quiet = _cliques(G, m, every, memo), _cliques(G, m, mask == 0, memo)
    disjoint = _cliques(apart, m, every, {})
    return [weight * survivors, weight * (survivors - quiet), weight * (survivors - disjoint)]


def _members(P, counts, n, m, D, c1):
    """Survivors of composition ``P`` in flat-index order by the recursion of
    :func:`_cliques` over grid rows, each with 0 or the lowest hypothesis that
    two rows update and the first two of them; the tallies must match ``counts``."""
    G, mask = _graph(P, D, c1)
    live = np.flatnonzero(P)
    grid_rows = _rows(n, D, c1)
    node = np.ravel_multi_index((grid_rows[:, live] - c1).T, (D + 1 - c1,) * len(live))
    masks, digits = mask[node], list(map(tuple, grid_rows.tolist()))
    listed = np.zeros(3, dtype=np.int64)

    def walk(prefix, allowed, union, twice):  # each (m-1)-row prefix and its last rows
        rows = np.flatnonzero(allowed[node])
        if len(prefix) == m - 1:
            yield prefix, union, twice, rows
            return
        for r in rows.tolist():
            bits = int(masks[r])
            yield from walk(prefix + (r,), allowed & G[node[r]], union | bits, twice | union & bits)

    for prefix, union, twice, rows in walk((), np.ones(len(G), dtype=bool), 0, 0):
        clashes = twice | union & (last := masks[rows])
        listed += (len(rows), np.count_nonzero(union | last), np.count_nonzero(clashes))
        head = sum((digits[r] for r in prefix), ())
        for r, clash in zip(rows.tolist(), clashes.tolist()):
            if clash:  # the masks meet: name the lowest bit they meet on
                bit = (clash & -clash).bit_length() - 1
                pair = [j + 1 for j, q in enumerate(prefix + (r,)) if masks[q] >> bit & 1][:2]
                clash = int(live[bit]) + 1, tuple(pair)
            yield head + digits[r], clash
    assert listed.tolist() == counts, "the listing must match the counts"


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
    ``max_models`` must be a non-negative int.  Exceeding it raises
    :class:`SweepLimitError` carrying the partial tallies; the budget admits
    the prior compositions whose blocks fit in it whole, and only those are
    counted, so partial results stop at a composition boundary.  A D past
    6208 or a graph past 2^14 rows is refused the same way, with empty
    tallies; m past 16 raises :class:`InvalidModelError`.
    """
    if type(max_models) is not int or max_models < 0:
        raise InvalidModelError(f"max_models must be a non-negative int, got {max_models!r}")
    n, m, D = config.n, config.m, config.denominator
    c1 = config.require_condition1
    result = SweepResult()
    # (D+1)**(n*m) >= 2**(n*m) > max_models once n*m reaches its bit length.
    if n * m >= max_models.bit_length() or (block := (D + 1) ** (n * m)) > max_models:
        raise _budget_exhausted(max_models, result)
    if m > MAX_EVIDENCE:  # the recursions run m deep, and a witness is a Model
        raise InvalidModelError(f"m={m} exceeds the evidence cap {MAX_EVIDENCE}")
    if D**5 >= 2**63:  # an identity term would overflow int64
        raise SweepLimitError(f"denominator {D} is past the int64 kernel", partial=result)
    # The budget admits the first max_models // block compositions (a range, as
    # islice would refuse a bound past sys.maxsize).
    admitted = []
    for _, P in zip(range(max_models // block), _compositions(n, D)):
        if not (c1 and 0 in P) and (rows := (D + 1 - c1) ** (n - P.count(0))) > _MAX_ROWS:
            message = f"composition {P} needs a graph of {rows} rows, past the cap {_MAX_ROWS}"
            raise SweepLimitError(message, partial=result)
        admitted.append(P)
    stars = {tuple(sorted(P, reverse=True)) for P in admitted if not (c1 and 0 in P)}
    tallies = {P: _counts(P, m, D, c1) for P in stars}

    for P in admitted:
        counts = tallies.get(tuple(sorted(P, reverse=True)), [0, 0, 0])
        satisfying, updating, violations = counts
        result.models_satisfying_all += satisfying
        result.witnesses_with_updating += updating
        if (on_survivor is not None and satisfying) or violations:
            for digits, clash in _members(P, counts, n, m, D, c1):
                if clash:
                    spec = spec_from_grid(P, digits, D)
                    result.theorem_violations.append(SweepViolation(spec, *clash))
                if on_survivor is not None:
                    on_survivor(P, digits)
        result.models_enumerated += block
    if len(admitted) < math.comb(D + n - 1, n - 1):
        raise _budget_exhausted(max_models, result)
    return result
