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

So a spec survives iff every pair of its rows, a row with itself included,
passes the identity for every i.  A row's update mask has bit i set iff it
updates H_i.  A zero-prior column enters neither t, K nor a mask, but its
identity reads K_ab = 0; so a composition's rows range over the columns of
nonzero prior, each standing for (D+1)^z grid rows when z priors are zero.
``require_condition1`` keeps rows of nonzero entries, no zero-prior composition.
Rows differing by a constant share X, so masks and identities: the live P_k
sum to D, so adding c to a row adds cD to t_a and keeps X_a, and D K_ab =
sum_k P_k X_{a,k} X_{b,k}.  One row per shift class is tested, with least
entry c1 (1 with ``require_condition1``, else 0), for D + 1 - max(row) rows.

Check, then count.  Each pair of classes (a class with itself included), or
another pair of its orbit (below), is tested against what the proofs
predict, disjoint masks.  A clash, a pair that passes although its masks
meet, is a theorem violation; a pair of disjoint masks that fails
contradicts the converse and raises.  With no clash the survivors
are the m-tuples whose nonzero masks are pairwise disjoint: with q rows of
empty mask, sum_k m!/(m-k)! q^(m-k) e_k, e_k summing the products of the row
counts of k pairwise disjoint nonzero masks; less q^m they are those with
updating.  So the m = 2 sweep certifies every m: a violation at any m holds a
clash, which is a violating m = 2 survivor on its own.

Relabelling hypotheses (priors and columns together) keeps the counts, so
each sorted form is checked once and weighted by its admitted compositions.
Within one, a permutation sigma of equal-prior columns keeps t and K and sends
X_{a,k} to X_{sigma a, sigma k}, so hypothesis k's identity on (a, b) is
hypothesis sigma k's on (sigma a, sigma b), and the masks permute the same
way: a pair passes, or clashes, iff its image does.  Call a class canonical
when its entries do not increase within each run of equal live priors; some
sigma makes any class canonical.  So the check orders the classes canonical
first, tests each of the K canonical ones against every class from it on,
K (K + 1) / 2 + K (C - K) of the C (C + 1) / 2 pairs (all of them when no
live prior repeats), and expands a clash it finds to its orbit.  Compositions
are generated once to count, and again only to list survivors and violations
by a walk over their grid rows that reads each sorted form's check; it must
match the form's counts, or count a form that has clashes.

The kernel tests the first hypothesis (K_ab = 0 for a zero prior) on a
whole block of pairs and each later one only on the pairs that passed every
earlier one.  Every identity term is at most D^5, so the arithmetic is int32
and :func:`sweep` refuses D > 73 (D^5 >= 2^31), m > 16 (a Model's cap: every
witness is one, and the walk runs m deep) and, before any pair test, grids
past 2^33 class pairs, C (C + 1) / 2 for each sorted composition of C classes
however few of them the orbits leave to test, C = (D + 1 - c1)^w - (D - c1)^w
over w live columns.  That bound admits no whole grid past D = 53 (n = 3
with c1; 52 without, 16 at n = 4), so the int32 range only refuses budgets
that stop after the first compositions.  The check holds a block of class
pairs at a time, and a composition's classes only while it is counted (or
listed), so memory follows one composition's rows, not C^2 or the grid.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable

from .construct import ConditionalSpec
from .errors import InvalidModelError, SweepLimitError
from .model import MAX_EVIDENCE, _Immutable

#: Default enumeration budget; (n=4, m=2, D=4) needs ~13.7M of it.
DEFAULT_MAX_MODELS = 20_000_000

_MAX_PAIR_TESTS = 1 << 33  # class pairs: (3, 2, 52) makes 7.7e9, (3, 2, 26) 1.2e8
_CHUNK_ROWS = 1 << 16

GridPoint = tuple[int, ...]


class SweepConfig(_Immutable):
    """Grid description: n hypotheses, m evidence propositions, denominator D.

    With ``require_condition1`` set, only specs whose every hypothesis keeps a
    nonzero posterior after observing all evidence true are kept.
    """

    __slots__ = ("n", "m", "denominator", "require_condition1")

    def __init__(self, n: int, m: int, denominator: int, require_condition1: bool = False) -> None:
        for name, value in (("n", n), ("m", m), ("denominator", denominator)):
            if type(value) is not int:
                raise InvalidModelError(f"{name} must be an int, got {value!r}")
        if type(require_condition1) is not bool:
            raise InvalidModelError(
                f"require_condition1 must be a bool, got {require_condition1!r}"
            )
        if n <= 2:
            raise InvalidModelError(
                f"sweeps target the multiple-updating property, which needs n > 2; got n={n}"
            )
        if m < 2:
            raise InvalidModelError(f"need at least two evidence propositions, got m={m}")
        if denominator < 1:
            raise InvalidModelError(f"denominator must be >= 1, got {denominator}")
        super().__init__(n, m, denominator, require_condition1)


class SweepViolation(_Immutable):
    """A survivor ``spec`` on which ``hypothesis`` has two updating propositions, ``evidence``."""

    __slots__ = ("spec", "hypothesis", "evidence")


class SweepResult(_Immutable):
    """A sweep's tallies, or those of the compositions it finished before a refusal."""

    __slots__ = ("models_enumerated", "models_satisfying_all", "theorem_violations",
                 "witnesses_with_updating")

    def __init__(self, models_enumerated=0, models_satisfying_all=0, theorem_violations=None,
                 witnesses_with_updating=0) -> None:
        super().__init__(models_enumerated, models_satisfying_all,
                         [] if theorem_violations is None else theorem_violations,
                         witnesses_with_updating)


def spec_from_grid(priors: GridPoint, cond_digits: GridPoint, denominator: int) -> ConditionalSpec:
    """Rebuild the ConditionalSpec at integer grid coordinates.

    ``cond_digits`` is the conditional matrix flattened row-major by evidence
    index: entry ``j*n + i`` is the numerator of P(E_{j+1} | H_{i+1}).
    """
    n = len(priors)
    if n == 0 or len(cond_digits) % n:
        raise ValueError(f"{len(cond_digits)} conditionals do not tile {n} hypotheses")
    if type(denominator) is not int or denominator < 1:
        raise ValueError(f"denominator must be an int >= 1, got {denominator!r}")
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
    lexicographic order: the gaps between n - 1 bars among D + n - 1 places,
    the bars placed in lexicographic order."""
    for bars in combinations(range(D + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, D + n - 1)))


def _rows(width, D, c1):
    """Every row of ``width`` entries, 1..D with ``c1`` and 0..D otherwise, in
    lexicographic order (the grid's digit order)."""
    import numpy as np  # each kernel helper imports it, so only a sweep loads numpy
    return np.indices((D + 1 - c1,) * width, dtype=np.int64).reshape(width, -1).T + c1


def _classes(reps, rows, D, c1):
    """The shift class of each of ``rows`` among the representatives ``reps``:
    the row less its least entry, plus c1, looked up by flat index in grid order."""
    import numpy as np
    place = (D + 1 - c1) ** np.arange(rows.shape[-1])[::-1]
    return np.searchsorted((reps - c1) @ place, (rows - rows.min(axis=-1, keepdims=True)) @ place)


def _identity(P, D, live, rows, X, heads):
    """Blocks ``(s, ok)`` of the pair identity of composition ``P``: ``ok[i, j]``
    says whether ``rows`` s + i and s + j pass it for every hypothesis, each
    block of the first ``heads`` rows against every row from its first on.  The
    first hypothesis (K == 0 for a zero prior) is tested on the whole block,
    each later one only on the pairs that passed every earlier one.  Every term
    is at most D^5 < 2^31, so the arithmetic is int32."""
    import numpy as np
    # X by column, so that each hypothesis gathers its terms from one row
    live, rows, X = live.astype(np.int32), rows.astype(np.int32), X.T.astype(np.int32, order="C")
    t = rows @ live
    step = max(1, _CHUNK_ROWS // len(rows))
    for s in range(0, heads, step):  # each block of heads against every row from its first on
        block = slice(s, min(s + step, heads))
        K = (D * live * rows[block]) @ rows[s:].T - np.multiply.outer(t[block], t[s:])
        stages = iter(np.flatnonzero(live < D))
        if len(live) < len(P):  # a zero prior's identity reads K == 0
            ok = K == 0
        else:
            k = next(stages)
            ok = K * (D - live[k]) == np.multiply.outer(live[k] * X[k, block], X[k, s:])
        at = np.flatnonzero(ok)  # the pairs still passing, as flat positions of ok
        a, b = np.divmod(at, ok.shape[1])
        a, b, K = a + s, b + s, K.ravel()[at]  # their rows and K terms
        for k in stages:
            keep = K * (D - live[k]) == live[k] * X[k, a] * X[k, b]
            ok.flat[at[~keep]] = False
            at, a, b, K = at[keep], a[keep], b[keep], K[keep]
        yield s, ok


def _pairs(P, D, c1):
    """Check the pairs of shift classes of composition ``P`` over its columns of
    nonzero prior against their masks (bit k: the class updates the k-th one),
    a pair of each orbit under permutations of equal-prior columns.  Returns the
    representatives (least entry ``c1``, in grid order), their masks and the
    clashes, pairs p <= q that pass although their masks meet, each found one
    with its orbit; disjoint masks that fail raise."""
    import numpy as np
    live = np.array([p for p in P if p], dtype=np.int64)
    rows = _rows(len(live), D, c1)
    rows = rows[rows.min(axis=1) == c1]
    X = D * rows - (rows @ live)[:, None]
    mask = ((X != 0) & (live < D)) @ (1 << np.arange(len(live), dtype=np.int64))
    # canonical classes first: no entry rises within a run of equal priors
    rising = (rows[:, :-1] < rows[:, 1:]) @ (live[:-1] == live[1:])
    order = np.argsort(rising, kind="stable")
    bits, clashes = mask[order].astype(np.uint8), set()  # at most 6 live columns under the bound
    for s, ok in _identity(P, D, live, rows[order], X[order], len(rows) - np.count_nonzero(rising)):
        disjoint = (bits[s : s + len(ok), None] & bits[s:]) == 0
        if np.array_equal(ok, disjoint):  # as the proofs predict
            continue
        for i, j in np.argwhere(np.triu(ok != disjoint)).tolist():
            a, b = sorted(order[[s + i, s + j]].tolist())
            if not ok[i, j]:
                a, b = (tuple(rows[r].tolist()) for r in (a, b))
                raise AssertionError(f"composition {P}: rows {a} and {b} of disjoint masks "
                                     "fail the pair identity")
            same = [p for p in permutations(range(len(live))) if (live[list(p)] == live).all()]
            orbit = np.sort(_classes(rows, rows[[a, b]][:, same], D, c1), axis=0)
            clashes.update(zip(*orbit.tolist()))
    return rows, mask, sorted(clashes)


def _counts(P, m, D, check):
    """Grid models of sorted composition ``P`` that survive, and that survive with
    some hypothesis updated, by its ``check``; None when it has clashes, and the
    walk that lists them counts."""
    reps, mask, clashes = check
    if clashes:
        return None
    histogram = {}
    for bits, rows in zip(mask.tolist(), (D + 1 - reps.max(axis=1)).tolist()):
        histogram[bits] = histogram.get(bits, 0) + rows  # a class counts its rows
    quiet = histogram.pop(0, 0)
    # (union, k) -> ways to pick k rows of pairwise disjoint nonzero masks with that union
    sets = Counter({(0, 0): 1})
    for bits, rows in histogram.items():
        for (union, k), ways in list(sets.items()):
            if not union & bits and k < m:
                sets[union | bits, k + 1] += ways * rows
    survivors = sum(math.perm(m, k) * quiet ** (m - k) * ways for (_, k), ways in sets.items())
    weight = (D + 1) ** (P.count(0) * m)
    return [weight * survivors, weight * (survivors - quiet**m)]


def _members(P, m, D, c1, check, on_survivor, violations):
    """Hand each survivor of composition ``P`` to ``on_survivor`` in flat-index
    order, add to ``violations`` those updating a hypothesis twice, named by the
    lowest one and its first two rows, and return [survivors, with updating]: a
    walk over grid rows extends a prefix by the rows that every prefix row joins,
    by disjoint masks or a clash.  ``check`` is the sorted form's: its classes
    read P's live columns in that form's order."""
    import numpy as np
    reps, mask, clashes = check
    live = np.flatnonzero(P)
    order = np.argsort(-np.asarray(P)[live], kind="stable")  # live[order]: sorted form's columns
    mask = (mask[:, None] >> np.arange(len(live)) & 1) @ (1 << order)  # bit k: live[k] updated
    near = {}  # each clashing class's partners
    for a, b in clashes + [(b, a) for a, b in clashes]:
        near.setdefault(a, np.zeros(len(mask), dtype=bool))[b] = True
    grid_rows = _rows(len(P), D, c1)
    node = _classes(reps, grid_rows[:, live[order]], D, c1)
    masks, digits = mask[node], list(map(tuple, grid_rows.tolist()))

    def walk(prefix, allowed, union, twice):  # every survivor that extends prefix
        rows = np.flatnonzero(allowed[node])
        if len(prefix) < m - 1:
            for r in rows.tolist():
                bits = int(masks[r])
                joined = ((mask & bits) == 0) | near.get(int(node[r]), False)
                walk(prefix + (r,), allowed & joined, union | bits, twice | union & bits)
            return
        clashes = twice | union & (last := masks[rows])
        listed[0] += len(rows)
        listed[1] += int(np.count_nonzero(union | last))
        head = sum((digits[r] for r in prefix), ())
        if on_survivor is not None:
            for r in rows.tolist():
                on_survivor(P, head + digits[r])
        for k in np.flatnonzero(clashes).tolist():  # the masks meet: name the lowest bit they meet on
            r, bit = int(rows[k]), int(clashes[k] & -clashes[k]).bit_length() - 1
            pair = [j + 1 for j, q in enumerate(prefix + (r,)) if masks[q] >> bit & 1][:2]
            spec = spec_from_grid(P, head + digits[r], D)
            violations.append(SweepViolation(spec, int(live[bit]) + 1, tuple(pair)))

    listed = [0, 0]
    walk((), np.ones(len(mask), dtype=bool), 0, 0)
    return listed


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

    Each sorted prior form is checked once and weighted by its admitted
    compositions, generated again only to list: ``on_survivor`` receives every
    survivor as integer grid coordinates ``(priors, cond_digits)``, in order
    of prior composition and then of flat index; :func:`spec_from_grid` turns
    them back into a ConditionalSpec.  ``max_models``, a non-negative int,
    admits the prior compositions whose blocks fit in it whole; a grid past it
    raises :class:`SweepLimitError` with their tallies, so partial results
    stop at a composition boundary.  A D past 73 (the int32 kernel's range) or
    a grid past 2^33 class pairs is refused the same way, with empty tallies;
    m past 16 raises :class:`InvalidModelError` before the budget.
    """
    if type(max_models) is not int or max_models < 0:
        raise InvalidModelError(f"max_models must be a non-negative int, got {max_models!r}")
    n, m, D, c1 = config.n, config.m, config.denominator, config.require_condition1
    if m > MAX_EVIDENCE:  # the walk runs m deep, and a witness is a Model
        raise InvalidModelError(f"m={m} exceeds the evidence cap {MAX_EVIDENCE}")
    # (D+1)**(n*m) >= 2**(n*m) > max_models once n*m reaches its bit length.
    if n * m >= max_models.bit_length() or (block := (D + 1) ** (n * m)) > max_models:
        raise _budget_exhausted(max_models, SweepResult())
    if D**5 >= 2**31:  # an identity term would overflow int32
        raise SweepLimitError(f"denominator {D} is past the int32 kernel", partial=SweepResult())
    # The budget admits the first max_models // block compositions (a range, as
    # islice would refuse a bound past sys.maxsize), and their pair tests are bounded.
    admitted = min(max_models // block, compositions := math.comb(D + n - 1, n - 1))
    forms, tests = Counter(), 0  # how many admitted compositions have each sorted form
    for _, P in zip(range(admitted), _compositions(n, D)):
        if c1 and 0 in P:  # require_condition1 admits no zero prior
            continue
        if (form := tuple(sorted(P, reverse=True))) not in forms:
            classes = (D + 1 - c1) ** (w := n - P.count(0)) - (D - c1) ** w  # least entry c1
            if (tests := tests + classes * (classes + 1) // 2) > _MAX_PAIR_TESTS:
                message = f"composition {P} brings the pair tests to {tests}, past the cap"
                raise SweepLimitError(f"{message} {_MAX_PAIR_TESTS}", partial=SweepResult())
        forms[form] += 1
    satisfying, updating, violations, walked = 0, 0, [], {}
    for form, count in forms.items():
        counts = _counts(form, m, D, check := _pairs(form, D, c1))
        if counts is None or (on_survivor is not None and counts[0]):  # clashes, or ones to list
            walked[form] = check, counts
        else:
            satisfying, updating = satisfying + count * counts[0], updating + count * counts[1]
    for _, P in zip(range(admitted), _compositions(n, D) if walked else ()):  # only to list
        if (form := tuple(sorted(P, reverse=True))) in walked:
            listed = _members(P, m, D, c1, walked[form][0], on_survivor, violations)
            if walked[form][1] not in (None, listed):  # raised, not asserted: python -O keeps it
                raise AssertionError("the listing must match the counts")
            satisfying, updating = satisfying + listed[0], updating + listed[1]
    result = SweepResult(admitted * block, satisfying, violations, updating)
    if admitted < compositions:
        raise _budget_exhausted(max_models, result)
    return result
