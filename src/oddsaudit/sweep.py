"""Exhaustive grid sweeps that stress the at-most-one-updater property.

The sweep enumerates every :class:`~oddsaudit.construct.ConditionalSpec` on a
rational grid: priors are compositions of D into n parts over denominator D,
and every conditional P(E_j | H_i) ranges over {0, 1/D, ..., 1}.  Each spec
builds a product model, so independence given each hypothesis holds by
construction and only independence given the complements has to be filtered.
Survivors satisfy the full two-sided assumption set; on every one of them the
audit's multiple-updating check is expected to come back clean.

Enumerating millions of specs in Fraction arithmetic would be slow, so the
filter runs on grid *numerators*: with priors P_k/D and conditionals
C_{j,k}/D, independence of subset J given not-H_i is equivalent to the
integer identity

    (sum_{k!=i} P_k prod_{j in J} C_{j,k}) * (D - P_i)^{|J|-1}
        = prod_{j in J} (sum_{k!=i} P_k C_{j,k})

and "E_j updates H_i" is equivalent to C_{j,i} * D != sum_k P_k C_{j,k}.
Both are exact; the vectorized int64 path is used only when the worst-case
intermediate (n*D^2)^m fits comfortably, otherwise a big-integer path takes
over.  The test suite cross-checks both paths against the Fraction-based
audit route on small grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .construct import ConditionalSpec, from_conditionals
from .errors import InvalidModelError, SweepLimitError
from .modelfile import dump

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
    sample_witnesses: list[ConditionalSpec] = field(default_factory=list)


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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _decode_digits(flat_index: int, base: int, width: int) -> tuple[int, ...]:
    digits = []
    for _ in range(width):
        flat_index, digit = divmod(flat_index, base)
        digits.append(digit)
    return tuple(reversed(digits))


def _updating_pair(P, flat, n, m, D):
    """First hypothesis with two updating propositions, as (i, j1, j2), else None."""
    T = [sum(P[k] * flat[j * n + k] for k in range(n)) for j in range(m)]
    for i in range(n):
        if P[i] in (0, D):
            continue
        ups = [j + 1 for j in range(m) if flat[j * n + i] * D != T[j]]
        if len(ups) >= 2:
            return i + 1, ups[0], ups[1]
    return None


def _python_scan(P, n, m, D, subsets, require_c1):
    """Reference kernel: plain big-integer arithmetic, one spec at a time."""
    base = D + 1
    degenerate = [P[i] in (0, D) for i in range(n)]
    survivors: list[int] = []
    updating: list[bool] = []
    violations = []
    for flat_index, flat in enumerate(itertools.product(range(base), repeat=n * m)):
        if require_c1 and 0 in flat:
            continue
        T = [sum(P[k] * flat[j * n + k] for k in range(n)) for j in range(m)]
        ok = True
        for J in subsets:
            M = [math.prod(flat[j * n + k] for j in J) for k in range(n)]
            TJ = sum(P[k] * M[k] for k in range(n))
            power = len(J) - 1
            for i in range(n):
                remainder = D - P[i]
                if remainder == 0:
                    continue
                lhs = (TJ - P[i] * M[i]) * remainder**power
                rhs = 1
                for j in J:
                    rhs *= T[j] - P[i] * flat[j * n + i]
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        updates = False
        pair = None
        for i in range(n):
            if degenerate[i]:
                continue
            ups = [j + 1 for j in range(m) if flat[j * n + i] * D != T[j]]
            if ups:
                updates = True
            if len(ups) >= 2 and pair is None:
                pair = (flat_index, i + 1, ups[0], ups[1])
        survivors.append(flat_index)
        updating.append(updates)
        if pair is not None:
            violations.append(pair)
    yield survivors, updating, violations


def _numpy_scan(P, n, m, D, subsets, require_c1):
    """Vectorized kernel; exact as long as (n*D^2)^m stays below the headroom."""
    base = D + 1
    width = n * m
    total = base**width
    P_arr = np.array(P, dtype=np.int64)
    degenerate = [P[i] in (0, D) for i in range(n)]
    for start in range(0, total, _CHUNK_ROWS):
        end = min(start + _CHUNK_ROWS, total)
        rows = end - start
        index = np.arange(start, end, dtype=np.int64)
        C = np.empty((rows, width), dtype=np.int64)
        for position in range(width):
            C[:, position] = (index // base ** (width - 1 - position)) % base
        C = C.reshape(rows, m, n)
        T1 = C @ P_arr  # (rows, m): D^2 * P(E_j) per row
        ok = np.ones(rows, dtype=bool)
        if require_c1:
            ok &= (C > 0).all(axis=(1, 2))
        for J in subsets:
            M = C[:, J[0], :].copy()
            for j in J[1:]:
                M *= C[:, j, :]
            TJ = M @ P_arr
            power = len(J) - 1
            for i in range(n):
                remainder = D - P[i]
                if remainder == 0:
                    continue
                lhs = (TJ - M[:, i] * P[i]) * remainder**power
                rhs = T1[:, J[0]] - C[:, J[0], i] * P[i]
                for j in J[1:]:
                    rhs = rhs * (T1[:, j] - C[:, j, i] * P[i])
                ok &= lhs == rhs
        selected = np.nonzero(ok)[0]
        if selected.size == 0:
            yield [], [], []
            continue
        C_sel = C[selected]
        T_sel = T1[selected]
        update_counts = np.zeros((selected.size, n), dtype=np.int64)
        for i in range(n):
            if degenerate[i]:
                continue
            update_counts[:, i] = (C_sel[:, :, i] * D != T_sel).sum(axis=1)
        survivors = selected + start
        updating = (update_counts >= 1).any(axis=1)
        violations = []
        violating = np.nonzero((update_counts >= 2).any(axis=1))[0]
        for local in violating:
            flat_index = int(survivors[local])
            flat = _decode_digits(flat_index, base, width)
            pair = _updating_pair(P, flat, n, m, D)
            violations.append((flat_index, *pair))
        yield survivors, updating, violations


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
    sample_limit: int = 10,
    witness_dir: str | Path | None = None,
    on_survivor: Callable[[GridPoint, GridPoint], None] | None = None,
    _force_python: bool = False,
) -> SweepResult:
    """Enumerate the grid, filter the assumption set, tally updating behaviour.

    ``on_survivor`` receives every survivor as integer grid coordinates
    ``(priors, cond_digits)``; :func:`spec_from_grid` turns them back into a
    ConditionalSpec.  ``witness_dir`` writes one model file per survivor under
    deterministic names.  Exceeding ``max_models`` raises
    :class:`SweepLimitError` carrying the partial tallies; the budget is
    checked per prior composition, so partial results stop at a composition
    boundary.
    """
    n, m, D = config.n, config.m, config.denominator
    block = (D + 1) ** (n * m)
    result = SweepResult()
    if block > max_models:
        raise _budget_exhausted(max_models, result)
    subsets = [
        J for size in range(2, m + 1) for J in itertools.combinations(range(m), size)
    ]
    use_numpy = (not _force_python) and (n * D * D) ** m < _INT64_HEADROOM
    scan = _numpy_scan if use_numpy else _python_scan

    witness_path: Path | None = None
    if witness_dir is not None:
        witness_path = Path(witness_dir)
        witness_path.mkdir(parents=True, exist_ok=True)

    base = D + 1
    width = n * m
    for P in _compositions(D, n):
        if result.models_enumerated + block > max_models:
            raise _budget_exhausted(max_models, result)
        if config.require_condition1 and any(p == 0 for p in P):
            result.models_enumerated += block  # nothing on this composition can qualify
            continue
        for survivors, updating, violations in scan(
            P, n, m, D, subsets, config.require_condition1
        ):
            count = len(survivors)
            if count:
                result.models_satisfying_all += count
                result.witnesses_with_updating += int(sum(updating))
            for flat_index, i, j1, j2 in violations:
                digits = _decode_digits(int(flat_index), base, width)
                result.theorem_violations.append(
                    SweepViolation(spec_from_grid(P, digits, D), i, (j1, j2))
                )
            if sample_limit and len(result.sample_witnesses) < sample_limit:
                for flat_index, updates in zip(survivors, updating):
                    if not updates:
                        continue
                    digits = _decode_digits(int(flat_index), base, width)
                    result.sample_witnesses.append(spec_from_grid(P, digits, D))
                    if len(result.sample_witnesses) >= sample_limit:
                        break
            if on_survivor is not None or witness_path is not None:
                for flat_index in survivors:
                    digits = _decode_digits(int(flat_index), base, width)
                    if on_survivor is not None:
                        on_survivor(P, digits)
                    if witness_path is not None:
                        spec = spec_from_grid(P, digits, D)
                        dump(
                            from_conditionals(spec),
                            witness_path / witness_filename(P, digits),
                        )
        result.models_enumerated += block
    return result
