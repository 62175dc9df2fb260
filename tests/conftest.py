"""Shared fixtures: reference models and the session-wide grid sweeps."""

from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product
from time import perf_counter

import pytest

from oddsaudit import ConditionalSpec, SweepConfig, example_model, from_conditionals, sweep

import _brute


@pytest.fixture(scope="session")
def glymour():
    return example_model("glymour")


@pytest.fixture(scope="session")
def modified():
    return example_model("modified")


@pytest.fixture(scope="session")
def four():
    return example_model("four")


#: Product spec with non-constant conditional columns for both propositions:
#: independence given each hypothesis holds by construction, independence
#: given the complements fails for every hypothesis.
DEPENDENT_SPEC = ConditionalSpec(
    priors=(F(1, 3), F(1, 3), F(1, 3)),
    cond=((F(1, 2), F(1, 3), F(1, 4)), (F(1, 5), F(2, 5), F(3, 5))),
)


@pytest.fixture(scope="session")
def dependent():
    return from_conditionals(DEPENDENT_SPEC)


# --- session sweeps ---------------------------------------------------------

#: The grids the acceptance suite must clear, with room for the unit tests
#: to reuse the outcomes.
SWEEP_GRIDS = [
    (3, 2, 1),
    (3, 2, 2),
    (3, 2, 3),
    (3, 2, 4),
    (4, 2, 2),
    (4, 2, 3),
    (4, 2, 4),
]

#: Grids whose full survivor lists (as integer grid coordinates) are kept.
COLLECT_SURVIVORS = {(3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4), (4, 2, 2)}


@dataclass
class SweepRecord:
    config: SweepConfig
    result: object
    elapsed: float
    survivors: list | None  # list of (priors, cond_digits) grid coordinates


@pytest.fixture(scope="session")
def sweep_records():
    records = {}
    for n, m, d in SWEEP_GRIDS:
        survivors = [] if (n, m, d) in COLLECT_SURVIVORS else None
        callback = None
        if survivors is not None:
            def callback(priors, digits, _bucket=survivors):
                _bucket.append((priors, digits))
        started = perf_counter()
        result = sweep(SweepConfig(n, m, d), on_survivor=callback)
        records[(n, m, d)] = SweepRecord(
            config=SweepConfig(n, m, d),
            result=result,
            elapsed=perf_counter() - started,
            survivors=survivors,
        )
    return records


def nondegenerate_survivors(records, grid):
    """Survivor grid points of ``grid`` whose priors are all strictly inside (0, D)."""
    n, m, d = grid
    record = records[grid]
    if record.survivors is not None:
        return [
            (priors, digits)
            for priors, digits in record.survivors
            if all(0 < p < d for p in priors)
        ]
    # Too many survivors to collect from the sweep itself: rebuild the
    # all-nondegenerate slice with the brute-force integer filter (validated
    # against collected sweeps elsewhere).  With d == n the only composition
    # of d into n strictly positive parts is the uniform one.
    assert d == n, "fallback enumeration only supports d == n grids"
    priors = (1,) * n
    out = []
    for flat in product(range(d + 1), repeat=n * m):
        if _brute.grid_survives(priors, flat, n, m, d):
            out.append((priors, flat))
    return out
