import functools
import importlib
from fractions import Fraction as F
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from oddsaudit import (
    InvalidModelError,
    Side,
    SweepConfig,
    SweepLimitError,
    check_assumptions,
    check_independence,
    dumps,
    from_conditionals,
    load,
    relevant_evidence,
    spec_from_grid,
    sweep,
    witness_filename,
)

from oddsaudit.cli import main

from conftest import nondegenerate_survivors

# The package exports the function ``sweep`` under the module's name.
sweep_module = importlib.import_module("oddsaudit.sweep")


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def audit_route(n, m, d, require_condition1=False):
    """Reference sweep: build every grid model and run the Fraction-based audit."""
    enumerated = satisfying = updating = violated = 0
    survivors = set()
    for priors in compositions(d, n):
        for flat in product(range(d + 1), repeat=n * m):
            enumerated += 1
            model = from_conditionals(spec_from_grid(priors, flat, d))
            if require_condition1:
                if check_assumptions(model).condition1_failures != ():
                    continue
            if any(
                check_independence(model, i, side)
                for i in range(1, n + 1)
                for side in (Side.GIVEN_H, Side.GIVEN_NOT_H)
            ):
                continue
            satisfying += 1
            survivors.add((priors, flat))
            if check_assumptions(model).theorem.status == "violated":
                violated += 1
            if any(relevant_evidence(model, i) for i in range(1, n + 1)):
                updating += 1
    return enumerated, satisfying, updating, violated, survivors


# --- config and plumbing -------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidModelError):
        SweepConfig(2, 2, 2)
    with pytest.raises(InvalidModelError):
        SweepConfig(3, 1, 2)
    with pytest.raises(InvalidModelError):
        SweepConfig(3, 2, 0)


def test_spec_from_grid():
    spec = spec_from_grid((2, 2, 2), (3, 3, 3, 6, 0, 0), 6)
    assert spec.priors == (F(1, 3),) * 3
    assert spec.cond == ((F(1, 2),) * 3, (F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        spec_from_grid((1, 1), (0, 0, 0), 2)


def test_witness_filename_deterministic():
    name = witness_filename((1, 1, 2), (0, 4, 2, 1, 1, 1))
    assert name == "witness_p1-1-2_c0-4-2-1-1-1.model"


# --- golden counts ---------------------------------------------------------------


GOLDEN = {
    (3, 2, 1): (192, 192, 0, 0),
    (3, 2, 2): (4374, 3402, 972, 0),
    (3, 2, 3): (40960, 23536, 9696, 0),
    (3, 2, 4): (234375, 101175, 48600, 0),
    (4, 2, 2): (65610, 48114, 17496, 0),
    (4, 2, 3): (1310720, 637952, 325632, 0),
    (4, 2, 4): (13671875, 4467859, 2616584, 0),
    (3, 4, 2): (3188646, 1771470, 157464, 0),
}


def test_golden_counts(sweep_records):
    for grid, (enum, satisfying, updating, violations) in GOLDEN.items():
        record = sweep_records.get(grid)
        result = record.result if record else sweep(SweepConfig(*grid))
        assert result.models_enumerated == enum
        assert result.models_satisfying_all == satisfying
        assert result.witnesses_with_updating == updating
        assert len(result.theorem_violations) == violations
        assert result.models_satisfying_all <= result.models_enumerated


def test_smallest_grid_with_updating_witness(sweep_records):
    """On the 0/1 grid every prior is degenerate, so D=2 is the first grid
    with an updating witness."""
    assert sweep_records[(3, 2, 1)].result.witnesses_with_updating == 0
    assert sweep_records[(3, 2, 2)].result.witnesses_with_updating > 0


def test_relevance_counts_match_golden():
    for grid, (enum, satisfying, updating, _) in GOLDEN.items():
        assert _brute.grid_counts_by_relevance(*grid) == (enum, satisfying, updating)


@pytest.mark.parametrize(
    "grid", [(3, 5, 3, False), (4, 4, 2, False), (5, 3, 2, False), (3, 4, 3, True)]
)
def test_sweep_matches_relevance_counts_on_large_grids(grid):
    """Grids of 10^8-10^10 models, counted by the converse of the theorem."""
    enum, satisfying, updating = _brute.grid_counts_by_relevance(*grid)
    result = sweep(SweepConfig(*grid), max_models=enum)
    assert result.models_enumerated == enum
    assert result.models_satisfying_all == satisfying
    assert result.witnesses_with_updating == updating
    assert not result.theorem_violations


@functools.cache
def sweep_pairs(m):
    """The evidence subsets sweep() hands its kernel on an m-proposition grid."""
    seen = set()
    original = sweep_module._scan

    def spy(P, C, D, subsets, c1):
        seen.add(tuple(subsets))
        return original(P, C, D, subsets, c1)

    with mock.patch.object(sweep_module, "_scan", spy):
        sweep(SweepConfig(3, m, 1), max_models=3 * 2 ** (3 * m))
    (subsets,) = seen
    return list(subsets)


@st.composite
def wide_grid_specs(draw):
    """One spec of an m = 4-5 grid (n 3-4, D 2-3), half of them with most
    rows constant so that survivors and failures both occur."""
    n, m, d = draw(st.integers(3, 4)), draw(st.integers(4, 5)), draw(st.integers(2, 3))
    priors = draw(st.sampled_from(list(compositions(d, n))))
    varying = draw(st.sets(st.integers(0, m - 1))) if draw(st.booleans()) else range(m)
    rows = [
        draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        if j in varying
        else [draw(st.integers(0, d))] * n
        for j in range(m)
    ]
    return n, m, d, priors, tuple(c for row in rows for c in row)


@settings(max_examples=300, deadline=None)
@given(wide_grid_specs())
def test_pairwise_filter_matches_all_subsets(case):
    """The kernel's pairs-only verdict equals the all-subsets oracle for m > 3."""
    n, m, d, priors, flat = case
    C = np.array(flat, dtype=np.int64).reshape(1, m, n)
    found = sweep_module._scan(priors, C, d, sweep_pairs(m), False)
    assert bool(found[0, 0]) == _brute.grid_survives(priors, flat, n, m, d)


# --- cross-checks against the Fraction-based audit route -------------------------


@pytest.mark.parametrize("grid", [(3, 2, 1), (3, 2, 2), (4, 2, 1)])
def test_sweep_agrees_with_audit_route(grid, sweep_records):
    n, m, d = grid
    enum, satisfying, updating, violated, expected_survivors = audit_route(n, m, d)
    if grid in sweep_records and sweep_records[grid].survivors is not None:
        record = sweep_records[grid]
        result, survivors = record.result, set(record.survivors)
    else:
        collected = []
        result = sweep(
            SweepConfig(n, m, d), on_survivor=lambda p, c: collected.append((p, c))
        )
        survivors = set(collected)
    assert result.models_enumerated == enum
    assert result.models_satisfying_all == satisfying
    assert result.witnesses_with_updating == updating
    assert len(result.theorem_violations) == violated == 0
    assert survivors == expected_survivors


def test_require_condition1_agrees_with_audit_route():
    n, m, d = 3, 2, 2
    enum, satisfying, updating, violated, expected_survivors = audit_route(
        n, m, d, require_condition1=True
    )
    collected = []
    result = sweep(
        SweepConfig(n, m, d, require_condition1=True),
        on_survivor=lambda p, c: collected.append((p, c)),
    )
    assert result.models_enumerated == enum == 4374
    assert result.models_satisfying_all == satisfying
    assert result.witnesses_with_updating == updating
    assert len(result.theorem_violations) == violated == 0
    assert set(collected) == expected_survivors
    assert all(
        all(p > 0 for p in priors) and all(c > 0 for c in flat)
        for priors, flat in collected
    )


@pytest.mark.parametrize("grid", [(3, 2, 3), (4, 2, 2)])
def test_object_kernel_matches_int64_kernel(grid, monkeypatch):
    n, m, d = grid
    fast_survivors, slow_survivors = [], []
    fast = sweep(SweepConfig(n, m, d), on_survivor=lambda p, c: fast_survivors.append((p, c)))
    monkeypatch.setattr(sweep_module, "_INT64_HEADROOM", 0)
    dtypes, scan = set(), sweep_module._scan
    monkeypatch.setattr(
        sweep_module, "_scan", lambda P, C, *rest: dtypes.add(C.dtype) or scan(P, C, *rest)
    )
    slow = sweep(SweepConfig(n, m, d), on_survivor=lambda p, c: slow_survivors.append((p, c)))
    assert dtypes == {np.dtype(object)}
    assert fast.models_enumerated == slow.models_enumerated
    assert fast.models_satisfying_all == slow.models_satisfying_all
    assert fast.witnesses_with_updating == slow.witnesses_with_updating
    assert fast.theorem_violations == slow.theorem_violations
    assert fast_survivors == slow_survivors  # same enumeration order, same set


def test_determinism():
    first = sweep(SweepConfig(3, 2, 2))
    second = sweep(SweepConfig(3, 2, 2))
    assert first == second


def test_nondegenerate_fallback_matches_collected(sweep_records):
    """The d == n brute-force slice agrees with filtering collected survivors."""
    collected = nondegenerate_survivors(sweep_records, (3, 2, 3))
    rebuilt = [
        ((1, 1, 1), flat)
        for flat in product(range(4), repeat=6)
        if _brute.grid_survives((1, 1, 1), flat, 3, 2, 3)
    ]
    assert collected == rebuilt
    assert len(collected) == 496


# --- survivors are what they claim to be ------------------------------------------


def test_survivors_audit_clean_and_updating_ones_are_counted(sweep_records):
    record = sweep_records[(3, 2, 2)]
    updating = 0
    for priors, flat in record.survivors:
        model = from_conditionals(spec_from_grid(priors, flat, 2))
        assert not any(
            check_independence(model, i, side)
            for i in range(1, model.n + 1)
            for side in (Side.GIVEN_H, Side.GIVEN_NOT_H)
        )
        updating += any(relevant_evidence(model, i) for i in range(1, model.n + 1))
    assert 0 < updating == record.result.witnesses_with_updating


def test_cross_hypothesis_updating_witness_on_the_grid(sweep_records):
    """A four-hypothesis survivor where E1 updates H1/H2 and E2 updates H3/H4."""
    priors, flat = (1, 1, 1, 1), (1, 3, 2, 2, 2, 2, 1, 3)
    assert _brute.grid_survives(priors, flat, 4, 2, 4)
    assert (priors, flat) in set(nondegenerate_survivors(sweep_records, (4, 2, 4)))
    model = from_conditionals(spec_from_grid(priors, flat, 4))
    assert check_assumptions(model).theorem.status == "holds"
    assert {i: relevant_evidence(model, i) for i in range(1, 5)} == {
        1: {1},
        2: {1},
        3: {2},
        4: {2},
    }


def test_reference_specs_survive_denominator_six():
    glymour_point = ((2, 2, 2), (3, 3, 3, 6, 0, 0))
    modified_point = ((2, 2, 2), (3, 3, 3, 3, 2, 1))
    found = set()

    def spot(priors, flat):
        if (priors, flat) in (glymour_point, modified_point):
            found.add((priors, flat))

    result = sweep(SweepConfig(3, 2, 6), on_survivor=spot)
    assert result.models_enumerated == 3294172
    assert result.models_satisfying_all == 868672
    assert result.witnesses_with_updating == 479220
    assert not result.theorem_violations
    assert found == {glymour_point, modified_point}


# --- witness files ------------------------------------------------------------------


def test_witness_files(tmp_path, sweep_records, capsys):
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "1", "--witness-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "models-satisfying-assumptions: 192" in capsys.readouterr().out
    files = sorted(tmp_path.iterdir())
    assert len(files) == 192
    survivors = sweep_records[(3, 2, 1)].survivors
    assert {f.name for f in files} == {witness_filename(p, flat) for p, flat in survivors}
    for priors, flat in survivors[::40]:
        text = (tmp_path / witness_filename(priors, flat)).read_text(encoding="utf-8")
        assert text == dumps(from_conditionals(spec_from_grid(priors, flat, 1)))
    sample = load(tmp_path / witness_filename((0, 0, 1), (0, 0, 0, 0, 0, 0)))
    assert sample.prior(3) == 1
    for path in files[:10]:
        model = load(path)
        assert not any(
            check_independence(model, i, side)
            for i in range(1, 4)
            for side in (Side.GIVEN_H, Side.GIVEN_NOT_H)
        )


# --- resource budget ------------------------------------------------------------------


def test_budget_error_with_partial_counts():
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(3, 2, 2), max_models=2000)
    partial = info.value.partial
    assert partial.models_enumerated == 1458  # two full 729-spec blocks
    assert 0 < partial.models_satisfying_all <= partial.models_enumerated
    assert "budget" in str(info.value)


def test_budget_zero_blocks():
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(3, 2, 2), max_models=10)
    assert info.value.partial.models_enumerated == 0


def test_budget_bounds_the_kernel(monkeypatch):
    """A budget of one block admits only the first composition, (0, 0, 2), so
    the kernel runs on its sorted form alone."""
    seen = set()
    original = sweep_module._scan

    def spy(P, C, D, subsets, c1):
        seen.add(P)
        return original(P, C, D, subsets, c1)

    monkeypatch.setattr(sweep_module, "_scan", spy)
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(3, 2, 2), max_models=3**6)
    assert info.value.partial.models_enumerated == 3**6
    assert seen == {(2, 0, 0)}


# --- orbit reduction -------------------------------------------------------------------


def brute_tally(n, m, d, c1, compositions_used):
    """Counts and survivors over the full grid of each composition, by the oracle."""
    satisfying = updating = violating = 0
    survivors = []
    for priors in compositions_used:
        if c1 and 0 in priors:
            continue
        for flat in product(range(d + 1), repeat=n * m):
            if (c1 and 0 in flat) or not _brute.grid_survives(priors, flat, n, m, d):
                continue
            satisfying += 1
            survivors.append((priors, flat))
            sets = _brute.grid_updating_sets(priors, flat, n, m, d).values()
            updating += any(sets)
            violating += any(len(s) >= 2 for s in sets)
    return satisfying, updating, violating, survivors


#: Grids with n 3-4, m 2-3, D 1-3 that the oracle tallies in about a second.
TINY_GRIDS = [
    (n, m, d)
    for n, m, d in product((3, 4), (2, 3), (1, 2, 3))
    if len(list(compositions(d, n))) * (d + 1) ** (n * m) <= 70_000
]


@st.composite
def tiny_sweeps(draw):
    """A tiny grid, and a budget that may stop the sweep after any composition."""
    n, m, d = draw(st.sampled_from(TINY_GRIDS))
    block = (d + 1) ** (n * m)
    blocks = draw(st.integers(1, len(list(compositions(d, n)))))
    return n, m, d, draw(st.booleans()), block * blocks + draw(st.integers(0, block - 1))


@settings(max_examples=25, deadline=None)
@given(tiny_sweeps())
def test_orbit_counts_match_full_grid(grid):
    n, m, d, c1, max_models = grid
    block = (d + 1) ** (n * m)
    for negate in {True, not c1}:
        weights = sum(int(w.sum()) for _, w in sweep_module._classes(n, m, d, negate, np.int64))
        assert weights == block
    listed = []
    try:
        result = sweep(
            SweepConfig(n, m, d, c1),
            max_models=max_models,
            on_survivor=lambda p, c: listed.append((p, c)),
        )
    except SweepLimitError as exc:
        result = exc.partial
    covered = list(compositions(d, n))[: result.models_enumerated // block]
    satisfying, updating, violating, survivors = brute_tally(n, m, d, c1, covered)
    assert result.models_enumerated == block * len(covered)
    assert result.models_satisfying_all == satisfying
    assert result.witnesses_with_updating == updating
    assert len(result.theorem_violations) == violating == 0
    assert listed == survivors
    order = [(covered.index(p), int("".join(map(str, c)), d + 1)) for p, c in listed]
    assert all(a < b for a, b in zip(order, order[1:]))


def test_violations_listed_from_classes(monkeypatch):
    """With the independence filter emptied every spec survives, so the weighted
    violation count and the listed violations are checked against the oracle's
    updating sets, in grid order."""
    n, m, d = 3, 2, 2
    original = sweep_module._scan
    monkeypatch.setattr(
        sweep_module, "_scan", lambda P, C, D, subsets, c1: original(P, C, D, [], c1)
    )
    result = sweep(SweepConfig(n, m, d))
    expected = []
    for priors in compositions(d, n):
        for flat in product(range(d + 1), repeat=n * m):
            sets = _brute.grid_updating_sets(priors, flat, n, m, d)
            first = next((i for i in sorted(sets) if len(sets[i]) >= 2), None)
            if first is not None:
                pair = tuple(sorted(sets[first])[:2])
                expected.append((spec_from_grid(priors, flat, d), first, pair))
    assert result.models_satisfying_all == result.models_enumerated == 4374
    assert [(v.spec, v.hypothesis, v.evidence) for v in result.theorem_violations] == expected
    assert len(expected) > 0


def test_cli_lists_violations_and_exits_1(monkeypatch, capsys):
    """With the independence filter emptied, ``sweep`` prints one line per
    violation after the counts and exits 1."""
    original = sweep_module._scan
    monkeypatch.setattr(
        sweep_module, "_scan", lambda P, C, D, subsets, c1: original(P, C, D, [], c1)
    )
    result = sweep(SweepConfig(3, 2, 2))
    violations = result.theorem_violations
    assert main(["sweep", "--n", "3", "--m", "2", "--denominator", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "models-enumerated: 4374",
        "models-satisfying-assumptions: 4374",
        f"witnesses-with-updating: {result.witnesses_with_updating}",
        f"multiple-updating-violations: {len(violations)}",
    ]
    assert lines[4:] == [
        f"  violation: H{v.hypothesis} updated by E{v.evidence[0]} and E{v.evidence[1]} in {v.spec}"
        for v in violations
    ]
    assert len(violations) > 0
