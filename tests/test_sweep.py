import importlib
import os
import re
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction as F
from itertools import combinations, permutations, product
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from oddsaudit import (
    InvalidModelError,
    SweepConfig,
    SweepLimitError,
    SweepResult,
    check_assumptions,
    dumps,
    from_conditionals,
    load,
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
            report = check_assumptions(from_conditionals(spec_from_grid(priors, flat, d)))
            if require_condition1:
                if report.condition1_failures != ():
                    continue
            if report.independence_violations:
                continue
            satisfying += 1
            survivors.add((priors, flat))
            if report.theorem.status == "violated":
                violated += 1
            if any(report.relevance.values()):
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
    # Like ``Model``, a float or a bool is refused, never swept or coerced.
    for fields in ((3, 2, True), (3, 2, 2.0), (3.0, 2, 2), (3, 2.0, 2), (3, True, 2), ("3", 2, 2)):
        with pytest.raises(InvalidModelError, match="must be an int"):
            SweepConfig(*fields)


@pytest.mark.parametrize("flag", [1, 2, "yes", None, np.True_])
def test_require_condition1_must_be_a_bool(flag):
    """A truthy stand-in is refused, never swept as some other row range."""
    with pytest.raises(InvalidModelError, match="require_condition1 must be a bool, got "):
        SweepConfig(3, 2, 3, require_condition1=flag)


def test_spec_from_grid():
    spec = spec_from_grid((2, 2, 2), (3, 3, 3, 6, 0, 0), 6)
    assert spec.priors == (F(1, 3),) * 3
    assert spec.cond == ((F(1, 2),) * 3, (F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        spec_from_grid((1, 1), (0, 0, 0), 2)
    # Neither a division by zero nor a prior of 1 out of -1/-1.
    for priors, denominator in (((1, 0, 0), 0), ((-1, 0, 0), -1)):
        with pytest.raises(ValueError, match="denominator must be an int >= 1"):
            spec_from_grid(priors, (0, 0, 0), denominator)


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
    "grid",
    [
        (3, 5, 3, False),
        (4, 4, 2, False),
        (5, 3, 2, False),
        (3, 4, 3, True),
        (4, 5, 3, False),
        (5, 3, 4, False),
        (3, 6, 3, False),
        (3, 2, 12, False),
    ],
)
def test_sweep_matches_relevance_counts_on_large_grids(grid):
    """Grids of 10^8-10^13 models, counted by the converse of the theorem;
    (3, 2, 12) has compositions of 2,197 rows in 469 shift classes."""
    enum, satisfying, updating = _brute.grid_counts_by_relevance(*grid)
    result = sweep(SweepConfig(*grid), max_models=enum)
    assert result.models_enumerated == enum
    assert result.models_satisfying_all == satisfying
    assert result.witnesses_with_updating == updating
    assert not result.theorem_violations


def row_classes(reps, rows, d, c1):
    """Each row's shift class among the representatives ``reps`` of a pair
    check over the same columns, looked up as the listing walk looks it up:
    the row less its least entry, plus c1, by flat index in grid order."""
    place = (d + 1 - c1) ** np.arange(reps.shape[1])[::-1]
    return np.searchsorted((reps - c1) @ place, (rows - rows.min(axis=1)[:, None]) @ place)


def graph_survives(priors, flat, n, m, d):
    """A spec's verdict read off its composition's pair check: the shift
    classes of every pair of its rows, over the columns of nonzero prior, have
    disjoint masks or are a clash."""
    reps, mask, clashes = sweep_module._pairs(priors, d, False)
    live = [i for i, p in enumerate(priors) if p]
    rows = np.array([[flat[j * n + i] for i in live] for j in range(m)])
    nodes = row_classes(reps, rows, d, False).tolist()
    return all(
        not mask[a] & mask[b] or (min(a, b), max(a, b)) in clashes
        for a, b in combinations(nodes, 2)
    )


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
    """The pair check's verdict equals the all-subsets oracle for m > 3."""
    n, m, d, priors, flat = case
    assert graph_survives(priors, flat, n, m, d) == _brute.grid_survives(priors, flat, n, m, d)


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


@pytest.mark.parametrize("grid", [(3, 2, 3), (4, 2, 2), (3, 2, 6), (4, 2, 3)])
def test_object_kernel_matches_int32_kernel(grid):
    """The int32 identity, each hypothesis tested on the pairs that passed the
    ones before it, and the masks equal those of the uncentred pair identity,
    evaluated in Python integers, on every prior composition of the grid (zero
    priors, a prior of D and both settings of ``require_condition1`` among
    them): the streamed check of shift classes finds no clash, and the exact
    identity holds exactly on the pairs of full rows whose classes have
    disjoint masks."""
    n, _, d = grid
    for P in product(range(d + 1), repeat=n):
        if sum(P) != d:
            continue
        live = [p for p in P if p]
        for c1 in (False, True):
            reps, mask, clashes = sweep_module._pairs(P, d, c1)
            rows = sweep_module._rows(len(live), d, c1)
            classes = row_classes(reps, rows, d, c1)
            rows = rows.astype(object)
            t = rows @ np.array(live, dtype=object)
            T = (rows * np.array(live, dtype=object)) @ rows.T
            exact = np.ones((len(rows), len(rows)), dtype=bool)
            if len(live) < n:  # a zero-prior hypothesis: its remainder is D
                exact &= T * d == np.multiply.outer(t, t)
            bits = np.zeros(len(rows), dtype=object)
            for k, p in enumerate(live):
                if p == d:
                    continue
                own = t - p * rows[:, k]
                exact &= (T - p * np.multiply.outer(rows[:, k], rows[:, k])) * (d - p) == (
                    np.multiply.outer(own, own)
                )
                bits += np.where(rows[:, k] * d != t, 1 << k, 0)
            assert [int(b) for b in bits] == mask[classes].tolist(), (P, c1)
            # The check raised on no pair and found no clash, so the int32
            # identity is the disjoint-mask relation on every pair of classes,
            # and the exact identity is that relation on every pair of rows.
            assert clashes == [], (P, c1)
            row_mask = mask[classes]
            assert np.array_equal(exact, (row_mask[:, None] & row_mask) == 0), (P, c1)


@pytest.mark.parametrize("grid", [(3, 2, 3), (4, 2, 2), (3, 2, 5)])
def test_every_row_has_its_shift_class_x_and_mask(grid):
    """Rows that differ by a constant share X and the update mask, so the check
    tests one row per shift class, the one whose least entry is c1.  On every
    composition, with and without ``require_condition1``: each grid row is its
    class's representative plus a constant, with the representative's X and
    mask; the classes number (D+1-c1)^w - (D-c1)^w over w live columns, their
    representatives in grid order; and their weights, D + 1 less the
    representative's largest entry, count the rows of each class and add up
    to (D+1-c1)^w."""
    n, _, d = grid
    for P in compositions(d, n):
        live = np.array([p for p in P if p])
        w = len(live)
        for c1 in (False, True):
            representatives, mask, clashes = sweep_module._pairs(P, d, c1)
            weight = d + 1 - representatives.max(axis=1)  # the class sizes, as _counts takes them
            rows = np.array(list(product(range(c1, d + 1), repeat=w)))
            classes = row_classes(representatives, rows, d, c1)
            X = d * rows - (rows @ live)[:, None]
            bits = ((X != 0) & (live < d)) @ (1 << np.arange(w))
            reps = np.flatnonzero(rows.min(axis=1) == c1)
            assert len(mask) == len(weight) == len(reps) == (d + 1 - c1) ** w - (d - c1) ** w
            assert np.array_equal(representatives, rows[reps]), (P, c1)
            shift = rows - rows[reps][classes]
            assert (shift == shift[:, :1]).all() and (shift >= 0).all(), (P, c1)
            assert np.array_equal(X, X[reps][classes]), (P, c1)
            assert np.array_equal(bits, mask[classes]), (P, c1)
            assert weight.tolist() == (d + 1 - rows[reps].max(axis=1)).tolist(), (P, c1)
            assert weight.tolist() == np.bincount(classes, minlength=len(mask)).tolist()
            assert weight.sum() == (d + 1 - c1) ** w == len(rows), (P, c1)
            assert clashes == [], (P, c1)


def test_denominator_past_the_int64_kernel_is_refused(capsys):
    """Every identity term is at most D^5, so D = 6209 is refused before any
    array is built, with empty tallies, whatever the budget."""
    assert 6208**5 < 2**63 <= 6209**5
    started = perf_counter()
    with pytest.raises(SweepLimitError, match="denominator 6209") as info:
        sweep(SweepConfig(3, 2, 6209), max_models=10**100)
    assert info.value.partial == SweepResult()
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "6209", "--max-models", str(10**100)]
    assert main(argv) == 3
    assert "models-enumerated: 0" in capsys.readouterr().err
    assert perf_counter() - started < 1.0


def test_evidence_past_the_model_cap_is_refused(monkeypatch):
    """m = 16 sweeps, as every witness is a Model; m = 17 and m = 1000 are
    refused with the Model's cap before any pair test, whatever the budget
    (a listing walk m deep would fail at m = 1000)."""
    enum, satisfying, updating = _brute.grid_counts_by_relevance(3, 16, 1)
    result = sweep(SweepConfig(3, 16, 1), max_models=enum)
    assert (result.models_enumerated, result.models_satisfying_all) == (enum, satisfying)
    assert result.witnesses_with_updating == updating
    monkeypatch.setattr(sweep_module, "_pairs", None)  # calling it would fail
    for m in (17, 1000):
        with pytest.raises(InvalidModelError, match=f"^m={m} exceeds the evidence cap 16"):
            sweep(SweepConfig(3, m, 1), max_models=10**1000)
    # The cap comes before the budget, which the default would exhaust at m = 17.
    with pytest.raises(InvalidModelError, match="^m=17 exceeds the evidence cap 16"):
        sweep(SweepConfig(3, 17, 1))


def class_pairs(n, d, c1):
    """Pair tests of a whole grid: C (C + 1) / 2 for each sorted composition
    of C shift classes, the rows of least entry c1 over its w columns of
    nonzero prior, (d + 1 - c1)^w - (d - c1)^w of them."""
    stars = {tuple(sorted(P)) for P in compositions(d, n) if not (c1 and 0 in P)}
    classes = [(d + 1 - c1) ** w - (d - c1) ** w for w in (n - P.count(0) for P in stars)]
    return sum(c * (c + 1) // 2 for c in classes)


def canonical(P, reps):
    """Which of the representatives ``reps`` of composition ``P`` are canonical:
    no entry rises within a run of equal live priors."""
    live = [p for p in P if p]
    ties = [k for k in range(len(live) - 1) if live[k] == live[k + 1]]
    return [all(row[k] >= row[k + 1] for k in ties) for row in reps.tolist()]


def reduced_pairs(C, K):
    """The pairs holding a canonical class, K of C: K (K + 1) / 2 + K (C - K)."""
    return K * (K + 1) // 2 + K * (C - K)


@pytest.mark.parametrize("c1", [False, True])
@pytest.mark.parametrize("n, d", [(3, d) for d in range(1, 9)] + [(4, 4), (5, 3)])
def test_the_bound_counts_the_pairs_the_kernel_tests(n, d, c1, monkeypatch):
    """The bound counts every pair of the kernel's classes: the classes that the
    check keeps are the bound's C for each composition, and the bound sums
    C (C + 1) / 2.  The identity blocks test the pairs that hold one of the K
    canonical classes, K (K + 1) / 2 + K (C - K), at most the bound's count and
    equal to it where no live prior repeats (a block of b classes from s on
    meets the C - s from s on, less the b (b - 1) / 2 below the diagonal)."""
    kept, tested = [], []
    pairs, identity = sweep_module._pairs, sweep_module._identity

    def spy_pairs(P, D, c):
        start = len(tested)
        check = pairs(P, D, c)
        live = [p for p in P if p]
        C, K = len(check[0]), sum(canonical(P, check[0]))
        assert C == (D + 1 - c) ** len(live) - (D - c) ** len(live), P
        assert sum(tested[start:]) == reduced_pairs(C, K) <= C * (C + 1) // 2, P
        assert (K == C) == (len(set(live)) == len(live)), P
        kept.append(C)
        return check

    def spy_identity(*args):
        for s, ok in identity(*args):
            b, width = ok.shape
            tested.append(b * width - b * (b - 1) // 2)
            yield s, ok

    monkeypatch.setattr(sweep_module, "_pairs", spy_pairs)
    monkeypatch.setattr(sweep_module, "_identity", spy_identity)
    result = sweep(SweepConfig(n, 2, d, c1), max_models=10**20)
    assert result.theorem_violations == []
    assert sum(c * (c + 1) // 2 for c in kept) == class_pairs(n, d, c1) >= sum(tested)


def test_grid_past_the_pair_test_bound_is_refused(monkeypatch):
    """The bound of 2^33 class pairs admits every grid that a cap of 2^14 rows
    per composition admitted, and at n = 3 every D up to 52, but not (3, 2, 53):
    its composition (17, 17, 19) takes the sum past the bound and is refused
    before any pair test, with empty tallies, while a budget of 28 blocks,
    whose compositions have at most 107 classes, sweeps."""
    bound, block = 1 << 33, 54**6
    assert sweep_module._MAX_PAIR_TESTS == bound
    assert class_pairs(3, 26, False) == 124_382_172
    assert class_pairs(3, 52, False) == 7_693_415_566 < bound < class_pairs(3, 53, False)
    for n, d, c1 in product(range(3, 9), range(1, 27), (False, True)):
        if (d + 1 - c1) ** min(n, d) <= 1 << 14:  # the row cap admitted the whole grid
            assert class_pairs(n, d, c1) <= bound, (n, d, c1)
    with pytest.raises(SweepLimitError, match="budget") as info:
        sweep(SweepConfig(3, 2, 53), max_models=28 * block)
    assert info.value.partial.models_enumerated == 28 * block
    monkeypatch.setattr(sweep_module, "_pairs", None)  # calling it would fail
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(3, 2, 53), max_models=10**20)
    assert str(info.value) == (
        "composition (17, 17, 19) brings the pair tests to 8591460903, past the cap 8589934592"
    )
    assert info.value.partial == SweepResult()


class PassedThePrePass(Exception):
    pass


@pytest.mark.parametrize("n, d", [(3, 52), (4, 16)])
def test_the_largest_grids_under_the_bound_pass_the_pre_pass(n, d, monkeypatch):
    """(3, 2, 52), at 7,693,415,566 class pairs, and (4, 2, 16), at 5.5e9,
    reach the pair check: the pre-pass admits them."""
    def first_check(*args):
        raise PassedThePrePass

    monkeypatch.setattr(sweep_module, "_pairs", first_check)
    with pytest.raises(PassedThePrePass):
        sweep(SweepConfig(n, 2, d), max_models=10**20)


def test_the_int32_kernel_covers_every_grid_the_bound_admits():
    """Every identity term is at most D^5, and the largest D whose grid the
    pair bound admits keeps D^5 below 2^31 for n = 3..6, with and without
    ``require_condition1``: a bound raised far enough to admit D = 74 fails here."""
    largest = {}
    for n, c1 in product(range(3, 7), (False, True)):
        d = 1
        while class_pairs(n, d + 1, c1) <= sweep_module._MAX_PAIR_TESTS:
            d += 1
        largest[n, c1] = d
        assert d**5 < 2**31, (n, c1, d)
    assert (largest[3, False], largest[3, True], largest[4, False]) == (52, 53, 16)


def test_denominator_past_the_int32_kernel_is_refused(monkeypatch, capsys):
    """D = 74 is the first D with D^5 >= 2^31: it is refused with the kernel's
    range before any array is built, with empty tallies and exit 3, whether the
    budget admits the whole grid or only its first composition; D = 73 passes
    that check and meets the pair bound instead."""
    assert 73**5 < 2**31 <= 74**5
    monkeypatch.setattr(sweep_module, "_rows", None)  # calling either would fail
    monkeypatch.setattr(sweep_module, "_pairs", None)
    for budget in (10**20, 75**6):
        with pytest.raises(SweepLimitError) as info:
            sweep(SweepConfig(3, 2, 74), max_models=budget)
        assert str(info.value) == "denominator 74 is past the int32 kernel"
        assert info.value.partial == SweepResult()
    with pytest.raises(SweepLimitError, match=r"^composition \(2, 31, 40\) brings the pair") as info:
        sweep(SweepConfig(3, 2, 73), max_models=10**20)
    assert info.value.partial == SweepResult()
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "74", "--max-models", str(10**20)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: denominator 74 is past the int32 kernel\n"
        "models-enumerated: 0\n"
        "models-satisfying-assumptions: 0\n"
        "witnesses-with-updating: 0\n"
        "multiple-updating-violations: 0\n"
    )
    assert captured.out == ""


@pytest.mark.slow
def test_the_first_grid_the_row_bound_refused_matches_the_oracle():
    """(3, 2, 26), refused when the bound counted grid-row pairs, sweeps in
    seconds to the counts of the independent oracle, with no violation."""
    counts = (146_444_944_842, 3_593_385_342, 2_391_047_100)
    result = sweep(SweepConfig(3, 2, 26), max_models=10**20)
    assert result.theorem_violations == []
    assert counts == (
        result.models_enumerated, result.models_satisfying_all, result.witnesses_with_updating
    )
    assert _brute.grid_counts_by_relevance(3, 2, 26) == counts


@pytest.mark.slow
@pytest.mark.parametrize("c1, counts", [
    (False, (59_319_802_290, 6_386_376_570, 4_673_875_080)),
    (True, (59_319_802_290, 503_820, 503_640)),
])
def test_a_grid_of_repeated_priors_matches_the_oracle(c1, counts):
    """All but 0.02% of the class pairs of (5, 2, 6) lie in compositions with a
    repeated live prior, so its kernel tests one pair per orbit, 6.2x fewer
    than every pair; it sweeps to the counts of the independent oracle, with
    no violation, with and without ``require_condition1``."""
    result = sweep(SweepConfig(5, 2, 6, c1), max_models=10**20)
    assert result.theorem_violations == []
    assert counts == (
        result.models_enumerated, result.models_satisfying_all, result.witnesses_with_updating
    )
    assert _brute.grid_counts_by_relevance(5, 2, 6, c1) == counts


@pytest.mark.parametrize("budget", [2.5e7, None, True, False, -5, "100", np.int64(10**6)])
def test_budget_must_be_a_non_negative_int(budget):
    with pytest.raises(InvalidModelError, match="max_models must be a non-negative int"):
        sweep(SweepConfig(3, 2, 1), max_models=budget)


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
        report = check_assumptions(from_conditionals(spec_from_grid(priors, flat, 2)))
        assert report.independence_violations == ()
        updating += any(report.relevance.values())
    assert 0 < updating == record.result.witnesses_with_updating


def test_cross_hypothesis_updating_witness_on_the_grid(sweep_records):
    """A four-hypothesis survivor where E1 updates H1/H2 and E2 updates H3/H4."""
    priors, flat = (1, 1, 1, 1), (1, 3, 2, 2, 2, 2, 1, 3)
    assert _brute.grid_survives(priors, flat, 4, 2, 4)
    assert (priors, flat) in set(nondegenerate_survivors(sweep_records, (4, 2, 4)))
    report = check_assumptions(from_conditionals(spec_from_grid(priors, flat, 4)))
    assert report.theorem.status == "holds"
    assert report.relevance == {
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
        assert check_assumptions(load(path)).independence_violations == ()


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
    the kernel checks the pairs of its sorted form alone."""
    seen = set()
    original = sweep_module._pairs

    def spy(P, D, c1):
        seen.add(P)
        return original(P, D, c1)

    monkeypatch.setattr(sweep_module, "_pairs", spy)
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(3, 2, 2), max_models=3**6)
    assert info.value.partial.models_enumerated == 3**6
    assert seen == {(2, 0, 0)}


def test_a_counting_sweep_generates_each_composition_once(monkeypatch):
    """A sweep that lists nothing and meets no clash goes over the admitted
    compositions once, tallying each sorted form by how many of them have it;
    only a listing sweep goes over them again."""
    generated, original = [], sweep_module._compositions

    def spy(n, D):
        for P in original(n, D):
            generated.append(P)
            yield P

    monkeypatch.setattr(sweep_module, "_compositions", spy)
    config, block = SweepConfig(4, 2, 3), 4**8
    assert sweep(config).models_enumerated == 20 * block
    assert len(generated) == 20
    generated.clear()
    with pytest.raises(SweepLimitError) as info:
        sweep(config, max_models=7 * block)
    assert info.value.partial.models_enumerated == 7 * block
    assert len(generated) == 7
    generated.clear()
    sweep(config, on_survivor=lambda p, c: None)
    assert 20 < len(generated) <= 2 * 20


@pytest.mark.parametrize("grid", [(3, 2, 4, False), (3, 2, 4, True), (4, 2, 3, False)])
def test_each_sorted_composition_is_checked_once(grid, monkeypatch):
    """A sweep that lists its survivors runs the pair check once for each
    sorted composition it admits, and on no other composition: counting and
    listing both read that one check."""
    n, m, d, c1 = grid
    calls, original = [], sweep_module._pairs

    def spy(P, *args):
        calls.append(P)
        return original(P, *args)

    monkeypatch.setattr(sweep_module, "_pairs", spy)
    listed = []
    result = sweep(SweepConfig(n, m, d, c1), on_survivor=lambda p, c: listed.append(p))
    assert len(listed) == result.models_satisfying_all > 0
    assert {P for P in listed if P != tuple(sorted(P, reverse=True))}  # unsorted ones are listed
    stars = {tuple(sorted(P, reverse=True)) for P in compositions(d, n) if not (c1 and 0 in P)}
    assert sorted(calls) == sorted(stars)
    assert all(list(P) == sorted(P, reverse=True) for P in calls)


def test_a_counted_check_is_not_kept(monkeypatch):
    """A sweep that lists nothing drops each composition's check once it is
    counted without a clash, so it holds one composition's classes at a time,
    not the whole grid's."""
    kept, original = [], sweep_module._counts

    def spy(P, m, D, check):
        assert all(ref() is None for ref in kept), P  # every earlier check is freed
        kept.append(weakref.ref(check[0]))
        return original(P, m, D, check)

    monkeypatch.setattr(sweep_module, "_counts", spy)
    result = sweep(SweepConfig(3, 2, 6))
    assert (result.models_satisfying_all, len(kept)) == (868_672, 7)


@pytest.mark.parametrize("n, d", [(3, 5), (4, 3)])
def test_relabelled_classes_are_the_sorted_forms(n, d):
    """Relabelling hypotheses maps a composition's classes onto its sorted
    form's, which is what lets the walk read the sorted form's check: on every
    composition, with and without ``require_condition1``, the check finds no
    clash, and each representative with its live columns in the sorted order
    (stable by descending prior) is a representative of the sorted form, with
    the same mask once its bits are moved the same way."""
    for P in compositions(d, n):
        live = [i for i in range(n) if P[i]]
        order = sorted(range(len(live)), key=lambda k: -P[live[k]])  # sorted bit j: order[j]
        star = tuple(sorted(P, reverse=True))
        for c1 in (False, True):
            reps, mask, clashes = sweep_module._pairs(P, d, c1)
            star_reps, star_mask, _ = sweep_module._pairs(star, d, c1)
            assert clashes == [], (P, c1)
            index = {row: k for k, row in enumerate(map(tuple, star_reps.tolist()))}
            found = [index[tuple(row)] for row in reps[:, order].tolist()]
            assert sorted(found) == list(range(len(star_reps))), (P, c1)
            moved = [
                sum((bits >> k & 1) << j for j, k in enumerate(order)) for bits in mask.tolist()
            ]
            assert star_mask[found].tolist() == moved, (P, c1)


@pytest.mark.parametrize("star, d", [((2, 1, 0), 3), ((2, 1, 1, 0), 4)])
def test_an_injected_clash_is_named_on_every_relabelling(star, d, monkeypatch):
    """One meeting pair of classes of a sorted composition with a zero, made
    to pass its identity with every pair of its orbit under relabelling equal
    priors, is a clash that every permutation of it lists: the specs with a row
    of each class of one of those pairs, whose live columns, in the sorted
    order (ties kept in column order), are the class's representative plus a
    constant.  Each violation names the lowest hypothesis that both rows
    update and the two rows, as the oracle's updating sets do, in grid order.
    On (2, 1, 1, 0) the pair's masks differ and meet on two bits, so the name
    depends on moving the sorted form's mask bits back to P's columns."""
    n, m = len(star), 2
    reps, mask, clashes = sweep_module._pairs(star, d, False)
    assert clashes == []
    meeting = [
        (a, b) for a, b in combinations(range(len(mask)), 2)
        if bin(int(mask[a] & mask[b])).count("1") == 2
    ]
    a, b = min(meeting, key=lambda pair: mask[pair[0]] == mask[pair[1]])  # masks differ if any do
    pass_one_pair(monkeypatch, reps, a, b, True, star)
    result = sweep(SweepConfig(n, m, d))
    listed = [
        (tuple(p * d for p in v.spec.priors), tuple(c * d for row in v.spec.cond for c in row),
         v.hypothesis, v.evidence)
        for v in result.theorem_violations
    ]
    expected = []
    for P in compositions(d, n):
        if tuple(sorted(P, reverse=True)) != star:
            continue
        columns = sorted((i for i in range(n) if P[i]), key=lambda i: -P[i])
        zeros = [i for i in range(n) if not P[i]]
        flats = set()
        for pair in orbit(star, reps, a, b):
            sides = []
            for rep in (reps[r].tolist() for r in pair):
                free = product(range(d + 1), repeat=len(zeros))
                rows = [
                    dict(zip(columns, (x + shift for x in rep))) | dict(zip(zeros, values))
                    for shift, values in product(range(d + 1 - max(rep)), free)
                ]
                sides.append([tuple(row[i] for i in range(n)) for row in rows])
            flats.update(x + y for x, y in product(*sides))
            flats.update(y + x for x, y in product(*sides))
        for flat in sorted(flats):
            sets = _brute.grid_updating_sets(P, flat, n, m, d)
            first = min(i for i in sets if len(sets[i]) >= 2)
            expected.append((P, flat, first, tuple(sorted(sets[first])[:2])))
    assert {P for P, *_ in expected} == set(permutations(star))
    assert listed == expected


def test_compositions_come_in_the_product_order():
    for n in range(1, 7):
        for d in range(6):
            expected = [P for P in product(range(d + 1), repeat=n) if sum(P) == d]
            assert list(sweep_module._compositions(n, d)) == expected


def test_wide_grid_lists_compositions_not_prior_tuples():
    """(12, 2, 3) has 364 prior compositions among 4**12 prior tuples; the
    sweep lists only the compositions, so a budget that admits the whole grid
    ends in well under a second, and one model less stops after 363 blocks.
    The counts are those of the product-filtering sweep, which took 4-5 s."""
    block = 4**24
    start = perf_counter()
    result = sweep(SweepConfig(12, 2, 3), max_models=364 * block)
    assert perf_counter() - start < 0.5
    assert result.models_enumerated == 364 * block
    assert result.models_satisfying_all == 27_131_548_927_000_576
    assert result.witnesses_with_updating == 21_189_788_090_499_072
    assert result.theorem_violations == []
    with pytest.raises(SweepLimitError) as info:
        sweep(SweepConfig(12, 2, 3), max_models=364 * block - 1)
    assert info.value.partial.models_enumerated == 363 * block


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
    """Listing and counting sweeps (the latter weighting each sorted form by
    its admitted compositions) both match the oracle, on partial runs too."""
    n, m, d, c1, max_models = grid
    block = (d + 1) ** (n * m)
    listed, results = [], []
    for on_survivor in (lambda p, c: listed.append((p, c)), None):
        try:
            results.append(
                sweep(SweepConfig(n, m, d, c1), max_models=max_models, on_survivor=on_survivor)
            )
        except SweepLimitError as exc:
            results.append(exc.partial)
    covered = list(compositions(d, n))[: results[0].models_enumerated // block]
    satisfying, updating, violating, survivors = brute_tally(n, m, d, c1, covered)
    for result in results:
        assert result.models_enumerated == block * len(covered)
        assert result.models_satisfying_all == satisfying
        assert result.witnesses_with_updating == updating
        assert len(result.theorem_violations) == violating == 0
    assert listed == survivors
    order = [(covered.index(p), int("".join(map(str, c)), d + 1)) for p, c in listed]
    assert all(a < b for a, b in zip(order, order[1:]))


def patch_identity(monkeypatch, edit):
    """Patch the sweep's pair identity: ``edit(P, s, ok, classes)`` changes each
    block in place before the check compares it with the masks.  ``ok[i, j]``
    is the pair of classes ``classes[s + i]`` and ``classes[s + j]``, their
    indices in grid order, which the kernel may test in another order."""
    original = sweep_module._identity

    def identity(P, D, live, rows, *args):
        classes = np.lexsort(rows.T[::-1]).argsort()  # each row's rank in grid order
        for s, ok in original(P, D, live, rows, *args):
            edit(P, s, ok, classes)
            yield s, ok

    monkeypatch.setattr(sweep_module, "_identity", identity)


def every_pair_an_edge(monkeypatch):
    """Patch the sweep so that every pair of rows passes the identity."""
    patch_identity(monkeypatch, lambda P, s, ok, classes: ok.fill(True))


def test_violations_listed_from_classes(monkeypatch):
    """With every pair of rows passing, every spec survives, so the counted
    violations and the listed ones are checked against the oracle's updating
    sets, in grid order, on (3, 2, 2) and at m = 3.  There a violation's
    hypothesis is the lowest one that two rows update, which need not be where
    the first two rows whose updating sets meet (in row order) meet: rows
    updating {H1, H3}, {H2, H3} and {H1, H2} name H1 and E1, E3, not H3 and
    E1, E2.  That takes three hypotheses of nonzero prior, hence D = 3, and
    ``require_condition1`` keeps the grid to the 27^3 specs of priors (1, 1, 1)."""
    every_pair_an_edge(monkeypatch)
    for n, m, d, c1 in [(3, 2, 2, False), (3, 3, 3, True)]:
        result = sweep(SweepConfig(n, m, d, c1))
        kept, expected, named_off_the_first_meeting = 0, [], 0
        for priors in compositions(d, n):
            if c1 and 0 in priors:
                continue
            kept += 1
            for flat in product(range(c1, d + 1), repeat=n * m):
                sets = _brute.grid_updating_sets(priors, flat, n, m, d)
                first = next((i for i in sorted(sets) if len(sets[i]) >= 2), None)
                if first is None:
                    continue
                pair = tuple(sorted(sets[first])[:2])
                expected.append((priors, flat, first, pair))
                rows = [{i for i in sets if j in sets[i]} for j in range(1, m + 1)]
                a, b = next((a, b) for a, b in combinations(range(m), 2) if rows[a] & rows[b])
                first_meeting = min(rows[a] & rows[b]), (a + 1, b + 1)
                named_off_the_first_meeting += first_meeting != (first, pair)
        assert result.models_enumerated == len(list(compositions(d, n))) * (d + 1) ** (n * m)
        assert result.models_satisfying_all == kept * (d + 1 - c1) ** (n * m)
        listed = [
            (
                tuple(p * d for p in v.spec.priors),
                tuple(c * d for row in v.spec.cond for c in row),
                v.hypothesis,
                v.evidence,
            )
            for v in result.theorem_violations
        ]
        assert listed == expected
        assert len(expected) > 0
        assert (named_off_the_first_meeting > 0) == (m == 3)


def test_cli_lists_violations_and_exits_1(monkeypatch, capsys):
    """With every pair of rows passing the identity, ``sweep`` prints one line
    per violation after the counts and exits 1."""
    every_pair_an_edge(monkeypatch)
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


def orbit(P, reps, a, b):
    """The pairs p <= q of classes that the permutations of the equal-prior live
    columns of composition ``P`` make of classes a and b, among the
    representatives ``reps`` of its check."""
    live = [p for p in P if p]
    index = {row: k for k, row in enumerate(map(tuple, reps.tolist()))}
    pairs = set()
    for perm in permutations(range(len(live))):
        if [live[k] for k in perm] == live:
            p, q = (index[tuple(reps[r][list(perm)].tolist())] for r in (a, b))
            pairs.add((min(p, q), max(p, q)))
    return sorted(pairs)


def pass_one_pair(monkeypatch, reps, a, b, passes, star=(1, 1, 1)):
    """Patch the identity of composition ``star``, whose check found the
    representatives ``reps``, so that the pair of shift classes a < b and every
    pair of its orbit pass it or fail it, wherever the kernel tests them."""
    pairs = orbit(star, reps, a, b)

    def edit(P, s, ok, classes):
        if P == star:
            place = np.argsort(classes)  # each class's position in the kernel's order
            for p, q in pairs:
                i, j = sorted((place[p], place[q]))
                if s <= i < s + len(ok):
                    ok[i - s, j - s] = passes

    patch_identity(monkeypatch, edit)


def class_rows(reps, p, d):
    """The grid rows of shift class ``p`` of composition (1, 1, 1), whose
    check found the representatives ``reps``, as digit tuples in grid order;
    the first is the class's representative."""
    classes = row_classes(reps, sweep_module._rows(3, d, False), d, False)
    return [
        tuple(r // (d + 1) ** (2 - k) % (d + 1) for k in range(3))
        for r in np.flatnonzero(classes == p).tolist()
    ]


@pytest.mark.parametrize("m", [2, 3])
def test_an_injected_clashing_edge_is_reported(m, monkeypatch):
    """One pair of shift classes that update the same hypothesis, made to pass
    the identity of (1, 1, 1) on D = 3 with every pair of its orbit under
    relabelling the equal priors, is a clash of the check with its orbit and is
    reported as violations at m = 2 and m = 3: exactly the new survivors, the
    specs holding a row of each class of one of those pairs."""
    d = 3
    clean = sweep(SweepConfig(3, m, d))
    reps, mask, clashes = sweep_module._pairs((1, 1, 1), d, False)
    assert clashes == []  # so every pair of meeting masks fails the identity
    a, b = next((a, b) for a, b in combinations(range(len(mask)), 2) if mask[a] & mask[b])
    pairs = orbit((1, 1, 1), reps, a, b)
    assert (a, b) in pairs and len(pairs) > 1
    pass_one_pair(monkeypatch, reps, a, b, True)
    assert sweep_module._pairs((1, 1, 1), d, False)[2] == pairs
    result = sweep(SweepConfig(3, m, d))
    violations = result.theorem_violations
    assert len(violations) == result.models_satisfying_all - clean.models_satisfying_all > 0
    rows = {
        p: [tuple(F(c, d) for c in row) for row in class_rows(reps, p, d)]
        for p in {p for pair in pairs for p in pair}
    }
    assert len(rows[a]) * len(rows[b]) > 1  # a class of several rows is reported whole
    for v in violations:
        assert v.spec.priors == (F(1, 3),) * 3
        assert any(
            set(rows[p]) & set(v.spec.cond) and set(rows[q]) & set(v.spec.cond)
            and int(mask[p] & mask[q]) >> (v.hypothesis - 1) & 1
            for p, q in pairs
        )
    if m == 2:
        both = {
            pair for p, q in pairs for x in rows[p] for y in rows[q] for pair in ((x, y), (y, x))
        }
        assert [v.spec.cond for v in violations] == sorted(both)


def test_a_missing_edge_fails_loudly(monkeypatch):
    """A pair of shift classes with disjoint masks that fails the identity
    contradicts the theorem's converse: the sweep raises, naming the
    composition and the two representative rows, instead of counting fewer
    survivors."""
    d = 3
    reps, mask, _ = sweep_module._pairs((1, 1, 1), d, False)
    # the first pair of distinct classes that the kernel tests, canonical ones first
    heads = canonical((1, 1, 1), reps)
    order = sorted(range(len(mask)), key=lambda k: not heads[k])
    a, b = sorted(next((p, q) for p, q in combinations(order, 2) if not mask[p] & mask[q]))
    pass_one_pair(monkeypatch, reps, a, b, False)
    rows = [class_rows(reps, p, d)[0] for p in (a, b)]
    message = f"composition (1, 1, 1): rows {rows[0]} and {rows[1]} of disjoint masks fail"
    with pytest.raises(AssertionError, match=re.escape(message)):
        sweep(SweepConfig(3, 2, d))


def test_an_overcount_fails_loudly_under_python_o():
    """The listing's cross-check against the counts is a raise, not an
    ``assert`` that ``python -O`` strips: in a fresh ``-O`` interpreter, with
    ``_counts`` patched to count one survivor too many, a listing sweep of
    (3, 2, 2) still raises."""
    script = textwrap.dedent("""
        import importlib, sys
        module = importlib.import_module("oddsaudit.sweep")
        original = module._counts
        def overcount(*args):
            survivors, *rest = original(*args)
            return [survivors + 1, *rest]
        module._counts = overcount
        try:
            module.sweep(module.SweepConfig(3, 2, 2), on_survivor=lambda P, digits: None)
        except AssertionError as exc:
            print(sys.flags.optimize, exc)
        else:
            print(sys.flags.optimize, "returned")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(sweep_module.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "1 the listing must match the counts\n", ""
    )


# --- one pair per orbit of equal priors --------------------------------------------


def full_pairs(P, d, c1):
    """The pair check as it was before it tested one pair per orbit: every pair
    of classes in grid order, each block of classes against every class from
    its first on, the masks compared in int64.  Returns what ``_pairs`` does;
    a pair of disjoint masks that fails fails the test."""
    live = np.array([p for p in P if p], dtype=np.int64)
    rows = sweep_module._rows(len(live), d, c1)
    rows = rows[rows.min(axis=1) == c1]
    X = d * rows - (rows @ live)[:, None]
    mask = ((X != 0) & (live < d)) @ (1 << np.arange(len(live), dtype=np.int64))
    clashes = []
    for s, ok in sweep_module._identity(P, d, live, rows, X, len(rows)):
        disjoint = (mask[s : s + len(ok), None] & mask[s:]) == 0
        for a, b in (np.argwhere(np.triu(ok != disjoint)) + s).tolist():
            assert ok[a - s, b - s], (P, a, b)
            clashes.append((a, b))
    return rows, mask, clashes


def sorted_compositions(n, d, c1):
    stars = {tuple(sorted(P, reverse=True)) for P in compositions(d, n) if not (c1 and 0 in P)}
    return sorted(stars)


#: Every sorted composition with n <= 6 and D <= 4, with and without condition 1.
SMALL_STARS = [
    (P, d, c1)
    for n, d, c1 in product(range(3, 7), range(1, 5), (False, True))
    for P in sorted_compositions(n, d, c1)
]


def test_the_orbit_check_matches_the_full_check():
    """On every sorted composition with n <= 6 and D <= 4, with and without
    ``require_condition1``, the check that tests one pair per orbit finds the
    representatives, masks and clashes (none) of the full check."""
    for P, d, c1 in SMALL_STARS:
        reps, mask, clashes = sweep_module._pairs(P, d, c1)
        full_reps, full_mask, full_clashes = full_pairs(P, d, c1)
        assert np.array_equal(reps, full_reps) and np.array_equal(mask, full_mask), (P, d, c1)
        assert clashes == full_clashes == [], (P, d, c1)


def test_the_kernel_tests_one_pair_of_each_orbit(monkeypatch):
    """On the same compositions, the pairs the identity blocks test are
    distinct, number K (K + 1) / 2 + K (C - K) for the K canonical classes of
    C (no entry rising within a run of equal live priors, counted here from the
    representatives), and hold a member of the orbit of every unordered pair of
    classes under permutations of equal-prior columns.  At least one
    composition saves over half of its pairs."""
    tested = []

    def record(P, s, ok, classes):
        i, j = np.triu_indices(len(ok), m=ok.shape[1])
        p, q = classes[s + i], classes[s + j]
        tested.extend(zip(np.minimum(p, q).tolist(), np.maximum(p, q).tolist()))

    patch_identity(monkeypatch, record)
    saved = 0
    for P, d, c1 in SMALL_STARS:
        tested.clear()
        reps = sweep_module._pairs(P, d, c1)[0]
        C, K = len(reps), sum(canonical(P, reps))
        assert len(set(tested)) == len(tested) == reduced_pairs(C, K), (P, d, c1)
        saved = max(saved, 1 - len(tested) / (C * (C + 1) // 2))
        # each permutation as a map of classes; an orbit's key is its least pair
        live = [p for p in P if p]
        index = {row: k for k, row in enumerate(map(tuple, reps.tolist()))}
        maps = [
            np.array([index[tuple(row)] for row in reps[:, list(perm)].tolist()])
            for perm in permutations(range(len(live)))
            if [live[k] for k in perm] == live
        ]

        def keys(p, q):
            least = [np.minimum(f[p], f[q]) * C + np.maximum(f[p], f[q]) for f in maps]
            return np.min(least, axis=0)

        p, q = np.triu_indices(C)
        a, b = np.array(tested).T
        assert np.isin(keys(p, q), keys(a, b)).all(), (P, d, c1)
    assert saved > 0.5


@pytest.mark.parametrize("star, d", [((1, 1, 1), 3), ((1, 1, 0), 2)])
def test_an_injected_orbit_clash_is_found_by_both_checks(star, d, monkeypatch):
    """One orbit of meeting pairs of classes, made to pass the identity, is the
    same clash list of the one-pair-per-orbit check and of the full check, and
    a sweep reading either lists the same violations and counts."""
    n = len(star)
    reps, mask, _ = sweep_module._pairs(star, d, False)
    a, b = next((a, b) for a, b in combinations(range(len(mask)), 2) if mask[a] & mask[b])
    pairs = orbit(star, reps, a, b)
    assert len(pairs) > 1
    pass_one_pair(monkeypatch, reps, a, b, True, star)
    assert sweep_module._pairs(star, d, False)[2] == full_pairs(star, d, False)[2] == pairs
    result = sweep(SweepConfig(n, 2, d))
    monkeypatch.setattr(sweep_module, "_pairs", full_pairs)
    assert sweep(SweepConfig(n, 2, d)) == result
    assert len(result.theorem_violations) > 0
