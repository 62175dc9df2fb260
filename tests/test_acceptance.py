"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Everything asserts exact equality (the arithmetic is rational
throughout); the only tolerances are the stated runtime budgets.
"""

import random
import time
from fractions import Fraction as F
from math import comb

import _brute
from oddsaudit import (
    Side,
    SweepConfig,
    check_assumptions,
    check_pair_identities,
    example_model,
    from_conditionals,
    loads,
    measurement_scenario,
    odds_posteriors,
    sign_vectors,
    spec_from_grid,
    sweep,
)
from oddsaudit.cli import main

from conftest import SWEEP_GRIDS, nondegenerate_survivors, side_violations
from test_construct import random_spec

T, N = True, False

RAW_TABLES = {
    "glymour": _brute.GLYMOUR_RAW,
    "modified": _brute.MODIFIED_RAW,
    "four": _brute.FOUR_RAW,
}


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS {label}")


def test_criterion_1_table_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    for name, raw in RAW_TABLES.items():
        assert main(["example", name]) == 0
        model = loads(capsys.readouterr().out)
        n = max(i for i, _ in raw)
        assert (model.n, model.m) == (n, 2)
        for i in range(1, n + 1):
            for signs in sign_vectors(2):
                assert model.atom(i, signs) == raw[(i, signs)]
        audit = check_assumptions(model)
        assert audit.independence_violations == ()
        assert audit.n > 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"table reproduction took {elapsed:.3f}s"
    report(1, f"table-reproduction ({elapsed * 1000:.0f} ms)")


def test_criterion_2_certainty_and_irrelevance_equalities(glymour):
    assert glymour.cond({2: T}, 1, Side.GIVEN_H) == 1
    assert glymour.cond({2: T}, 2, Side.GIVEN_H) == 0
    assert glymour.cond({2: T}, 3, Side.GIVEN_H) == 0
    p_e1 = glymour.event_prob({1: T})
    for i in (1, 2, 3):
        assert glymour.cond({1: T}, i, Side.GIVEN_H) == p_e1
        assert glymour.cond({1: T}, i, Side.GIVEN_NOT_H) == p_e1
    report(2, "certainty-and-irrelevance equalities on the glymour table")


def test_criterion_3_modified_counterexample(modified):
    audit = check_assumptions(modified)
    assert audit.n > 2
    assert audit.independence_violations == ()
    assert audit.condition1_failures == ()
    conjunction = {1: T, 2: T}
    posteriors = [modified.posteriors(conjunction)(i) for i in (1, 2, 3)]
    assert posteriors == [F(1, 2), F(1, 3), F(1, 6)]
    assert all(p != 0 for p in posteriors)
    # updating still occurs, through the second proposition
    assert audit.relevance[1] == {2}
    assert audit.relevance[3] == {2}
    report(3, "nonzero-posterior counterexample with updating via E2")


def test_criterion_4_four_hypothesis_relevance(four):
    assert check_assumptions(four).relevance == {
        1: {1},
        2: {1},
        3: {2},
        4: {2},
    }
    report(4, "four-hypothesis relevance pattern E1->H1,H2 and E2->H3,H4")


def test_criterion_5_sweeps_clean_and_fast(sweep_records):
    total = 0.0
    witnesses_somewhere = False
    for grid in SWEEP_GRIDS:
        record = sweep_records[grid]
        assert record.result.theorem_violations == [], f"violation on {grid}"
        total += record.elapsed
        if record.result.witnesses_with_updating > 0:
            witnesses_somewhere = True
    assert witnesses_somewhere
    assert total < 300.0, f"sweeps took {total:.1f}s"
    report(5, f"seven grid sweeps, zero multiple-updating violations ({total:.1f} s)")


def test_criterion_6_identities_on_survivors(sweep_records):
    checked = 0
    for grid in ((3, 2, 3), (3, 2, 4), (4, 2, 4)):
        d = grid[2]
        for priors, flat in nondegenerate_survivors(sweep_records, grid):
            model = from_conditionals(spec_from_grid(priors, flat, d))
            identities = check_pair_identities(model, 1, 2)
            assert identities.factorization_holds
            for i in range(1, model.n + 1):
                assert identities.bracket_products[i] == 0
                assert identities.residuals[i] == 0
            checked += 1
    assert checked == 496 + 3675 + 6609
    report(6, f"factorization and bracket identities on {checked} survivors")


def test_criterion_7_oracle_equivalence(sweep_records, glymour, modified, four):
    events = _brute.all_events(2)

    def verify(model):
        count = 0
        nondegenerate = [
            i for i in range(1, model.n + 1) if model.prior(i) not in (0, 1)
        ]
        if not nondegenerate:
            return 0
        for event in events:
            if model.event_prob(event) == 0:
                continue
            for i in nondegenerate:
                assert odds_posteriors(model, event)(i) == model.posteriors(event)(i)
                count += 1
        return count

    checked = sum(verify(model) for model in (glymour, modified, four))
    survivor_models = 0
    for grid in ((3, 2, 1), (3, 2, 2), (3, 2, 3)):
        d = grid[2]
        for priors, flat in sweep_records[grid].survivors:
            checked += verify(from_conditionals(spec_from_grid(priors, flat, d)))
            survivor_models += 1
    assert survivor_models == 192 + 3402 + 23536
    assert checked > 100_000
    report(
        7,
        f"odds route equals direct conditioning: {checked} posteriors over "
        f"{survivor_models} survivors plus the bundled tables",
    )


def test_criterion_8_measurement_scenario():
    third = F(1, 3)
    model = measurement_scenario(
        [F(0), F(10), F(20)],
        [third] * 3,
        {F(-1): third, F(0): third, F(1): third},
        lambda y: y <= 9,
        lambda z: z <= 9,
    )
    audit = check_assumptions(model)
    for i in (1, 2, 3):
        assert side_violations(audit, i, Side.GIVEN_H) == []
    complement_violations = [
        i for i in (1, 2, 3) if side_violations(audit, i, Side.GIVEN_NOT_H)
    ]
    assert complement_violations, "expected dependence given some complement"
    report(
        8,
        "independent-errors scenario: independence holds given every "
        f"hypothesis, fails given complements of {complement_violations}",
    )


def test_criterion_9_thousand_random_product_models():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        spec = random_spec(rng, positive_priors=True)
        model = from_conditionals(spec)
        audit = check_assumptions(model)
        for i in range(1, spec.n + 1):
            assert side_violations(audit, i, Side.GIVEN_H) == []
            assert model.prior(i) == spec.priors[i - 1]
            for j in range(1, spec.m + 1):
                assert model.cond({j: T}, i, Side.GIVEN_H) == spec.cond[j - 1][i - 1]
    report(9, "1000 random product specs: construction guarantee and round-trip")


#: Grids whose m = 2 sweep certifies the at-most-one-updater property for
#: every m (see the ``oddsaudit.sweep`` docstring).
CERTIFIED = [(n, 2, d) for n in range(3, 9) for d in range(1, 5)] + [
    (4, 2, 6), (3, 2, 8), (3, 2, 12), (3, 2, 16), (4, 2, 8), (5, 2, 5), (6, 2, 5)
]


def test_criterion_10_pair_graphs_certify_every_m():
    elapsed = 0.0
    for n, m, d in CERTIFIED:
        compositions = comb(d + n - 1, n - 1)
        size = compositions * (d + 1) ** (n * m)
        started = time.perf_counter()
        result = sweep(SweepConfig(n, m, d), max_models=size)
        elapsed += time.perf_counter() - started
        assert result.models_enumerated == size
        assert result.theorem_violations == [], f"violation on {(n, m, d)}"
        # The oracle tallies each composition's (D+1)^n rows in Python; keep
        # the grids it finishes in about a second.
        if compositions * (d + 1) ** n <= 250_000:
            assert _brute.grid_counts_by_relevance(n, m, d) == (
                size,
                result.models_satisfying_all,
                result.witnesses_with_updating,
            )
    assert elapsed < 10.0, f"certifying sweeps took {elapsed:.1f}s"
    report(
        10,
        f"no pair of rows updating one hypothesis passes the pair check on {len(CERTIFIED)} "
        f"grids (n <= 8 with D <= 4; n = 3 with D = 8, 12, 16; n = 4 with D = 6, 8; "
        f"n = 5, 6 with D = 5): every m certified ({elapsed:.2f} s)",
    )
