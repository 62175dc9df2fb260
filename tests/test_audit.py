import itertools
import math
import random
from fractions import Fraction as F

import pytest

import _brute
from oddsaudit import (
    DEFAULT_MAX_EVIDENCE,
    DegeneratePriorError,
    Model,
    Side,
    SubsetCapError,
    assert_theorem,
    check_assumptions,
    check_independence,
    check_pair_identities,
    relevant_evidence,
    render_report,
)
from oddsaudit.audit import _theorem_outcome

from test_model import random_model, sparse_model

T, N = True, False


def parity_model():
    """Three evidence bits, pairwise independent given H1 but not jointly.

    Given H1 the sign vector is uniform over the four even-parity patterns,
    so every pair factorizes (1/4 = 1/2 * 1/2) while the full triple has
    joint 0 != 1/8.
    """
    atoms = {}
    for bits in ("000", "011", "101", "110"):
        atoms[(1, tuple(ch == "1" for ch in bits))] = F(1, 12)
    atoms[(2, (N, N, N))] = F(1, 3)
    atoms[(3, (N, N, N))] = F(1, 3)
    return Model(n=3, m=3, atoms=atoms)


# --- check_independence --------------------------------------------------------


def test_examples_pass_both_sides(glymour, modified, four):
    for model in (glymour, modified, four):
        for i in range(1, model.n + 1):
            for side in (Side.GIVEN_H, Side.GIVEN_NOT_H):
                assert check_independence(model, i, side) == []


def test_m1_model_trivially_passes():
    model = Model(n=2, m=1, atoms={(1, (T,)): F(1, 2), (2, (N,)): F(1, 2)})
    for i in (1, 2):
        for side in (Side.GIVEN_H, Side.GIVEN_NOT_H):
            assert check_independence(model, i, side) == []


def test_dependent_model_fails_given_not_h(dependent):
    expected = {
        1: (F(17, 120), F(7, 48)),
        2: (F(1, 8), F(3, 20)),
        3: (F(7, 60), F(1, 8)),
    }
    for i in (1, 2, 3):
        assert check_independence(dependent, i, Side.GIVEN_H) == []
        violations = check_independence(dependent, i, Side.GIVEN_NOT_H)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.hypothesis == i
        assert violation.side is Side.GIVEN_NOT_H
        assert violation.subset == (1, 2)
        assert (violation.joint, violation.product) == expected[i]
        assert violation.joint != violation.product


def oracle_models():
    """Dense random tables, then sparse ones up to m=6, including tables with
    zero-mass hypotheses and tables where one hypothesis has prior 1."""
    rng = random.Random(37)
    models = [random_model(rng, rng.randint(2, 4), rng.randint(2, 3)) for _ in range(20)]
    rng = random.Random(61)
    for _ in range(8):
        n, m = rng.randint(2, 4), rng.randint(3, 6)
        models.append(sparse_model(rng, n, m, rng.choice((0.1, 0.25, 0.5))))
        models.append(sparse_model(rng, n, m, 0.3, rng.sample(range(1, n + 1), n - 1)))
        models.append(sparse_model(rng, n, m, 0.3, [rng.randint(1, n)]))
    return models


def test_matches_oracle_on_random_models():
    for model in oracle_models():
        raw = dict(model.atoms)
        for i in range(1, model.n + 1):
            assert relevant_evidence(model, i) == _brute.relevant(raw, i)
            for side, tag in ((Side.GIVEN_H, "H"), (Side.GIVEN_NOT_H, "nH")):
                expected = _brute.independence_violations(raw, i, tag)
                for pairwise in (False, True):
                    got = [
                        (v.subset, v.joint, v.product)
                        for v in check_independence(model, i, side, pairwise=pairwise)
                    ]
                    if pairwise:
                        assert got == [e for e in expected if len(e[0]) == 2]
                    else:
                        assert got == expected


def test_full_audit_at_the_evidence_cap_matches_oracle():
    """A sparse n=3 table at m = DEFAULT_MAX_EVIDENCE, where only ten
    propositions are ever true: the full audit checks all 2**16 subsets on
    every side, and its verdicts agree with the oracle on every pair and on a
    fixed sample of larger subsets."""
    rng = random.Random(16)
    m = DEFAULT_MAX_EVIDENCE
    live = sorted(rng.sample(range(1, m + 1), 10))
    weights = {}
    for i in (1, 2, 3):
        for _ in range(50):
            signs = tuple(j in live and rng.random() < 0.4 for j in range(1, m + 1))
            weights[(i, signs)] = rng.randint(1, 9)
    total = sum(weights.values())
    model = Model(n=3, m=m, atoms={k: F(w, total) for k, w in weights.items()})
    raw = dict(model.atoms)

    report = check_assumptions(model)
    found = {
        (v.hypothesis, v.side, v.subset): (v.joint, v.product)
        for v in report.independence_violations
    }
    sample = [tuple(sorted(rng.sample(live, size))) for size in range(3, 11)]
    sample += [tuple(sorted(rng.sample(range(1, m + 1), size))) for size in range(3, m + 1)]
    subsets = list(itertools.combinations(range(1, m + 1), 2)) + sample
    checked_failures = 0
    for i in (1, 2, 3):
        for side, conditional in ((Side.GIVEN_H, _brute.cond_h), (Side.GIVEN_NOT_H, _brute.cond_not_h)):
            singles = {j: conditional(raw, {j: True}, i) for j in range(1, m + 1)}
            for subset in subsets:
                joint = conditional(raw, {j: True for j in subset}, i)
                product = math.prod((singles[j] for j in subset), start=F(1))
                if joint != product:
                    checked_failures += 1
                    assert found[(i, side, subset)] == (joint, product)
                else:
                    assert (i, side, subset) not in found
    assert checked_failures > 0
    assert report.relevance == {i: _brute.relevant(raw, i) for i in (1, 2, 3)}


def test_degenerate_side_returns_empty():
    model = Model(n=2, m=2, atoms={(1, (T, T)): 1})
    assert check_independence(model, 2, Side.GIVEN_H) == []  # P(H2) = 0
    assert check_independence(model, 1, Side.GIVEN_NOT_H) == []  # complement empty


def test_pairwise_mode_is_weaker():
    model = parity_model()
    assert check_independence(model, 1, Side.GIVEN_H, pairwise=True) == []
    full = check_independence(model, 1, Side.GIVEN_H)
    assert [(v.subset, v.joint, v.product) for v in full] == [((1, 2, 3), F(0), F(1, 8))]


def test_full_mode_cap():
    model = Model(n=1, m=17, atoms={(1, (T,) * 17): 1}, max_evidence=17)
    with pytest.raises(SubsetCapError, match="pairwise"):
        check_independence(model, 1, Side.GIVEN_H)
    assert check_independence(model, 1, Side.GIVEN_H, max_full_evidence=17) == []
    assert check_independence(model, 1, Side.GIVEN_H, pairwise=True) == []


# --- relevant_evidence ------------------------------------------------------------


def test_relevance_patterns(glymour, modified, four):
    assert {i: relevant_evidence(glymour, i) for i in (1, 2, 3)} == {
        1: {2},
        2: {2},
        3: {2},
    }
    # In the modified table P(E2 | H2) = 1/3 = P(E2) exactly, so E2 cannot
    # move H2; only H1 and H3 are updated (and only by E2).
    assert {i: relevant_evidence(modified, i) for i in (1, 2, 3)} == {
        1: {2},
        2: set(),
        3: {2},
    }
    assert {i: relevant_evidence(four, i) for i in (1, 2, 3, 4)} == {
        1: {1},
        2: {1},
        3: {2},
        4: {2},
    }


def test_relevance_matches_oracle(dependent):
    raw = dict(dependent.atoms)
    for i in (1, 2, 3):
        assert relevant_evidence(dependent, i) == _brute.relevant(raw, i)


def test_degenerate_hypotheses_have_empty_relevance():
    model = Model(n=2, m=1, atoms={(1, (T,)): 1})
    assert relevant_evidence(model, 1) == frozenset()
    assert relevant_evidence(model, 2) == frozenset()


def test_relevance_criterion_biconditional():
    """P(Ej|Hi) != P(Ej)  iff  P(Ej|Hi) != P(Ej|not-Hi), for non-degenerate Hi."""
    rng = random.Random(41)
    for _ in range(25):
        model = random_model(rng, rng.randint(2, 4), rng.randint(1, 3))
        for i in range(1, model.n + 1):
            if model.prior(i) in (0, 1):
                continue
            for j in range(1, model.m + 1):
                marginal_differs = model.cond({j: T}, i, Side.GIVEN_H) != model.event_prob({j: T})
                sides_differ = model.cond({j: T}, i, Side.GIVEN_H) != model.cond(
                    {j: T}, i, Side.GIVEN_NOT_H
                )
                assert marginal_differs == sides_differ


def test_irrelevance_implies_triple_equality(glymour, modified, four):
    for model in (glymour, modified, four):
        for i in range(1, model.n + 1):
            relevant = relevant_evidence(model, i)
            for j in range(1, model.m + 1):
                if j in relevant:
                    continue
                p = model.event_prob({j: T})
                assert model.cond({j: T}, i, Side.GIVEN_H) == p
                assert model.cond({j: T}, i, Side.GIVEN_NOT_H) == p


# --- assert_theorem ----------------------------------------------------------------


def test_theorem_on_examples(glymour, modified, four):
    for model in (glymour, modified, four):
        assert assert_theorem(model).status == "holds"


def test_theorem_not_applicable_small_n():
    model = Model(n=2, m=2, atoms={(1, (T, T)): F(1, 2), (2, (N, N)): F(1, 2)})
    outcome = assert_theorem(model)
    assert outcome.status == "not-applicable"
    assert "n=2" in outcome.reason


def test_theorem_not_applicable_when_dependent(dependent):
    outcome = assert_theorem(dependent)
    assert outcome.status == "not-applicable"
    assert "violation" in outcome.reason


def test_theorem_violated_branch_is_reported():
    # No model satisfying the assumptions can reach this branch (that is the
    # point of the sweep suite); exercise the reporting logic directly.
    outcome = _theorem_outcome(
        3, (), {1: frozenset({1, 3}), 2: frozenset(), 3: frozenset()}, frozenset()
    )
    assert outcome.status == "violated"
    assert outcome.hypothesis == 1
    assert outcome.evidence_pair == (1, 3)


# --- check_pair_identities ------------------------------------------------------------


def test_identities_on_examples(glymour, modified, four):
    for model in (glymour, modified, four):
        identities = check_pair_identities(model, 1, 2)
        assert identities.factorization_holds
        for i in range(1, model.n + 1):
            assert identities.residuals[i] == 0
            assert identities.bracket_products[i] == 0


def test_four_factorization_values(four):
    assert four.event_prob({1: T}) == F(1, 2)
    assert four.event_prob({2: T}) == F(1, 2)
    assert four.event_prob({1: T, 2: T}) == F(1, 4)  # first table row sums to 1/4


def test_modified_bracket_vanishes_via_first_factor(modified):
    # E1 is uninformative in the modified table: P(E1) - P(E1|H1) = 0.
    assert modified.event_prob({1: T}) == modified.cond({1: T}, 1, Side.GIVEN_H)


def test_identities_errors(glymour):
    with pytest.raises(ValueError):
        check_pair_identities(glymour, 2, 2)
    with pytest.raises(ValueError):
        check_pair_identities(glymour, 1, 9)
    degenerate = Model(n=2, m=2, atoms={(1, (T, T)): 1})
    with pytest.raises(DegeneratePriorError):
        check_pair_identities(degenerate, 1, 2)


def test_identities_break_without_independence(dependent):
    identities = check_pair_identities(dependent, 1, 2)
    assert not identities.factorization_holds  # 13/36 * 2/5 != 23/180
    assert any(value != 0 for value in identities.residuals.values())


# --- check_assumptions and rendering ---------------------------------------------------


def test_reports_on_examples(glymour, modified, four):
    for model, condition1, failures in (
        (glymour, False, (2, 3)),
        (modified, True, ()),
        (four, True, ()),
    ):
        report = check_assumptions(model)
        assert report.n_ok
        assert report.independence_violations == ()
        assert report.degenerate_hypotheses == frozenset()
        assert report.condition1_holds is condition1
        assert report.condition1_failures == failures
        assert report.theorem_holds is True
        assert report.clean


def test_report_on_dependent(dependent):
    report = check_assumptions(dependent)
    assert len(report.independence_violations) == 3
    assert report.theorem_holds is None
    assert not report.clean
    assert report.condition1_holds is True


def test_report_not_evaluable_condition1():
    model = Model(n=3, m=2, atoms={(i, (N, N)): F(1, 3) for i in (1, 2, 3)})
    report = check_assumptions(model)
    assert report.condition1_holds is None  # the all-evidence conjunction never happens


def test_report_small_n():
    model = Model(n=2, m=2, atoms={(1, (T, T)): F(1, 2), (2, (N, N)): F(1, 2)})
    report = check_assumptions(model)
    assert not report.n_ok
    assert report.theorem_holds is None
    assert report.clean  # no violations; the structural claim just does not bind


def test_report_records_degenerate_hypotheses():
    model = Model(n=3, m=2, atoms={(1, (T, T)): 1})
    report = check_assumptions(model)
    assert report.degenerate_hypotheses == {1, 2, 3}


def test_mode_validation(glymour):
    with pytest.raises(ValueError):
        check_assumptions(glymour, mode="fast")
    assert check_assumptions(glymour, mode="pairwise").mode == "pairwise"


GLYMOUR_REPORT = """\
hypotheses: 3
evidence: 2
hypothesis-count (n > 2): ok
partition: exhaustive and mutually exclusive by construction; atom masses total exactly 1
independence-mode: full
independence-violations: none
relevance:
  H1: E2
  H2: E2
  H3: E2
degenerate-hypotheses: none
all-evidence-posteriors-nonzero: no (H2, H3)
multiple-updating: none (at most one updating evidence item per hypothesis)
"""

DEPENDENT_REPORT = """\
hypotheses: 3
evidence: 2
hypothesis-count (n > 2): ok
partition: exhaustive and mutually exclusive by construction; atom masses total exactly 1
independence-mode: full
independence-violations: 3
  H1 given-not-H {E1,E2}: joint=17/120 product=7/48
  H2 given-not-H {E1,E2}: joint=1/8 product=3/20
  H3 given-not-H {E1,E2}: joint=7/60 product=1/8
relevance:
  H1: E1, E2
  H2: E1
  H3: E1, E2
degenerate-hypotheses: none
all-evidence-posteriors-nonzero: yes
multiple-updating: not-applicable (3 independence violation(s) present)
"""


def test_render_golden(glymour, dependent):
    assert render_report(check_assumptions(glymour)) == GLYMOUR_REPORT
    assert render_report(check_assumptions(dependent)) == DEPENDENT_REPORT
    # deterministic: same input, same bytes
    assert render_report(check_assumptions(glymour)) == render_report(
        check_assumptions(glymour)
    )
