import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest

import _brute
from oddsaudit import (
    MAX_EVIDENCE,
    AuditReport,
    DegeneratePriorError,
    IndependenceViolation,
    Model,
    Side,
    TheoremOutcome,
    check_assumptions,
    check_pair_identities,
    render_report,
)
from oddsaudit import audit
from oddsaudit.audit import _theorem_outcome

from conftest import side_violations
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


# --- independence verdicts ----------------------------------------------------------


def test_examples_pass_both_sides(glymour, modified, four):
    for model in (glymour, modified, four):
        assert check_assumptions(model).independence_violations == ()


def test_m1_model_trivially_passes():
    model = Model(n=2, m=1, atoms={(1, (T,)): F(1, 2), (2, (N,)): F(1, 2)})
    assert check_assumptions(model).independence_violations == ()


def test_dependent_model_fails_given_not_h(dependent):
    expected = {
        1: (F(17, 120), F(7, 48)),
        2: (F(1, 8), F(3, 20)),
        3: (F(7, 60), F(1, 8)),
    }
    report = check_assumptions(dependent)
    for i in (1, 2, 3):
        assert side_violations(report, i, Side.GIVEN_H) == []
        violations = side_violations(report, i, Side.GIVEN_NOT_H)
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
        full, pairs = check_assumptions(model), check_assumptions(model, pairwise=True)
        for i in range(1, model.n + 1):
            assert full.relevance[i] == _brute.relevant(raw, i)
            for side, tag in ((Side.GIVEN_H, "H"), (Side.GIVEN_NOT_H, "nH")):
                expected = _brute.independence_violations(raw, i, tag)
                found = [
                    [(v.subset, v.joint, v.product) for v in side_violations(report, i, side)]
                    for report in (full, pairs)
                ]
                assert found == [expected, [e for e in expected if len(e[0]) == 2]]


def test_full_audit_at_the_evidence_cap_matches_oracle():
    """A sparse n=3 table at m = MAX_EVIDENCE, where only ten
    propositions are ever true: the full audit checks all 2**16 subsets on
    every side, and its verdicts agree with the oracle on every pair and on a
    fixed sample of larger subsets."""
    rng = random.Random(16)
    m = MAX_EVIDENCE
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
    report = check_assumptions(Model(n=2, m=2, atoms={(1, (T, T)): 1}))
    assert side_violations(report, 2, Side.GIVEN_H) == []  # P(H2) = 0
    assert side_violations(report, 1, Side.GIVEN_NOT_H) == []  # complement empty


def test_pairwise_mode_is_weaker():
    model = parity_model()
    assert side_violations(check_assumptions(model, pairwise=True), 1, Side.GIVEN_H) == []
    full = side_violations(check_assumptions(model), 1, Side.GIVEN_H)
    assert [(v.subset, v.joint, v.product) for v in full] == [((1, 2, 3), F(0), F(1, 8))]


# --- relevance -------------------------------------------------------------------


def test_relevance_patterns(glymour, modified, four):
    assert check_assumptions(glymour).relevance == {
        1: {2},
        2: {2},
        3: {2},
    }
    # In the modified table P(E2 | H2) = 1/3 = P(E2) exactly, so E2 cannot
    # move H2; only H1 and H3 are updated (and only by E2).
    assert check_assumptions(modified).relevance == {
        1: {2},
        2: set(),
        3: {2},
    }
    assert check_assumptions(four).relevance == {
        1: {1},
        2: {1},
        3: {2},
        4: {2},
    }


def test_relevance_matches_oracle(dependent):
    raw, relevance = dict(dependent.atoms), check_assumptions(dependent).relevance
    for i in (1, 2, 3):
        assert relevance[i] == _brute.relevant(raw, i)


def test_degenerate_hypotheses_have_empty_relevance():
    model = Model(n=2, m=1, atoms={(1, (T,)): 1})
    assert check_assumptions(model).relevance == {1: frozenset(), 2: frozenset()}


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
        report = check_assumptions(model)
        for i in range(1, model.n + 1):
            relevant = report.relevance[i]
            for j in range(1, model.m + 1):
                if j in relevant:
                    continue
                p = model.event_prob({j: T})
                assert model.cond({j: T}, i, Side.GIVEN_H) == p
                assert model.cond({j: T}, i, Side.GIVEN_NOT_H) == p


# --- the theorem outcome ----------------------------------------------------------


def test_theorem_on_examples(glymour, modified, four):
    for model in (glymour, modified, four):
        assert check_assumptions(model).theorem.status == "holds"


def test_theorem_not_applicable_small_n():
    model = Model(n=2, m=2, atoms={(1, (T, T)): F(1, 2), (2, (N, N)): F(1, 2)})
    outcome = check_assumptions(model).theorem
    assert outcome.status == "not-applicable"
    assert "n=2" in outcome.reason


def test_theorem_not_applicable_when_dependent(dependent):
    outcome = check_assumptions(dependent).theorem
    assert outcome.status == "not-applicable"
    assert "violation" in outcome.reason


def test_theorem_violated_branch_is_reported():
    # No model satisfying the assumptions can reach this branch (that is the
    # point of the sweep suite); exercise the reporting logic directly.
    outcome = _theorem_outcome(3, (), {1: frozenset({1, 3}), 2: frozenset(), 3: frozenset()})
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


def papers_identities(model, j, k):
    """The paper's forms of the pair identities, by the oracle's sums."""
    raw = dict(model.atoms)
    p_j, p_k = _brute.event_prob(raw, {j: T}), _brute.event_prob(raw, {k: T})
    p_jk = _brute.event_prob(raw, {j: T, k: T})
    residuals, brackets = {}, {}
    for i in range(1, model.n + 1):
        lhs = (
            p_j * p_k
            - p_j * _brute.joint_prob(raw, {k: T}, i)
            - _brute.joint_prob(raw, {j: T}, i) * p_k
        )
        rhs = p_jk * (1 - _brute.prior(raw, i)) - _brute.joint_prob(raw, {j: T, k: T}, i)
        residuals[i] = lhs - rhs
        brackets[i] = (p_j - _brute.cond_h(raw, {j: T}, i)) * (p_k - _brute.cond_h(raw, {k: T}, i))
    return residuals, p_j * p_k == p_jk, brackets


def test_identities_match_the_papers_formulas():
    """Exact residuals, factorization and brackets on random dense and sparse
    models, for every ordered pair j != k."""
    rng = random.Random(1304)
    models = [random_model(rng, rng.randint(2, 5), rng.randint(2, 5)) for _ in range(10)]
    models += [
        sparse_model(rng, rng.randint(2, 5), rng.randint(2, 8), rng.choice((0.1, 0.3)))
        for _ in range(10)
    ]
    checked = nonzero = 0
    for model in models:
        if any(model.prior(i) in (0, 1) for i in range(1, model.n + 1)):
            continue
        for j, k in itertools.permutations(range(1, model.m + 1), 2):
            identities = check_pair_identities(model, j, k)
            assert (
                identities.residuals, identities.factorization_holds, identities.bracket_products
            ) == papers_identities(model, j, k)
            checked += 1
            nonzero += any(identities.residuals.values())
    assert checked > 100 and nonzero > 50


def test_identities_error_order_and_messages():
    """A bad index is refused first, each on its own (a bool is no index, though
    True == 1), then j == k, then the first degenerate prior."""
    zero_second = Model(n=3, m=2, atoms={(1, (T, T)): F(1, 2), (3, (N, T)): F(1, 2)})
    with pytest.raises(ValueError, match="got j=k=1"):
        check_pair_identities(zero_second, 1, 1)
    with pytest.raises(ValueError, match=r"out of range 1\.\.2: 3"):
        check_pair_identities(zero_second, 1, 3)
    for j, k in ((1, True), (True, 1), (True, True)):
        with pytest.raises(ValueError, match=r"^evidence index out of range 1\.\.2: True$"):
            check_pair_identities(zero_second, j, k)
    with pytest.raises(DegeneratePriorError, match=r"^pair identities need 0 < P\(H2\) < 1, got 0$"):
        check_pair_identities(zero_second, 1, 2)
    certain_first = Model(n=3, m=2, atoms={(1, (T, N)): F(1, 3), (1, (N, T)): F(2, 3)})
    with pytest.raises(DegeneratePriorError, match=r"^pair identities need 0 < P\(H1\) < 1, got 1$"):
        check_pair_identities(certain_first, 2, 1)


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
        assert report.n > 2
        assert report.independence_violations == ()
        assert report.degenerate_hypotheses == frozenset()
        assert report.condition1_failures == failures
        assert (report.condition1_failures == ()) is condition1
        assert report.theorem.status == "holds"
        assert report.clean


def test_report_on_dependent(dependent):
    report = check_assumptions(dependent)
    assert len(report.independence_violations) == 3
    assert report.theorem.status == "not-applicable"
    assert not report.clean
    assert report.condition1_failures == ()


def test_report_not_evaluable_condition1():
    model = Model(n=3, m=2, atoms={(i, (N, N)): F(1, 3) for i in (1, 2, 3)})
    report = check_assumptions(model)
    assert report.condition1_failures is None  # the all-evidence conjunction never happens


def test_report_small_n():
    model = Model(n=2, m=2, atoms={(1, (T, T)): F(1, 2), (2, (N, N)): F(1, 2)})
    report = check_assumptions(model)
    assert report.n == 2
    assert report.theorem.status == "not-applicable"
    assert report.clean  # no violations; the structural claim just does not bind


def test_report_records_degenerate_hypotheses():
    model = Model(n=3, m=2, atoms={(1, (T, T)): 1})
    report = check_assumptions(model)
    assert report.degenerate_hypotheses == {1, 2, 3}


def test_audits_leave_the_model_as_built():
    """Models are immutable: no audit keeps a table or a result on one."""
    rng = random.Random(10)
    for model in (sparse_model(rng, 4, 3, 0.6, live=(1, 3)), random_model(rng, 3, 3)):
        built = dict(vars(model))
        for pairwise in (False, True):
            check_assumptions(model, pairwise=pairwise)
        assert vars(model) == built


def test_whole_audit_builds_one_table_per_hypothesis_of_prior_between_0_and_1(monkeypatch):
    """One superset-sum table for the whole model and one for each hypothesis
    of prior strictly between 0 and 1; cells of prior 0 or 1 build none."""
    spy = mock.Mock(wraps=audit._superset_sums)
    monkeypatch.setattr(audit, "_superset_sums", spy)
    rng = random.Random(11)
    models = [
        random_model(rng, 4, 3),
        sparse_model(rng, 5, 4, 0.5, live=(2, 4)),
        sparse_model(rng, 3, 3, 0.5, live=(3,)),
        Model(n=1024, m=16, atoms={(1, (T,) * 16): 1}),
    ]
    for model in models:
        L = model.denominator
        between = sum(0 < model.mass(i) < L for i in range(1, model.n + 1))
        for pairwise in (False, True):
            spy.reset_mock()
            check_assumptions(model, pairwise=pairwise)
            assert spy.call_count == 1 + between


def test_prior_one_and_empty_cells_share_one_whole_model_walk(monkeypatch):
    """H1 holds all the mass and its evidence is dependent: its given-H side,
    like the empty cells' given-not-H side, is the whole model, walked once."""
    spy = mock.Mock(wraps=audit._failing_subsets)
    monkeypatch.setattr(audit, "_failing_subsets", spy)
    model = Model(n=3, m=3, atoms={(1, (T, T, N)): F(1, 2), (1, (N, N, T)): F(1, 2)})
    for pairwise in (False, True):
        spy.reset_mock()
        report = check_assumptions(model, pairwise=pairwise)
        assert spy.call_count == 1
        figures = {
            (i, side): [(v.subset, v.joint, v.product) for v in side_violations(report, i, side)]
            for i in (1, 2, 3) for side in Side
        }
        assert figures[1, Side.GIVEN_H]
        assert figures[1, Side.GIVEN_NOT_H] == figures[2, Side.GIVEN_H] == []
        assert figures[1, Side.GIVEN_H] == figures[2, Side.GIVEN_NOT_H] == figures[3, Side.GIVEN_NOT_H]
        assert report.degenerate_hypotheses == {1, 2, 3}
        assert report.relevance == dict.fromkeys((1, 2, 3), frozenset())


def test_violations_that_read_the_same_are_equal_whatever_their_base():
    """A violation keeps its figures over its side's mass; two whose masses
    differ but whose subset and figures read the same are equal, hash alike
    and print alike."""
    halves = IndependenceViolation(2, Side.GIVEN_H, (0b101, 1, 1, 2))  # joint 1/2, product 1/4
    quarters = IndependenceViolation(2, Side.GIVEN_H, (0b101, 2, 4, 4))
    assert (quarters.subset, quarters.joint, quarters.product) == ((1, 3), F(1, 2), F(1, 4))
    assert halves == quarters and hash(halves) == hash(quarters)
    assert halves.describe() == quarters.describe() == "H2 given-H {E1,E3}: joint=1/2 product=1/4"
    assert halves != IndependenceViolation(2, Side.GIVEN_H, (0b101, 1, 1, 3))
    assert halves != IndependenceViolation(2, Side.GIVEN_NOT_H, (0b101, 1, 1, 2))


def test_mode_validation(glymour):
    assert not check_assumptions(glymour).pairwise
    report = check_assumptions(glymour, pairwise=True)
    assert report.pairwise
    assert "independence-mode: pairwise\n" in render_report(report)
    with pytest.raises(TypeError):  # the flag is keyword-only
        check_assumptions(glymour, True)


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


def test_render_reports_multiple_updating():
    """No model meeting the assumptions reaches the violated outcome, so the
    report is built by hand."""
    report = AuditReport(
        n=3,
        m=2,
        pairwise=False,
        independence_violations=(),
        relevance={1: frozenset({1, 2}), 2: frozenset(), 3: frozenset()},
        degenerate_hypotheses=frozenset(),
        condition1_failures=(),
        theorem=TheoremOutcome("violated", hypothesis=1, evidence_pair=(1, 2)),
    )
    text = render_report(report)
    assert text.endswith("multiple-updating: FOUND (H1 updated by E1 and E2)\n")
    assert "  H1: E1, E2\n" in text
    assert not report.clean


def test_render_golden(glymour, dependent):
    assert render_report(check_assumptions(glymour)) == GLYMOUR_REPORT
    assert render_report(check_assumptions(dependent)) == DEPENDENT_REPORT
    # deterministic: same input, same bytes
    assert render_report(check_assumptions(glymour)) == render_report(
        check_assumptions(glymour)
    )
