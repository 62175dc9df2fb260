"""The audit's verdicts are invariant under the symmetries the sweep reduces by:
relabelling hypotheses, relabelling evidence and negating one proposition."""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from oddsaudit import ConditionalSpec, Model, check_assumptions, from_conditionals


@st.composite
def small_models(draw):
    """Tables over n = 3..4 hypotheses and m = 2..3 propositions: either raw
    integer weights with zeros, or product specs on the D = 2 grid, which
    often satisfy two-sided independence."""
    n, m = draw(st.integers(3, 4)), draw(st.integers(2, 3))
    if draw(st.booleans()):
        cells = list(product(range(1, n + 1), product((False, True), repeat=m)))
        weights = draw(
            st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)).filter(any)
        )
        return Model(n=n, m=m, atoms={c: F(w, sum(weights)) for c, w in zip(cells, weights)})
    priors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    numerators = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    cond = draw(st.lists(numerators, min_size=m, max_size=m))
    return from_conditionals(
        ConditionalSpec(
            priors=tuple(F(p, sum(priors)) for p in priors),
            cond=tuple(tuple(F(c, 2) for c in row) for row in cond),
        )
    )


def transformed(model, hypotheses=None, evidence=None, negate=None):
    """The model with H_i renamed H_{hypotheses[i-1]+1}, E_j renamed
    E_{evidence[j-1]+1}, and proposition ``negate`` (0-based) negated."""
    atoms = {}
    for (i, signs), value in model.atoms.items():
        new = list(signs)
        if evidence is not None:
            for j, sign in enumerate(signs):
                new[evidence[j]] = sign
        if negate is not None:
            new[negate] = not new[negate]
        atoms[(i if hypotheses is None else hypotheses[i - 1] + 1, tuple(new))] = value
    return Model(n=model.n, m=model.m, atoms=atoms)


def verdicts(report, hyp=lambda i: i, ev=lambda j: j):
    """The report's verdicts with hypothesis and evidence indices renamed."""
    return (
        {
            (hyp(v.hypothesis), v.side, tuple(sorted(map(ev, v.subset))), v.joint, v.product)
            for v in report.independence_violations
        },
        {hyp(i): frozenset(map(ev, members)) for i, members in report.relevance.items()},
        frozenset(map(hyp, report.degenerate_hypotheses)),
        None if report.condition1_failures is None
        else frozenset(map(hyp, report.condition1_failures)),
        report.theorem.status,
    )


@settings(max_examples=60, deadline=None)
@given(small_models(), st.data())
def test_verdicts_invariant_under_relabelling_hypotheses(model, data):
    perm = data.draw(st.permutations(range(model.n)))
    got = check_assumptions(transformed(model, hypotheses=perm))
    assert verdicts(got) == verdicts(check_assumptions(model), hyp=lambda i: perm[i - 1] + 1)


@settings(max_examples=60, deadline=None)
@given(small_models(), st.data())
def test_verdicts_invariant_under_relabelling_evidence(model, data):
    perm = data.draw(st.permutations(range(model.m)))
    got = check_assumptions(transformed(model, evidence=perm))
    assert verdicts(got) == verdicts(check_assumptions(model), ev=lambda j: perm[j - 1] + 1)


@settings(max_examples=60, deadline=None)
@given(small_models(), st.data())
def test_verdicts_invariant_under_negating_a_proposition(model, data):
    """Mutual independence survives complementing one event, so each side of
    each hypothesis keeps its verdict, and so does each pair; the failing
    larger subsets and the joint values may change.  Condition 1 concerns the
    all-true conjunction, which negation moves, so it is exempt."""
    j = data.draw(st.integers(0, model.m - 1))
    negated = transformed(model, negate=j)
    for pairwise in (False, True):
        before = check_assumptions(model, pairwise=pairwise)
        after = check_assumptions(negated, pairwise=pairwise)
        sides = lambda report: {(v.hypothesis, v.side) for v in report.independence_violations}
        assert sides(after) == sides(before)
        if pairwise:
            pairs = lambda report: {
                (v.hypothesis, v.side, v.subset) for v in report.independence_violations
            }
            assert pairs(after) == pairs(before)
        assert after.relevance == before.relevance
        assert after.degenerate_hypotheses == before.degenerate_hypotheses
        assert after.theorem.status == before.theorem.status
