"""Property tests: the model file format round-trips, and on product specs
where only one proposition depends on the hypothesis the audit is clean and
the odds route equals direct conditioning."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from oddsaudit import (
    ConditionalSpec,
    Model,
    check_assumptions,
    dumps,
    from_conditionals,
    loads,
    odds_posterior,
)


@st.composite
def models(draw):
    """Models over n = 1..4 hypotheses and m = 1..6 propositions, some
    hypotheses without mass, zero atoms among the rest, atoms inserted in a
    random order."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    live = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    cell = st.tuples(st.sampled_from(live), st.tuples(*[st.booleans()] * m))
    weights = draw(
        st.dictionaries(cell, st.integers(0, 6), min_size=1, max_size=24).filter(
            lambda found: any(found.values())
        )
    )
    total = sum(weights.values())
    order = draw(st.permutations(list(weights)))
    return Model(n=n, m=m, atoms={key: F(weights[key], total) for key in order})


@settings(max_examples=150, deadline=None)
@given(models())
def test_model_file_round_trips(model):
    text = dumps(model)
    assert loads(text) == model
    assert dumps(loads(text)) == text
    # Atoms are listed by hypothesis, then by bitstring value, zeros omitted.
    atoms = [line.split() for line in text.splitlines()[2:]]
    keys = [(int(i), int(bits, 2)) for _, i, bits, _ in atoms]
    assert keys == sorted(set(keys))
    assert all(value != "0" for *_, value in atoms)
    # Insertion order does not reach the canonical text.
    assert dumps(Model(n=model.n, m=model.m, atoms=dict(sorted(model.atoms.items())))) == text


@st.composite
def one_row_product_specs(draw):
    """Product specs on a grid of denominator 1..4 over n = 3..5 hypotheses,
    some without mass, where one row of conditionals varies across hypotheses
    and every other row is the same for all of them."""
    n, m = draw(st.integers(3, 5)), draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    priors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    varying = draw(st.integers(0, m - 1))
    rows = [
        draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        if j == varying
        else [draw(st.integers(0, d))] * n
        for j in range(m)
    ]
    return ConditionalSpec(
        priors=tuple(F(p, sum(priors)) for p in priors),
        cond=tuple(tuple(F(c, d) for c in row) for row in rows),
    )


@settings(max_examples=100, deadline=None)
@given(one_row_product_specs())
def test_one_varying_row_audits_clean(spec):
    model = from_conditionals(spec)
    for pairwise in (False, True):
        report = check_assumptions(model, pairwise=pairwise)
        assert report.clean
        assert report.theorem.status == "holds"


@settings(max_examples=60, deadline=None)
@given(one_row_product_specs())
def test_one_varying_row_odds_route_is_exact(spec):
    model = from_conditionals(spec)
    for event in _brute.all_events(model.m):
        if model.event_prob(event) == 0:
            continue
        for i in range(1, model.n + 1):
            if model.prior(i) in (0, 1):
                continue
            assert odds_posterior(model, event, i) == model.posterior(event, i)
