import random
from fractions import Fraction as F

import pytest

import _brute
from oddsaudit import (
    ConditionalSpec,
    DegeneratePriorError,
    ImpossibleEvidenceError,
    Model,
    Side,
    ZeroProbabilityError,
    from_conditionals,
    odds_posteriors,
)

from test_model import random_model, single_atom_model, sparse_model

T, N = True, False

#: Certain under H1 for E1 = 0, certain under not-H1 for E2 = 1: each literal
#: alone is fine, both together give the odds (0, 0).
COLLAPSE_SPEC = ConditionalSpec(
    priors=(F(1, 3),) * 3,
    cond=((F(0), F(1, 2), F(1, 2)), (F(1), F(0), F(0))),
)


def outcome(model, event, i):
    """The value of ``odds_posteriors(model, event)(i)``, or its exception's type and message."""
    try:
        return odds_posteriors(model, event)(i)
    except (DegeneratePriorError, ImpossibleEvidenceError) as exc:
        return type(exc), str(exc)


# --- prior odds and single literals ----------------------------------------------


def test_prior_odds_values(glymour, four):
    # With no literals the odds stay (P(H_i), P(not-H_i)).
    assert odds_posteriors(glymour, {})(1) == F(1, 3)
    assert odds_posteriors(four, {})(3) == F(1, 4)
    assert odds_posteriors(single_atom_model(), {})(1) == 1
    with pytest.raises(IndexError):
        odds_posteriors(glymour, {})(0)


def test_odds_pair_posterior(glymour):
    # Infinite odds (P(E2 | H1), P(E2 | not-H1)) = (1, 0), and zero odds for H2.
    assert odds_posteriors(glymour, {2: T})(1) == 1
    assert odds_posteriors(glymour, {2: T})(2) == 0
    assert odds_posteriors(glymour, {2: T, 1: N})(3) == 0


def test_likelihood_pair_values(glymour, modified):
    # Pairs (1/2, 1/2) and (1/2, 1/4) on the prior odds (1/3, 2/3).
    assert odds_posteriors(glymour, {1: T})(1) == F(1, 3)
    assert odds_posteriors(modified, {2: T})(1) == F(1, 2)
    assert odds_posteriors(modified, {2: N})(1) == F(1, 4)


def test_likelihood_pair_degenerate_prior():
    model = Model(n=2, m=1, atoms={(1, (T,)): 1})  # P(H1)=1, P(H2)=0
    for i, prior in ((1, 1), (2, 0)):
        assert odds_posteriors(model, {})(i) == prior
        with pytest.raises(
            DegeneratePriorError, match=rf"for H{i} needs 0 < P\(H{i}\) < 1, got {prior}$"
        ):
            odds_posteriors(model, {1: T})(i)


def test_likelihood_pair_impossible_on_both_sides():
    # E1 never happens; it is refused as the first literal in index order,
    # wherever the event lists it.
    model = Model(n=2, m=2, atoms={(1, (N, N)): F(1, 2), (2, (N, T)): F(1, 2)})
    assert odds_posteriors(model, {2: N})(1) == 1
    for event in ({1: T}, {2: N, 1: T}, {1: T, 2: T}):
        with pytest.raises(
            ImpossibleEvidenceError,
            match="^E1=1 has probability 0 both given H1 and given not-H1$",
        ):
            odds_posteriors(model, event)(1)


def test_negated_literal_is_complement(glymour, modified, four):
    for model in (glymour, modified, four):
        for i in range(1, model.n + 1):
            p = model.prior(i)
            for j in range(1, model.m + 1):
                x = model.cond({j: T}, i, Side.GIVEN_H)
                y = model.cond({j: T}, i, Side.GIVEN_NOT_H)
                expected = p * (1 - x) / (p * (1 - x) + (1 - p) * (1 - y))
                assert odds_posteriors(model, {j: N})(i) == expected


def test_single_literal_matches_exact_everywhere():
    """Bayes with one item of evidence needs no independence assumption."""
    rng = random.Random(31)
    models = [random_model(rng, rng.randint(2, 4), rng.randint(1, 3)) for _ in range(25)]
    for model in models:
        for i in range(1, model.n + 1):
            if model.prior(i) in (0, 1):
                continue
            for j in range(1, model.m + 1):
                for sign in (T, N):
                    event = {j: sign}
                    if model.event_prob(event) == 0:
                        continue
                    assert odds_posteriors(model, event)(i) == model.posteriors(event)(i)


# --- products of several literals ------------------------------------------------


def test_odds_posterior_examples(glymour, modified):
    assert odds_posteriors(glymour, {1: T, 2: T})(1) == 1
    assert odds_posteriors(modified, {1: T, 2: T})(1) == F(1, 2)
    for i in (1, 2, 3):
        assert odds_posteriors(modified, {})(i) == modified.prior(i)


def test_odds_update_examples(dependent):
    # Dependent given not-H1: (1/3 * 1/2 * 1/5, 2/3 * 7/24 * 1/2) gives 12/47,
    # where direct conditioning gives 6/23.
    assert odds_posteriors(dependent, {1: T, 2: T})(1) == F(12, 47)
    assert dependent.posteriors({1: T, 2: T})(1) == F(6, 23)


def test_odds_posterior_empty_event_works_even_degenerate():
    model = single_atom_model()
    assert odds_posteriors(model, {})(1) == 1  # no factors, prior odds (1, 0)


def test_odds_update_collapse_is_an_error():
    model = from_conditionals(COLLAPSE_SPEC)
    assert odds_posteriors(model, {1: T})(1) == 0
    assert odds_posteriors(model, {2: T})(1) == 1
    with pytest.raises(
        ImpossibleEvidenceError,
        match="^evidence combination is impossible both given H and given not-H$",
    ):
        odds_posteriors(model, {1: T, 2: T})(1)


def test_odds_posterior_impossible_combination():
    # The collapse is no artefact of the odds route: direct conditioning on
    # the same event finds it impossible too.
    model = from_conditionals(COLLAPSE_SPEC)
    with pytest.raises(ZeroProbabilityError):
        model.posteriors({1: T, 2: T})(1)
    with pytest.raises(ImpossibleEvidenceError):
        odds_posteriors(model, {2: T, 1: T})(1)


def test_odds_update_order_independent():
    # The literals' insertion order changes neither the value nor which
    # error, with which message, is raised.
    rng = random.Random(29)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        model = sparse_model(rng, n, m, rng.choice((0.2, 0.5, 1.0)))
        for _ in range(10):
            chosen = rng.sample(range(1, m + 1), rng.randint(0, m))
            event = {j: rng.random() < 0.5 for j in chosen}
            items = list(event.items())
            rng.shuffle(items)
            i = rng.randint(1, n)
            assert outcome(model, dict(items), i) == outcome(model, event, i)


def test_matches_exact_on_independent_examples(glymour, modified, four):
    """On models passing the two-sided audit, the odds route is exact."""
    for model in (glymour, modified, four):
        for event in _brute.all_events(model.m):
            if model.event_prob(event) == 0:
                continue
            for i in range(1, model.n + 1):
                assert odds_posteriors(model, event)(i) == model.posteriors(event)(i)

