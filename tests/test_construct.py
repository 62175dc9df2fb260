import copy
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction as F
from itertools import product
from unittest import mock

import numpy as np
import pytest

import _brute
from oddsaudit import (
    MAX_EVIDENCE,
    ConditionalSpec,
    InvalidModelError,
    Model,
    Side,
    check_assumptions,
    example_model,
    from_conditionals,
    measurement_scenario,
    sign_vectors,
)

from conftest import side_violations

T, N = True, False

GLYMOUR_SPEC = ConditionalSpec(
    priors=(F(1, 3),) * 3,
    cond=((F(1, 2),) * 3, (F(1), F(0), F(0))),
)
MODIFIED_SPEC = ConditionalSpec(
    priors=(F(1, 3),) * 3,
    cond=((F(1, 2),) * 3, (F(1, 2), F(1, 3), F(1, 6))),
)
FOUR_SPEC = ConditionalSpec(
    priors=(F(1, 4),) * 4,
    cond=((F(1, 3), F(2, 3), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(1, 3), F(2, 3))),
)


def random_spec(rng, n=None, m=None, positive_priors=True):
    n = n or rng.randint(3, 5)
    m = m or rng.randint(2, 3)
    low = 1 if positive_priors else 0
    weights = [rng.randint(low, 9) for _ in range(n)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    priors = tuple(F(w, total) for w in weights)
    cond = tuple(
        tuple(F(rng.randint(0, (q := rng.randint(1, 12))), q) for _ in range(n))
        for _ in range(m)
    )
    return ConditionalSpec(priors=priors, cond=cond)


# --- ConditionalSpec validation ------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(), cond=((),))
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(F(1, 2), F(1, 3)), cond=((F(1), F(1)),))  # sum != 1
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(F(3, 2), F(-1, 2)), cond=((F(0), F(0)),))
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(F(1),), cond=())
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(F(1),), cond=((F(2),),))  # conditional > 1
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(F(1),), cond=((F(1, 2), F(1, 2)),))  # row length
    with pytest.raises(InvalidModelError):
        ConditionalSpec(priors=(0.5, 0.5), cond=((F(1), F(1)),))  # float


def test_values_are_rationals_and_never_text():
    """``Model``, ``ConditionalSpec`` and ``measurement_scenario`` take ints,
    ``Fraction``s and numpy integers; text and ``Decimal``s are refused at once
    whatever their exponent (``Fraction("1e-10000000")`` takes seconds), so a
    numeral is read only by ``parse_rational``."""
    huge = "1e-10000000"
    builders = (
        lambda v: Model(1, 1, {(1, (T,)): v, (1, (N,)): 1}),
        lambda v: ConditionalSpec(priors=(v, 1), cond=((0, 0),)),
        lambda v: measurement_scenario([v, 1], [F(1, 2)] * 2, {0: 1}, bool, bool),
    )
    started = time.perf_counter()
    for value in (huge, Decimal(huge), Decimal(0), "\u0661/\u0662", "\uff11", "1_000", " 3 ", "0"):
        for build in builders:
            with pytest.raises(InvalidModelError, match=r" is not a rational value: "):
                build(value)
    assert time.perf_counter() - started < 1
    for value in (0, F(0), np.int64(0), False):
        assert Model(1, 1, {(1, (T,)): value, (1, (N,)): 1}).prior(1) == 1
        assert ConditionalSpec(priors=(value, 1), cond=((0, 0),)).priors == (0, 1)
        assert measurement_scenario([value, 1], [F(1, 2)] * 2, {0: 1}, bool, bool).n == 2


def test_spec_priors_total_too_long_to_print_is_still_a_model_error():
    """The wrong total of 1/7^3000, 1/11^3000 and 1/2 has about 5,660 digits
    in its denominator, past the interpreter's int-to-str limit."""
    with pytest.raises(InvalidModelError) as info:
        ConditionalSpec(priors=(F(1, 7**3000), F(1, 11**3000), F(1, 2)), cond=((0, 0, 0),))
    assert str(info.value) == "priors total less than 1, expected exactly 1"


def test_spec_reads_as_its_values_and_is_immutable():
    """A spec's ``repr`` (which a sweep violation line prints), ``==`` and
    ``hash`` read its normalised ``(priors, cond)``, and it cannot be changed;
    copies and pickles are equal to it."""
    spec = ConditionalSpec(priors=(1,), cond=((0,),))
    assert repr(spec) == "ConditionalSpec(priors=(Fraction(1, 1),), cond=((Fraction(0, 1),),))"
    assert str(GLYMOUR_SPEC) == (
        "ConditionalSpec(priors=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), "
        "cond=((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), "
        "(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))))"
    )
    same = ConditionalSpec([F(1)], [[F(0)]])
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != ConditionalSpec(priors=(1,), cond=((1,),)) and spec != (spec.priors, spec.cond)
    assert GLYMOUR_SPEC != MODIFIED_SPEC
    for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and repr(copied) == repr(spec)
    with pytest.raises(AttributeError):
        spec.priors = (F(1),)
    with pytest.raises(AttributeError):
        del spec.cond
    assert spec.priors == (1,) and spec.cond == ((0,),)


# --- from_conditionals ----------------------------------------------------------


def test_reproduces_all_three_tables(glymour, modified, four):
    assert from_conditionals(GLYMOUR_SPEC) == glymour
    assert from_conditionals(MODIFIED_SPEC) == modified
    assert from_conditionals(FOUR_SPEC) == four


def test_a_spec_past_the_evidence_cap_is_refused_before_the_build(monkeypatch):
    """m = 17 is refused with the builder's message before any of the
    n * 2**17 product entries is made."""
    spy = mock.Mock(wraps=Model._from_table)
    monkeypatch.setattr(Model, "_from_table", spy)
    spec = ConditionalSpec(priors=(F(1, 2),) * 2, cond=((F(1, 3), F(2, 3)),) * (MAX_EVIDENCE + 1))
    with pytest.raises(InvalidModelError) as refused:
        from_conditionals(spec)
    assert str(refused.value) == "m=17 exceeds the evidence cap 16 (audits enumerate 2**m subsets)"
    spy.assert_not_called()


def test_modified_spot_cells():
    model = from_conditionals(MODIFIED_SPEC)
    assert model.atom(1, (T, T)) == F(1, 12)
    assert model.atom(3, (T, N)) == F(5, 36)


def test_four_spot_cells():
    model = from_conditionals(FOUR_SPEC)
    assert model.atom(3, (T, T)) == F(1, 24)
    # every cell, against the hand-built product
    raw = _brute.product_atoms(FOUR_SPEC.priors, FOUR_SPEC.cond)
    for i in range(1, 5):
        for signs in sign_vectors(2):
            assert model.atom(i, signs) == raw[(i, signs)]


def test_degenerate_prior_concentrates_mass():
    spec = ConditionalSpec(
        priors=(F(1), F(0), F(0)),
        cond=((F(1, 2), F(1, 3), F(1, 7)), (F(1, 5), F(0), F(1))),
    )
    model = from_conditionals(spec)
    assert model.prior(1) == 1
    assert model.prior(2) == model.prior(3) == 0
    assert model.atom(1, (T, T)) == F(1, 10)


def test_round_trip_priors_and_conditionals():
    rng = random.Random(43)
    for _ in range(50):
        spec = random_spec(rng)
        model = from_conditionals(spec)
        for i in range(1, spec.n + 1):
            assert model.prior(i) == spec.priors[i - 1]
            for j in range(1, spec.m + 1):
                assert model.cond({j: T}, i, Side.GIVEN_H) == spec.cond[j - 1][i - 1]


def test_construction_guarantees_given_h_independence():
    rng = random.Random(47)
    for _ in range(50):
        spec = random_spec(rng, positive_priors=False)
        report = check_assumptions(from_conditionals(spec))
        for i in range(1, spec.n + 1):
            assert side_violations(report, i, Side.GIVEN_H) == []


def test_uninformative_first_column_passes_full_audit():
    """Constant E1 column + arbitrary E2 column always satisfies both sides."""
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(3, 4)
        shared = F(rng.randint(0, 8), 8)
        weights = [rng.randint(1, 7) for _ in range(n)]
        spec = ConditionalSpec(
            priors=tuple(F(w, sum(weights)) for w in weights),
            cond=(
                (shared,) * n,
                tuple(F(rng.randint(0, 12), 12) for _ in range(n)),
            ),
        )
        assert check_assumptions(from_conditionals(spec)).independence_violations == ()


# --- example_model ---------------------------------------------------------------


def test_example_tables_match_reference_literally(glymour, modified, four):
    for model, raw in (
        (glymour, _brute.GLYMOUR_RAW),
        (modified, _brute.MODIFIED_RAW),
        (four, _brute.FOUR_RAW),
    ):
        for i in range(1, model.n + 1):
            for signs in sign_vectors(2):
                assert model.atom(i, signs) == raw[(i, signs)]


def test_example_spot_values(glymour, modified, four):
    assert glymour.atom(1, (T, T)) == F(1, 6)
    assert glymour.atom(2, (T, T)) == 0
    assert glymour.atom(2, (N, T)) == 0
    assert modified.atom(2, (N, T)) == F(1, 18)
    assert modified.atom(3, (N, N)) == F(5, 36)
    assert four.atom(1, (N, T)) == F(1, 12)
    assert four.atom(4, (N, N)) == F(1, 24)


def test_example_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        example_model("classic")


# --- measurement_scenario ----------------------------------------------------------


def enumerate_scenario_atoms(values, weights, noise, e1, e2):
    """Independent route: exhaust the (value, err1, err2) sample space."""
    atoms = {}
    for v, w in zip(values, weights):
        for d1, p1 in noise.items():
            for d2, p2 in noise.items():
                signs = (e1(v + d1), e2(v + d2))
                key = (values.index(v) + 1, signs)
                atoms[key] = atoms.get(key, F(0)) + w * p1 * p2
    return atoms


UNIFORM_NOISE = {F(-1): F(1, 3), F(0): F(1, 3), F(1): F(1, 3)}


def test_two_values_given_h_holds_and_complement_is_single_cell():
    model = measurement_scenario(
        [F(0), F(10)], [F(1, 2), F(1, 2)], UNIFORM_NOISE,
        lambda y: y <= 1, lambda z: z <= 1,
    )
    report = check_assumptions(model)
    for i in (1, 2):
        assert side_violations(report, i, Side.GIVEN_H) == []
        # With only two cells the complement of one is exactly the other, so
        # independence given the complement is inherited from construction.
        assert side_violations(report, i, Side.GIVEN_NOT_H) == []


def test_three_values_break_complement_independence():
    values = [F(0), F(10), F(20)]
    weights = [F(1, 3)] * 3
    model = measurement_scenario(
        values, weights, UNIFORM_NOISE, lambda y: y <= 9, lambda z: z <= 9
    )
    report = check_assumptions(model)
    for i in (1, 2, 3):
        assert side_violations(report, i, Side.GIVEN_H) == []
    violated = [i for i in (1, 2, 3) if side_violations(report, i, Side.GIVEN_NOT_H)]
    assert violated == [1, 2, 3]
    first = side_violations(report, 1, Side.GIVEN_NOT_H)[0]
    assert (first.joint, first.product) == (F(1, 18), F(1, 36))


def test_scenario_matches_sample_space_enumeration():
    values = [F(0), F(10), F(20)]
    weights = [F(1, 2), F(1, 3), F(1, 6)]
    noise = {F(-2): F(1, 6), F(0): F(1, 2), F(3): F(1, 3)}
    e1 = lambda y: y <= 8
    e2 = lambda z: z <= 18
    model = measurement_scenario(values, weights, noise, e1, e2)
    expected = enumerate_scenario_atoms(values, weights, noise, e1, e2)
    for i in (1, 2, 3):
        for signs in sign_vectors(2):
            assert model.atom(i, signs) == expected.get((i, signs), F(0))


def test_deterministic_instruments():
    model = measurement_scenario(
        [F(0), F(10), F(20)], [F(1, 3)] * 3, {F(0): F(1)},
        lambda y: y <= 9, lambda z: z <= 9,
    )
    report = check_assumptions(model)
    for i in (1, 2, 3):
        assert side_violations(report, i, Side.GIVEN_H) == []
    violated = [i for i in (1, 2, 3) if side_violations(report, i, Side.GIVEN_NOT_H)]
    assert violated == [2, 3]  # derived by exact computation over the sample space


def test_scenario_validation():
    ok = dict(values=[F(0), F(10)], weights=[F(1, 2), F(1, 2)], noise={F(0): F(1)})
    with pytest.raises(InvalidModelError, match="two distinct"):
        measurement_scenario([F(0)], [F(1)], ok["noise"], bool, bool)
    with pytest.raises(InvalidModelError, match="distinct"):
        measurement_scenario([F(1), F(1)], ok["weights"], ok["noise"], bool, bool)
    with pytest.raises(InvalidModelError, match="weights"):
        measurement_scenario(ok["values"], [F(1, 2)], ok["noise"], bool, bool)
    with pytest.raises(InvalidModelError, match="total"):
        measurement_scenario(ok["values"], [F(1, 2), F(1, 3)], ok["noise"], bool, bool)
    with pytest.raises(InvalidModelError, match="total"):
        measurement_scenario(ok["values"], ok["weights"], {F(0): F(1, 2)}, bool, bool)
    with pytest.raises(InvalidModelError, match="nonempty"):
        measurement_scenario(ok["values"], ok["weights"], {}, bool, bool)
    with pytest.raises(InvalidModelError, match="nonnegative"):
        measurement_scenario(
            ok["values"], ok["weights"], {F(0): F(3, 2), F(1): F(-1, 2)}, bool, bool
        )
    with pytest.raises(InvalidModelError, match="float"):
        measurement_scenario([0.0, 10.0], ok["weights"], ok["noise"], bool, bool)
    with pytest.raises(InvalidModelError, match="selects no"):
        measurement_scenario(
            ok["values"], ok["weights"], ok["noise"], lambda y: False, lambda z: True
        )
