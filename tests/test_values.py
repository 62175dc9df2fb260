"""The value behaviour every result type shares: ``repr``, ``==`` and ``hash``,
pickling at every protocol, copies, construction by position or by name,
``TypeError`` for a missing or unknown field and ``AttributeError`` on
assigning or deleting one."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from oddsaudit import (
    AuditReport,
    ConditionalSpec,
    IndependenceViolation,
    Model,
    PairIdentities,
    Side,
    SweepConfig,
    SweepResult,
    SweepViolation,
    TheoremOutcome,
)

SPEC = ConditionalSpec((F(1, 2), F(1, 2)), ((F(1), F(0)),))
SPEC_TEXT = "ConditionalSpec(priors=(Fraction(1, 2), Fraction(1, 2)), cond=((Fraction(1, 1), Fraction(0, 1)),))"
VIOLATION = IndependenceViolation(2, Side.GIVEN_H, (0b101, 1, 1, 2))
VIOLATION_TEXT = "IndependenceViolation(hypothesis=2, side=<Side.GIVEN_H: 'given-H'>, _figures=(5, 1, 1, 2))"
HOLDS_TEXT = "TheoremOutcome(status='holds', hypothesis=None, evidence_pair=None, reason=None)"

#: type -> (field names, one value's fields, another value's fields, the first's repr, hashable)
CASES = {
    Model: (
        ("n", "m", "atoms"),
        (2, 1, {(1, (True,)): F(1, 2), (2, (False,)): F(1, 2)}),
        (2, 1, {(1, (True,)): F(1, 2), (2, (True,)): F(1, 2)}),
        "Model(n=2, m=1, 2 nonzero atoms)",
        True,
    ),
    ConditionalSpec: (
        ("priors", "cond"),
        ((F(1, 2), F(1, 2)), ((F(1), F(0)),)),
        ((F(1, 2), F(1, 2)), ((F(0), F(1)),)),
        SPEC_TEXT,
        True,
    ),
    IndependenceViolation: (
        ("hypothesis", "side", "_figures"),
        (2, Side.GIVEN_H, (0b101, 1, 1, 2)),
        (2, Side.GIVEN_NOT_H, (0b101, 1, 1, 2)),
        VIOLATION_TEXT,
        True,
    ),
    TheoremOutcome: (
        ("status", "hypothesis", "evidence_pair", "reason"),
        ("violated", 1, (1, 2), None),
        ("violated", 1, (1, 3), None),
        "TheoremOutcome(status='violated', hypothesis=1, evidence_pair=(1, 2), reason=None)",
        True,
    ),
    PairIdentities: (
        ("residuals", "factorization_holds", "bracket_products"),
        ({1: F(0)}, True, {1: F(0)}),
        ({1: F(0)}, False, {1: F(0)}),
        "PairIdentities(residuals={1: Fraction(0, 1)}, factorization_holds=True, "
        "bracket_products={1: Fraction(0, 1)})",
        False,
    ),
    AuditReport: (
        ("n", "m", "pairwise", "independence_violations", "relevance", "degenerate_hypotheses",
         "condition1_failures", "theorem"),
        (3, 2, False, (VIOLATION,), {1: frozenset({2})}, frozenset(), (), TheoremOutcome("holds")),
        (3, 2, True, (VIOLATION,), {1: frozenset({2})}, frozenset(), (), TheoremOutcome("holds")),
        f"AuditReport(n=3, m=2, pairwise=False, independence_violations=({VIOLATION_TEXT},), "
        "relevance={1: frozenset({2})}, degenerate_hypotheses=frozenset(), condition1_failures=(), "
        f"theorem={HOLDS_TEXT})",
        False,
    ),
    SweepConfig: (
        ("n", "m", "denominator", "require_condition1"),
        (3, 2, 2, False),
        (3, 2, 2, True),
        "SweepConfig(n=3, m=2, denominator=2, require_condition1=False)",
        True,
    ),
    SweepViolation: (
        ("spec", "hypothesis", "evidence"),
        (SPEC, 1, (1, 2)),
        (SPEC, 2, (1, 2)),
        f"SweepViolation(spec={SPEC_TEXT}, hypothesis=1, evidence=(1, 2))",
        True,
    ),
    SweepResult: (
        ("models_enumerated", "models_satisfying_all", "theorem_violations",
         "witnesses_with_updating"),
        (5, 3, [], 1),
        (5, 3, [], 2),
        "SweepResult(models_enumerated=5, models_satisfying_all=3, theorem_violations=[], "
        "witnesses_with_updating=1)",
        False,
    ),
}
TYPES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


@TYPES
def test_values_print_and_compare_by_their_fields(cls):
    names, fields, other, text, hashable = CASES[cls]
    value = cls(*fields)
    assert repr(value) == text
    assert value == cls(**dict(zip(names, fields))) == cls(*fields[:1], **dict(zip(names[1:], fields[1:])))
    assert value != cls(*other) and value != fields and value != 1
    if hashable:
        assert hash(value) == hash(cls(**dict(zip(names, fields))))
        assert len({value, cls(*fields), cls(*other)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(value)


@TYPES
def test_values_survive_pickle_at_every_protocol_and_copies(cls):
    names, fields, _, text, hashable = CASES[cls]
    value = cls(*fields)
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(6)]
    for copied in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == text
        if hashable:
            assert hash(copied) == hash(value)


@TYPES
def test_a_missing_or_unknown_field_raises_type_error(cls):
    names, fields, _, _, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, unknown=1)
    if cls is not SweepResult:  # every tally starts at 0
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], fields[1:])))


@TYPES
def test_values_refuse_assigning_or_deleting_a_field(cls):
    names, fields, _, text, _ = CASES[cls]
    value = cls(*fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_fields_left_out_take_their_defaults():
    assert repr(TheoremOutcome("holds")) == HOLDS_TEXT
    assert SweepConfig(3, 2, 2) == SweepConfig(3, 2, 2, False)
    assert SweepResult() == SweepResult(0, 0, [], 0)
    assert SweepResult().theorem_violations is not SweepResult().theorem_violations
