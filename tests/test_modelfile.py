import random
from fractions import Fraction as F

import pytest

from oddsaudit import InvalidModelError, Model, ModelFormatError, dump, dumps, load, loads
from oddsaudit.modelfile import MAX_HYPOTHESES

from test_model import random_model

GLYMOUR_TEXT = """\
# three hypotheses, two evidence propositions
hypotheses 3
evidence 2

atom 1 11 1/6
atom 1 01 1/6
atom 2 10 1/6   # trailing comment
atom 2 00 1/6
atom 3 10 1/6
atom 3 00 1/6
"""


def test_loads_glymour(glymour):
    assert loads(GLYMOUR_TEXT) == glymour


def test_dumps_is_canonical(glymour):
    text = dumps(glymour)
    assert text == (
        "hypotheses 3\n"
        "evidence 2\n"
        "atom 1 01 1/6\n"
        "atom 1 11 1/6\n"
        "atom 2 00 1/6\n"
        "atom 2 10 1/6\n"
        "atom 3 00 1/6\n"
        "atom 3 10 1/6\n"
    )
    assert dumps(loads(text)) == text


def test_zero_atoms_omitted():
    model = Model(n=1, m=1, atoms={(1, (True,)): 1, (1, (False,)): 0})
    assert dumps(model) == "hypotheses 1\nevidence 1\natom 1 1 1\n"


def test_round_trip_random_models(glymour, modified, four):
    rng = random.Random(23)
    models = [glymour, modified, four] + [
        random_model(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(30)
    ]
    for model in models:
        assert loads(dumps(model)) == model


def test_file_round_trip(tmp_path, modified):
    path = tmp_path / "m.model"
    dump(modified, path)
    assert load(path) == modified
    dump(modified, path)
    assert load(path) == modified  # rewrite is byte-stable
    assert path.read_text() == dumps(modified)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "missing"),
        ("hypotheses 3\n", "missing"),
        ("evidence 2\nhypotheses 3\n", "follow"),
        ("atom 1 1 1\n", "before"),
        ("hypotheses 3\nhypotheses 3\n", "duplicate"),
        ("hypotheses 1\nevidence 1\natom 1 1 1\nhypotheses 1\n", "duplicate 'hypotheses'"),
        ("hypotheses 1\nevidence 1\natom 1 1 1\nevidence 1\n", "duplicate 'evidence'"),
        ("hypotheses 1\natom 1 1 1\nevidence 1\n", "before"),
        ("hypotheses 3\nevidence 2\nevidence 2\n", "duplicate"),
        ("hypotheses x\nevidence 2\n", "integer"),
        ("hypotheses 0\nevidence 2\n", "positive"),
        ("hypotheses 3 4\nevidence 2\n", "expected"),
        ("hypotheses 1\nevidence 1\natom 1 1\n", "expected"),
        ("hypotheses 1\nevidence 1\natom 2 1 1\n", "range"),
        ("hypotheses 1\nevidence 1\natom 1 11 1\n", "bitstring"),
        ("hypotheses 1\nevidence 1\natom 1 2 1\n", "bitstring"),
        ("hypotheses 1\nevidence 1\natom 1 1 0.5\n", "rational"),
        ("hypotheses 1\nevidence 1\natom 1 1 1/0\n", "denominator"),
        ("hypotheses 1\nevidence 1\natom 1 1 1/2\natom 1 1 1/2\n", "duplicate"),
        ("hypotheses 1\nevidence 1\nfrobnicate\n", "unknown"),
        (f"hypotheses {MAX_HYPOTHESES + 1}\nevidence 1\natom 1 1 1\n", "limit"),
        ("hypotheses 1_0\nevidence 1\n", "integer"),
        ("hypotheses \uff13\nevidence 1\n", "integer"),
        ("hypotheses 3\nevidence \u0663\n", "integer"),
        ("hypotheses 3\nevidence 1\natom 1_0 1 1\n", "integer"),
        ("hypotheses 3\nevidence 1\natom \u0661 1 1\n", "integer"),
        ("hypotheses 1\nevidence 1\natom 1 1 \u0661\n", "rational"),
    ],
)
def test_grammar_errors(text, message):
    with pytest.raises(ModelFormatError, match=message):
        loads(text)


def test_distribution_errors_surface():
    with pytest.raises(InvalidModelError, match="total"):
        loads("hypotheses 3\nevidence 2\n")  # no atoms: mass 0
    with pytest.raises(InvalidModelError, match="negative"):
        loads("hypotheses 1\nevidence 1\natom 1 1 3/2\natom 1 0 -1/2\n")
    with pytest.raises(InvalidModelError, match="total"):
        loads("hypotheses 1\nevidence 1\natom 1 1 1/3\n")


def test_loads_respects_evidence_cap():
    bits = "1" * 17
    text = f"hypotheses 1\nevidence 17\natom 1 {bits} 1\n"
    with pytest.raises(InvalidModelError, match="cap"):
        loads(text)


def test_hypothesis_count_limit_is_inclusive():
    assert loads(f"hypotheses {MAX_HYPOTHESES}\nevidence 1\natom 1 1 1\n").n == MAX_HYPOTHESES


def test_headers_only_whitespace_and_comments():
    text = "   # leading comment\n\nhypotheses 1\n\t\nevidence 1\natom 1 1 1 # done\n"
    model = loads(text)
    assert (model.n, model.m) == (1, 1)
    assert model.atom(1, (True,)) == F(1)
