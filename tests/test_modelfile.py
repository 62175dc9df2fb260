import math
import random
import time
from fractions import Fraction as F

import pytest

from oddsaudit import InvalidModelError, Model, ModelFormatError, dump, dumps, load, loads
from oddsaudit.cli import main
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


TWO_BY_TWO = "hypotheses 2\nevidence 2\n"


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
        # Each distinct token is checked once per file: an error is still
        # raised at the first line that holds it, and "+1" is the index 1.
        (TWO_BY_TWO + "atom 1 10 1/2\natom +1 10 1/2\n", r"^line 4: duplicate atom \(1, 10\)$"),
        (TWO_BY_TWO + "atom +1 10 1/2\natom 1 10 1/2\n", r"^line 4: duplicate atom \(1, 10\)$"),
        (TWO_BY_TWO + "atom 1 10 0.5\natom 2 10 0.5\n", r"^line 3: not a rational literal"),
        (TWO_BY_TWO + "atom 1 10 1/2\natom 1 01 x/2\natom 2 01 x/2\n", r"^line 4: not a rat"),
        (TWO_BY_TWO + "atom 1 10 1/2\natom 2 1 1/2\n", r"^line 4: bitstring '1' must have"),
        (TWO_BY_TWO + "atom 1 10 1/2\natom 3 01 1/2\natom 3 11 1/2\n", r"^line 4: hypothesis index 3"),
        (TWO_BY_TWO + "atom 1 10 1/2\natom x 01 1/2\natom x 11 1/2\n", r"^line 4: hypothesis index is"),
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
    with pytest.raises(InvalidModelError, match="total") as info:
        loads("hypotheses 1\nevidence 1\natom 1 1 1/3\n")
    assert str(info.value) == "atom probabilities total 1/3, expected exactly 1"


def test_a_total_too_long_to_print_is_still_a_model_error(tmp_path, capsys):
    """Six atoms over 1000-digit denominators total a fraction whose lcm has
    about 6000 digits, past Python's 4300-digit int-to-str limit: the message
    says how the total misses 1 instead of printing it."""
    atoms = "".join(f"atom {i} 1 1/{10**999 + i}\n" for i in range(1, 7))
    path = tmp_path / "long.model"
    path.write_text(f"hypotheses 6\nevidence 1\n{atoms}", encoding="utf-8")
    message = "atom probabilities total less than 1, expected exactly 1"
    with pytest.raises(InvalidModelError) as info:
        loads(path.read_text(encoding="utf-8"))
    assert str(info.value) == message
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_common_denominator_past_the_cap_is_refused_fast(tmp_path, capsys):
    """400 atoms over distinct 1000-digit denominators (a 0.4 MB file) are
    refused once the lcm of those seen so far passes 2^15 bits, naming the
    first atom with the denominator that passes it, with exit 2 and in well
    under a second (scaling every atom to the whole lcm took 11.5 s)."""
    denominators = [10**999 + k for k in range(1, 401)]
    lcm, k = 1, 0
    while (lcm := math.lcm(lcm, denominators[k])).bit_length() <= 1 << 15:
        k += 1
    atoms = "".join(f"atom 1 {j:016b} 1/{q}\n" for j, q in enumerate(denominators, 1))
    path = tmp_path / "wide.model"
    path.write_text(f"hypotheses 1\nevidence 16\n{atoms}", encoding="utf-8")
    message = f"atom (1, {k + 1:016b}) takes the common denominator past 32768 bits"
    started = time.perf_counter()
    with pytest.raises(InvalidModelError) as info:
        loads(path.read_text(encoding="utf-8"))
    assert str(info.value) == message
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert time.perf_counter() - started < 1.0


def test_loads_respects_evidence_cap():
    bits = "1" * 17
    text = f"hypotheses 1\nevidence 17\natom 1 {bits} 1\n"
    with pytest.raises(InvalidModelError, match="cap"):
        loads(text)


def test_hypothesis_count_limit_is_inclusive():
    assert loads(f"hypotheses {MAX_HYPOTHESES}\nevidence 1\natom 1 1 1\n").n == MAX_HYPOTHESES


def test_dumps_refuses_what_loads_refuses():
    model = Model(n=MAX_HYPOTHESES + 1, m=1, atoms={(1, (True,)): 1})
    with pytest.raises(ModelFormatError, match=f"hypothesis count {MAX_HYPOTHESES + 1} exceeds"):
        dumps(model)


def test_dumps_refuses_an_atom_too_long_to_read_back():
    """An atom over 10^4400 passes the interpreter's 4300-digit limit, so no
    file could hold it; one over 10^4299 is written and read back."""
    for power, ok in ((4299, True), (4400, False)):
        q = 10**power
        model = Model(n=1, m=1, atoms={(1, (True,)): F(1, q), (1, (False,)): F(q - 1, q)})
        if ok:
            assert loads(dumps(model)) == model
            continue
        with pytest.raises(ModelFormatError) as info:
            dumps(model)
        assert str(info.value) == "atom (1, 0) has too many digits to read back"


def test_headers_only_whitespace_and_comments():
    text = "   # leading comment\n\nhypotheses 1\n\t\nevidence 1\natom 1 1 1 # done\n"
    model = loads(text)
    assert (model.n, model.m) == (1, 1)
    assert model.atom(1, (True,)) == F(1)


def test_equal_rationals_in_other_spellings_both_parse():
    model = loads(TWO_BY_TWO + "atom 1 10 1/2\natom 2 01 2/4\n")
    assert model.atom(1, (True, False)) == model.atom(2, (False, True)) == F(1, 2)
    atoms = {(1, (True, False)): F(1, 2), (2, (False, True)): F(1, 2)}
    assert model == Model(n=2, m=2, atoms=atoms)


def test_each_distinct_token_is_checked_once_per_file(monkeypatch):
    """A dense file repeats each bitstring n times and few values: each
    distinct bitstring and rational token is checked once per load, and the
    per-key sign check of ``Model(...)`` never runs on a file's keys."""
    from oddsaudit import model as model_module, modelfile

    calls = {"bitstring": 0, "signs": 0, "rational": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(modelfile, "_mask", counted("bitstring", modelfile._mask))
    monkeypatch.setattr(model_module, "_check_signs", counted("signs", model_module._check_signs))
    monkeypatch.setattr(modelfile, "parse_rational", counted("rational", modelfile.parse_rational))
    text = "hypotheses 3\nevidence 3\n" + "".join(
        f"atom {i} {mask:03b} {'1/16' if mask % 2 else '1/48'}\n"
        for i in (1, 2, 3)
        for mask in range(8)
    )
    for _ in range(2):  # nothing is kept from one load to the next
        calls.update(bitstring=0, signs=0, rational=0)
        assert loads(text).denominator == 48
        assert calls == {"bitstring": 8, "signs": 0, "rational": 2}
