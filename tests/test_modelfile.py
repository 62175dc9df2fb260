import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_loads
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


def test_many_values_over_few_wide_denominators_load_fast():
    """3,072 distinct values over three denominators of about 10,700 bits,
    whose lcm is just under the cap, load in well under a second: the lcm
    and each ``L / q`` factor, big-int divisions, are taken once per distinct
    denominator (taken once per value, they made the load 5-9 times slower)."""
    rng = random.Random(5)
    values = []
    for wide in (5**4800, 7**3800, 11**3000):
        numerators = [rng.randrange(1, 10**6) for _ in range(1023)]
        values += [F(p, 3 * wide) for p in numerators + [wide - sum(numerators)]]
    atoms = "".join(f"atom {i} {mask:010b} {values[(i - 1) * 1024 + mask]}\n"
                    for i in (1, 2, 3) for mask in range(1024))
    text = "hypotheses 3\nevidence 10\n" + atoms
    started = time.perf_counter()
    model = loads(text)
    assert time.perf_counter() - started < 1.0
    assert model.denominator == 3 * 5**4800 * 7**3800 * 11**3000
    assert model.numerators(3)[-1] == (1023, (11**3000 - sum(numerators)) * 5**4800 * 7**3800)


def test_loads_respects_evidence_cap():
    bits = "1" * 17
    text = f"hypotheses 1\nevidence 17\natom 1 {bits} 1\n"
    with pytest.raises(InvalidModelError, match="cap"):
        loads(text)


def test_the_evidence_cap_is_refused_at_its_header():
    """``evidence`` past the cap is refused where it is read, with the
    builder's error, before a grammar error on a later line."""
    message = "m=17 exceeds the evidence cap 16 (audits enumerate 2**m subsets)"
    for line3 in ("atom 1 1 x\n", "frobnicate\n", "evidence 2\n"):
        with pytest.raises(InvalidModelError) as info:
            loads("hypotheses 1\nevidence 17\n" + line3)
        assert str(info.value) == message


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


def test_loaded_columns_keep_file_order():
    """Each ``numerators(i)`` lists H_i's nonzero atoms in file order, and
    ``atoms`` lists the hypotheses in order of their first nonzero atom."""
    text = "hypotheses 3\nevidence 2\n" + "".join(
        f"atom {i} {bits} {value}\n"
        for i, bits, value in [(2, "00", "0"), (3, "11", "1/8"), (1, "01", "1/8"), (3, "00", "1/4"),
                               (2, "10", "1/8"), (1, "10", "1/8"), (3, "01", "1/4")]
    )
    model = loads(text)
    assert model.denominator == 8
    assert model.numerators(1) == ((0b10, 1), (0b01, 1))
    assert model.numerators(2) == ((0b01, 1),)
    assert model.numerators(3) == ((0b11, 1), (0b00, 2), (0b10, 2))
    assert [i for i, _ in model.atoms] == [3, 3, 3, 1, 1, 2]


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


_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x1c", " \t "]


@st.composite
def mutated_files(draw):
    """A valid model file over n <= 3, m <= 4, mutated by up to three of:
    swapped, duplicated or moved headers, bad header counts, 3- and 5-token
    atom lines, a bad index, bitstring or rational, a duplicate atom, a
    negative value followed by a grammar error, an unknown directive, and
    three coprime ~13,300-bit denominators that take the lcm past its cap.
    Tokens are joined by drawn whitespace (including the line-breaking
    ``\\x0b`` and ``\\x1c``), and comments, blank lines and ``\\r\\n`` are added."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(1, n), st.integers(0, 2**m - 1))
    cells = draw(st.lists(cell, min_size=min(3, n * 2**m), max_size=8, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(cells), max_size=len(cells)))
    weights[0] += not any(weights)
    lines = [["hypotheses", str(n)], ["evidence", str(m)]]
    lines += [["atom", str(i), format(mask, f"0{m}b"), str(F(w, sum(weights)))]
              for (i, mask), w in zip(cells, weights)]
    kinds = ["swap", "header", "move", "count", "short", "long", "index", "bits", "rational", "unknown"]
    kinds += ["duplicate", "negative", "cap"] * 3  # these reach the atoms' values
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        atoms = [tokens for tokens in lines if tokens[0] == "atom" and len(tokens) == 4]
        tokens = draw(st.sampled_from(atoms)) if atoms else ["atom", "1", "0" * m, "1"]
        where = draw(st.integers(0, len(lines)))
        if kind == "swap":
            lines[0], lines[1] = lines[1], lines[0]
        elif kind == "header":
            lines.insert(where, list(draw(st.sampled_from(lines[:2]))))
        elif kind == "move":
            lines.insert(where, lines.pop(draw(st.integers(0, 1))))
        elif kind == "count":  # an evidence count past the cap is refused at its header: not here
            header = draw(st.sampled_from(lines[:2]))
            bad = ["0", "x", "2 2", "+2"] + ["1025"] * (header[0] == "hypotheses")
            header[1:] = [draw(st.sampled_from(bad))]
        elif kind == "short":
            del tokens[draw(st.integers(1, 3))]
        elif kind == "long":
            tokens.insert(draw(st.integers(1, 4)), draw(st.sampled_from(["1", "x", "1/2"])))
        elif kind == "index":
            tokens[1] = draw(st.sampled_from(["0", str(n + 1), "+1", "01", "x", "1_0", "-1"]))
        elif kind == "bits":
            tokens[2] = draw(st.sampled_from(["2" * m, "0" * (m + 1), "1" * (m - 1) or "x"]))
        elif kind == "rational":
            tokens[3] = draw(st.sampled_from(["1/0", "0.5", "x", "1/", "+1/2", "2/4", "-0", "1e3"]))
        elif kind == "duplicate":
            lines.insert(where, ["atom", tokens[1], tokens[2], draw(st.sampled_from(["0", "1/3"]))])
        elif kind == "negative":
            tokens[3] = "-1/3"
            bad = [[], [["atom", "1", "2" * m, "1"]], [["frobnicate"]], [["atom"]]]
            lines += draw(st.sampled_from(bad))
        elif kind == "unknown":
            lines.insert(where, ["frobnicate", "1"])
        else:
            for tokens, j in zip(atoms, (1, 3, 7)):
                tokens[3] = f"1/{10**3999 + j}"
    text, other = [], draw(st.sampled_from(_SEPARATORS))  # one other separator per file
    for tokens in lines:
        line = draw(st.sampled_from(["", " ", "\t"]))
        for token in tokens:
            line += token + (other if draw(st.integers(0, 3)) == 0 else " ")
        if draw(st.integers(0, 4)) == 0:  # a comment to the end of the line, now and then mid-line
            at = draw(st.integers(0, len(line))) if draw(st.integers(0, 3)) == 0 else len(line)
            line = line[:at] + "#" + draw(st.sampled_from(["", " note", "# atom 1 1 1"]))
        text += [draw(st.sampled_from(["", "  ", "# blank"]))] * draw(st.integers(0, 1)) + [line]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(text) + draw(st.sampled_from(["", end]))


def _outcome(load, text):
    try:
        model = load(text)
    except (ModelFormatError, InvalidModelError) as exc:
        return type(exc), str(exc)
    return model.n, model.m, model.denominator, [model.numerators(i) for i in range(1, model.n + 1)]


_WIDE = "".join(f"atom 1 {j:02b} 1/{10**3999 + j}\n" for j in (1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(mutated_files())
@example("hypotheses 1\r\nevidence 1\r\natom 1 1 -1/2\r\natom\t1\x1c0 3/2\r\n")
@example("hypotheses 1\nevidence 1\natom 1 1 -1/2 # first\natom 1 0 3/2\natom 1 2 0\n")
@example("hypotheses 2\nevidence 1\natom 2 1 -1/2\natom 1 0 1\natom 1 1 -1/2\natom 2 0 1\n")
@example("hypotheses 1\nevidence 2\n" + _WIDE + "atom 1 00 -1\n")
@example("hypotheses 1\nevidence 2\n" + _WIDE + "atom 1 00 1\x0b\n")
def test_loads_equals_the_reference_line_walk(text):
    """The loader gives the model the reference line walk gives, with ``L``
    and each column in file order, or the same error type and message."""
    assert _outcome(loads, text) == _outcome(_reference_loads.loads, text)
