import argparse
import contextlib
import copy
import importlib
import io
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import _brute
from oddsaudit import (
    MAX_EVIDENCE,
    DegeneratePriorError,
    ImpossibleEvidenceError,
    Model,
    ModelError,
    Side,
    ZeroProbabilityError,
    check_assumptions,
    dump,
    dumps,
    from_conditionals,
    load,
    measurement_scenario,
    sign_vectors,
)
from oddsaudit import audit, cli
from oddsaudit.cli import main, parse_observation
from oddsaudit.modelfile import MAX_HYPOTHESES

from conftest import DEPENDENT_SPEC
from test_audit import DEPENDENT_REPORT, GLYMOUR_REPORT
from test_properties import odds_queries


@pytest.fixture()
def model_file(tmp_path):
    def write(name, model=None, text=None):
        path = tmp_path / name
        if model is not None:
            dump(model, path)
        else:
            path.write_text(text)
        return str(path)

    return write


@pytest.fixture()
def glymour_file(model_file, glymour):
    return model_file("glymour.model", glymour)


@pytest.fixture()
def modified_file(model_file, modified):
    return model_file("modified.model", modified)


# --- observation grammar --------------------------------------------------------


def test_parse_observation():
    assert parse_observation("", 2) == {}
    assert parse_observation("E1=1", 2) == {1: True}
    assert parse_observation("E2=0, E1=1", 2) == {2: False, 1: True}
    for bad in ("E1", "E1=2", "E0=1", "E3=1", "E1=1,E1=0", "1=1"):
        with pytest.raises(ValueError):
            parse_observation(bad, 2)


# --- audit -----------------------------------------------------------------------


def test_audit_glymour(glymour_file, capsys):
    assert main(["audit", glymour_file]) == 0
    out = capsys.readouterr().out
    assert out == GLYMOUR_REPORT
    assert "H1: E2" in out


def test_audit_pairwise_flag(glymour_file, capsys):
    assert main(["audit", glymour_file, "--pairwise"]) == 0
    assert "independence-mode: pairwise" in capsys.readouterr().out


def test_audit_empty_model(model_file, capsys):
    path = model_file("empty.model", text="hypotheses 3\nevidence 2\n")
    assert main(["audit", path]) == 2
    assert "total" in capsys.readouterr().err


def test_audit_dependent(model_file, capsys):
    path = model_file("dependent.model", from_conditionals(DEPENDENT_SPEC))
    assert main(["audit", path]) == 1
    assert capsys.readouterr().out == DEPENDENT_REPORT


def test_audit_condition1_not_evaluable(model_file, capsys):
    text = "hypotheses 3\nevidence 2\n" + "".join(f"atom {i} 00 1/3\n" for i in (1, 2, 3))
    assert main(["audit", model_file("never.model", text=text)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "all-evidence-posteriors-nonzero: not-evaluable "
        "(the all-evidence conjunction has probability 0)",
        "multiple-updating: none (at most one updating evidence item per hypothesis)",
    ]


def test_audit_missing_file(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.model")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "hypotheses 1\nevidence 1\natom 1 1 \u0661/\u0662\natom 1 0 1/2\n",  # Arabic-Indic 1/2
        "hypotheses 1\nevidence 1_0\natom 1 1111111111 1\n",
        "hypotheses \uff13\nevidence 1\natom 1 1 1\n",  # fullwidth 3
    ],
    ids=["non-ascii-rational", "underscore-count", "fullwidth-count"],
)
def test_audit_rejects_non_ascii_numerals(text, tmp_path, capsys):
    path = tmp_path / "numerals.model"
    path.write_text(text, encoding="utf-8")
    assert main(["audit", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_rejects_hostile_hypothesis_count(tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text("hypotheses 3000000\nevidence 1\natom 1 1 1\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["audit", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "limit" in capsys.readouterr().err


def test_audit_rejects_evidence_past_the_cap(tmp_path, capsys):
    path = tmp_path / "wide.model"
    path.write_text(f"hypotheses 3\nevidence 17\natom 1 {'1' * 17} 1\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["audit", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert f"exceeds the evidence cap {MAX_EVIDENCE}" in capsys.readouterr().err


def test_audit_shares_the_check_of_zero_mass_hypotheses(tmp_path, capsys):
    """Given not-H, every zero-mass hypothesis conditions on the whole model;
    1023 of them must not each rerun the 2**16 subset identities."""
    path = tmp_path / "one_atom.model"
    path.write_text("hypotheses 1024\nevidence 16\natom 1 1111111111111111 1\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["audit", str(path)]) == 0
    assert time.perf_counter() - start < 1
    every = [f"H{i}" for i in range(1, 1025)]
    assert capsys.readouterr().out == "\n".join(
        [
            "hypotheses: 1024",
            "evidence: 16",
            "hypothesis-count (n > 2): ok",
            "partition: exhaustive and mutually exclusive by construction; "
            "atom masses total exactly 1",
            "independence-mode: full",
            "independence-violations: none",
            "relevance:",
            *(f"  {h}: none" for h in every),
            "degenerate-hypotheses: " + ", ".join(every),
            f"all-evidence-posteriors-nonzero: no ({', '.join(every[1:])})",
            "multiple-updating: none (at most one updating evidence item per hypothesis)",
            "",
        ]
    )


# --- posterior --------------------------------------------------------------------


def test_posterior_exact_all(modified_file, capsys):
    assert main(
        ["posterior", modified_file, "--observe", "E1=1,E2=1", "--method", "exact", "--all"]
    ) == 0
    assert capsys.readouterr().out == "H1: 1/2\nH2: 1/3\nH3: 1/6\n"


def test_posterior_odds_prior_when_unobserved(modified_file, capsys):
    assert main(["posterior", modified_file, "--method", "odds", "-i", "1"]) == 0
    assert capsys.readouterr().out == "1/3\n"


def test_posterior_odds_certainty(glymour_file, capsys):
    assert main(
        ["posterior", glymour_file, "--observe", "E1=1,E2=1", "--method", "odds", "-i", "1"]
    ) == 0
    assert capsys.readouterr().out == "1\n"


def test_posterior_methods_agree(modified_file, capsys):
    for method in ("exact", "odds"):
        assert main(
            ["posterior", modified_file, "--observe", "E2=0", "--method", method, "--all"]
        ) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[:3] == lines[3:]


def test_posterior_approx_column(modified_file, capsys):
    assert main(
        ["posterior", modified_file, "--observe", "E1=1,E2=1", "-i", "1", "--approx"]
    ) == 0
    assert capsys.readouterr().out == "1/2 (approx 0.5)\n"


def test_posterior_input_errors(modified_file, capsys):
    assert main(["posterior", modified_file, "--observe", "E9=1", "-i", "1"]) == 2
    assert main(["posterior", modified_file, "--observe", "E1=1,E1=1", "-i", "1"]) == 2
    assert main(["posterior", modified_file, "--observe", "junk", "-i", "1"]) == 2
    assert main(["posterior", modified_file, "-i", "9"]) == 2  # hypothesis out of range
    assert main(["posterior", modified_file]) == 2  # needs -i or --all
    capsys.readouterr()


def test_posterior_rejects_non_ascii_evidence_index(modified_file, capsys):
    assert main(["posterior", modified_file, "--observe", "E\u0661=1", "--all"]) == 2
    assert "bad observation token" in capsys.readouterr().err


def test_posterior_degenerate_and_impossible(model_file, capsys):
    path = model_file("certain.model", text="hypotheses 2\nevidence 1\natom 1 1 1\n")
    assert main(["posterior", path, "--observe", "E1=1", "--method", "odds", "-i", "1"]) == 2
    assert "P(H1)" in capsys.readouterr().err
    assert main(["posterior", path, "--observe", "E1=0", "--method", "exact", "-i", "1"]) == 2
    assert "probability 0" in capsys.readouterr().err


# --- one pass over the atoms for every hypothesis ---------------------------------


def _rescanned(model, event, i, method):
    """P(H_i | event) as the per-hypothesis queries computed it before
    ``posterior`` took every hypothesis from one pass: a rescan of the whole
    model per hypothesis, and per literal on the odds route."""

    def joint(care, want, hypotheses):
        return sum(
            num for h in hypotheses for mask, num in model.numerators(h) if mask & care == want
        )

    everyone, L, M = range(1, model.n + 1), model.denominator, model.mass(i)
    if method == "exact":
        care = sum(1 << (j - 1) for j in event)
        want = sum(1 << (j - 1) for j, sign in event.items() if sign)
        total = joint(care, want, everyone)
        if total == 0:
            raise ZeroProbabilityError("cannot condition on an event of probability 0")
        return F(joint(care, want, [i]), total)
    if event and M in (0, L):
        raise DegeneratePriorError(
            f"likelihood ratio for H{i} needs 0 < P(H{i}) < 1, got {M // L}"
        )
    for_h, against_h = M, L - M
    for j, sign in sorted(event.items()):
        bit = 1 << (j - 1)
        a = joint(bit, bit if sign else 0, [i])
        b = joint(bit, bit if sign else 0, everyone) - a
        if a == 0 and b == 0:
            raise ImpossibleEvidenceError(
                f"E{j}={int(sign)} has probability 0 both given H{i} and given not-H{i}"
            )
        for_h *= a * (L - M)
        against_h *= b * M
    if for_h == 0 and against_h == 0:
        raise ImpossibleEvidenceError(
            "evidence combination is impossible both given H and given not-H"
        )
    return F(for_h, for_h + against_h)


def _expected_run(model, event, method, targets, every):
    """``(exit code, stdout, stderr)`` of a ``posterior`` run, from the
    per-hypothesis queries: lines up to the first hypothesis without an answer."""
    out = []
    for i in targets:
        try:
            value = _rescanned(model, event, i, method)
        except ModelError as exc:
            return 2, "".join(out), f"error: {exc}\n"
        out.append(f"H{i}: {value}\n" if every else f"{value}\n")
    return 0, "".join(out), ""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(odds_queries())
def test_posterior_runs_equal_the_per_hypothesis_queries(tmp_path_factory, drawn):
    """``posterior --all`` and ``-i``, exact and odds, print what the queries
    that rescanned the model per hypothesis gave, byte for byte and up to
    the same hypothesis when one has no answer, and those values are the
    oracle's."""
    model, event, _ = drawn
    path = tmp_path_factory.mktemp("posterior") / "drawn.model"
    dump(model, path)
    observe = ",".join(f"E{j}={int(sign)}" for j, sign in event.items())
    everyone = range(1, model.n + 1)
    for method in ("exact", "odds"):
        argv = ["posterior", str(path), "--observe", observe, "--method", method]
        assert _run(argv + ["--all"]) == _expected_run(model, event, method, everyone, True)
        for i in everyone:
            assert _run(argv + ["-i", str(i)]) == _expected_run(model, event, method, [i], False)
    atoms = dict(model.atoms)
    for i in everyone:
        if _brute.event_prob(atoms, event):
            assert _rescanned(model, event, i, "exact") == _brute.posterior(atoms, event, i)
        try:
            expected = _brute.odds_posterior(atoms, event, i)
        except _brute.DegeneratePrior:
            with pytest.raises(DegeneratePriorError):
                _rescanned(model, event, i, "odds")
        except _brute.ImpossibleEvidence:
            with pytest.raises(ImpossibleEvidenceError):
                _rescanned(model, event, i, "odds")
        else:
            assert _rescanned(model, event, i, "odds") == expected


#: H2 has no mass, so the odds route has no likelihood ratio for it.
WITHOUT_H2 = "hypotheses 3\nevidence 1\natom 1 1 1/2\natom 3 0 1/2\n"
#: E1=1 never holds with H2 and E2=1 only with it.
E2_ONLY_WITH_H2 = (
    "hypotheses 3\nevidence 2\natom 1 10 1/4\natom 2 01 1/4\natom 3 10 1/4\natom 3 00 1/4\n"
)


@pytest.mark.parametrize(
    "text,observe,method,out,message",
    [
        (WITHOUT_H2, "E1=1", "odds", "H1: 1\n",
         "likelihood ratio for H2 needs 0 < P(H2) < 1, got 0"),
        (E2_ONLY_WITH_H2, "E1=1,E2=1", "odds", "H1: 0\n",
         "evidence combination is impossible both given H and given not-H"),
        (E2_ONLY_WITH_H2, "E1=1,E2=1", "exact", "",
         "cannot condition on an event of probability 0"),
    ],
)
def test_posterior_all_stops_at_the_first_hypothesis_without_an_answer(
    text, observe, method, out, message, model_file
):
    path = model_file("stops.model", text=text)
    run = _run(["posterior", path, "--observe", observe, "--method", method, "--all"])
    assert run == (2, out, f"error: {message}\n")
    model = load(path)
    event = parse_observation(observe, model.m)
    assert run == _expected_run(model, event, method, range(1, model.n + 1), True)


def test_a_posterior_too_long_to_print_is_refused_in_own_words(model_file):
    """H3's posterior 1/q1 + 1/q2 has about 8000 digits, past the 4300-digit
    limit of ``str(int)``, though the model is under the denominator cap."""
    q1, q2 = 10**3999 + 1, 10**3999 + 3
    path = model_file("long.model", text=(
        f"hypotheses 3\nevidence 1\natom 1 0 {q1 - 2}/{2 * q1}\natom 2 1 {q2 - 2}/{2 * q2}\n"
        f"atom 3 0 1/{q1}\natom 3 1 1/{q2}\n"
    ))
    message = "error: posterior of H3 has a numeral past the 4300-digit limit\n"
    printed = f"H1: {F(q1 - 2, 2 * q1)}\nH2: {F(q2 - 2, 2 * q2)}\n"
    for method in ("exact", "odds"):
        assert _run(["posterior", path, "--method", method, "--all"]) == (2, printed, message)
        only_h3 = ["posterior", path, "--method", method, "-i", "3", "--approx"]
        assert _run(only_h3) == (2, "", message)


def test_an_audit_figure_too_long_to_print_is_refused_in_own_words(model_file):
    """Eleven atoms of 1/q, each q a random 250-digit integer, and one that
    closes the total: ``L`` has 9,080 bits, under the cap, but a violation's
    product figure passes the 4300-digit limit of ``str(int)``."""
    rng = random.Random(1)
    values = [F(1, rng.randrange(10**249, 10**250)) for _ in range(11)]
    values.append(1 - sum(values))
    cells = [(i, bits) for i in range(1, 4) for bits in ("00", "01", "10", "11")]
    path = model_file("long.model", text="hypotheses 3\nevidence 2\n" + "".join(
        f"atom {i} {bits} {value}\n" for (i, bits), value in zip(cells, values)
    ))
    assert load(path).denominator.bit_length() == 9080
    message = "error: H3 given-H {E1,E2} has a numeral past the 4300-digit limit\n"
    for pairwise in ([], ["--pairwise"]):
        assert _run(["audit", path, *pairwise]) == (2, "", message)


def test_an_audit_joint_figure_too_long_to_print_is_refused_in_own_words(model_file):
    """H1's atoms are 1/24 +- 1/q1 and 1/24 +- 1/q2, with q1 and q2 coprime
    2201-digit integers, split by E3 so that no token passes the limit.
    Given H1, E1 and E2 each have probability 1/2, so the first failing line's
    product is 1/4, while its joint figure 1/4 + 3/q1 + 3/q2 has a
    4401-digit denominator."""
    q1, q2 = 10**2200 + 1, 10**2200 + 3
    lines = [
        f"atom 1 {bits}{e3} {F(1, 24) + sign * F(1, q)}\n"
        for bits, sign in (("11", 1), ("10", -1), ("01", -1), ("00", 1))
        for e3, q in (("0", q1), ("1", q2))
    ]
    path = model_file("long_joint.model", text=(
        "hypotheses 3\nevidence 3\n" + "".join(lines) + "atom 2 000 1/3\natom 3 111 1/3\n"
    ))
    first = check_assumptions(load(path), pairwise=True).independence_violations[0]
    assert (first.hypothesis, first.side, first.subset) == (1, Side.GIVEN_H, (1, 2))
    assert (first.joint, first.product) == (F(1, 4) + F(3, q1) + F(3, q2), F(1, 4))
    message = "error: H1 given-H {E1,E2} has a numeral past the 4300-digit limit\n"
    for pairwise in ([], ["--pairwise"]):
        assert _run(["audit", path, *pairwise]) == (2, "", message)


def test_audit_builds_no_fraction_for_its_violations(model_file, monkeypatch):
    """The walk and the report lines keep each violation's figures as integers:
    ``audit`` builds no ``Fraction`` in the audit module, on the dependent
    model and on a table where every subset fails on every side, and prints
    the lines that the violations' ``Fraction`` figures read."""
    rng = random.Random(5)
    cells = [(i, signs) for i in (1, 2, 3) for signs in sign_vectors(4)]
    weights = {key: rng.randint(1, 9) for key in cells}
    dense = Model(n=3, m=4, atoms={key: F(w, sum(weights.values())) for key, w in weights.items()})
    violations = check_assumptions(dense).independence_violations
    assert len(violations) == 3 * 2 * (2**4 - 4 - 1)
    lines = "".join(
        f"  H{v.hypothesis} {v.side} {{{','.join(f'E{j}' for j in v.subset)}}}: "
        f"joint={v.joint} product={v.product}\n"
        for v in violations
    )
    spy = mock.Mock(wraps=F)
    monkeypatch.setattr(audit, "Fraction", spy)
    run = _run(["audit", model_file("dependent.model", from_conditionals(DEPENDENT_SPEC))])
    assert run == (1, DEPENDENT_REPORT, "")
    code, out, err = _run(["audit", model_file("dense.model", dense)])
    assert (code, err) == (1, "")
    assert f"independence-violations: {len(violations)}\n{lines}relevance:\n" in out
    assert spy.call_count == 0


def test_posterior_and_audit_read_only_the_integer_form(tmp_path, monkeypatch, capsys):
    """No CLI command, nor ``==``, ``hash``, ``atom``, ``pickle`` or
    ``copy.deepcopy``, reads a model's ``atoms`` view (each read is counted),
    and ``posterior --all`` visits each atom once, or once per literal on the
    odds route."""
    reads, visits, loaded, written = [], Counter(), [], []
    view = Model.atoms
    monkeypatch.setattr(Model, "atoms", property(lambda model: reads.append(model) or view.fget(model)))

    class Column(tuple):
        def __iter__(self):
            for mask, num in tuple.__iter__(self):
                visits[self.i, mask] += 1
                yield mask, num

    def counted_load(path):
        model = load(path)
        columns = {i: Column(column) for i, column in model._columns.items()}
        for i, column in columns.items():
            column.i = i
        object.__setattr__(model, "_columns", columns)
        loaded.append(model)
        return model

    monkeypatch.setattr(cli, "load", counted_load)
    model = from_conditionals(DEPENDENT_SPEC)
    path = str(tmp_path / "dependent.model")
    dump(model, path)
    atoms = [(i, mask) for i in range(1, model.n + 1) for mask, _ in model.numerators(i)]
    for observe, method, scans in (
        ("", "exact", 1), ("E1=1,E2=0", "exact", 1), ("", "odds", 0), ("E2=1", "odds", 1),
        ("E1=1,E2=0", "odds", 2),
    ):
        visits.clear()
        assert main(["posterior", path, "--observe", observe, "--method", method, "--all"]) == 0
        assert visits == Counter(dict.fromkeys(atoms, scans))
    for argv in (["audit", path], ["audit", path, "--pairwise"], ["posterior", path, "-i", "2"]):
        main(argv)
    assert len(loaded) == 8 and reads == []

    def recorded(write):
        def record(model, *args):
            written.append(model)
            return write(model, *args)
        return record

    monkeypatch.setattr(cli, "dump", recorded(dump))
    monkeypatch.setattr(cli, "dumps", recorded(dumps))
    for argv in (
        ["example", "four"],
        ["example", "glymour", "-o", str(tmp_path / "glymour.model")],
        ["scenario", "--values", "0,1,2", "--weights", "1/2,1/4,1/4", "--noise", "0:1",
         "--thresholds", "0,1", "-o", str(tmp_path / "scenario.model")],
        ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--witness-dir", str(tmp_path / "w")],
    ):
        assert main(argv) == 0
    witnesses = len(list((tmp_path / "w").iterdir()))
    assert witnesses and len(written) == 3 + witnesses and reads == []

    constructed = Model(n=2, m=1, atoms={(1, (True,)): F(1, 2), (2, (False,)): F(1, 2)})
    for built in (constructed, load(path), model, written[0]):
        copies = [pickle.loads(pickle.dumps(built)), copy.deepcopy(built)]
        assert all(clone == built and hash(clone) == hash(built) for clone in copies)
        assert (built == constructed) == (built is constructed)
        built.atom(1, (True,) * built.m)
    assert reads == []
    assert constructed.atoms and reads == [constructed]  # the counter counts


# --- numerals past the digit limit ------------------------------------------------

BIG = "1" * 5000  # past the interpreter's default limit of 4300 digits for int(str)
ONE_ATOM = "hypotheses 1\nevidence 1\natom 1 1 1\n"


@pytest.mark.parametrize(
    "text,argv",
    [
        (f"hypotheses {BIG}\nevidence 1\n", "audit FILE"),
        (f"hypotheses 1\nevidence 1\natom {BIG} 1 1\n", "audit FILE"),
        (f"hypotheses 1\nevidence 1\natom 1 1 1/{BIG}\n", "audit FILE"),
        (ONE_ATOM, f"posterior FILE -i {BIG}"),
        (ONE_ATOM, f"posterior FILE --all --observe E{BIG}=1"),
        (None, f"sweep --n {BIG} --m 2 --denominator 2"),
        (None, f"scenario --values 0,{BIG} --weights 1/2,1/2 --noise 0:1 --thresholds 0,1 -o FILE"),
    ],
    ids=["count", "index", "rational", "-i", "observe", "sweep", "scenario"],
)
def test_numerals_past_the_digit_limit_are_refused_in_own_words(text, argv, tmp_path, capsys):
    path = tmp_path / "big.model"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if arg == "FILE" else arg for arg in argv.split()]) == 2
    err = capsys.readouterr().err
    assert "numeral of 5000 digits exceeds the 4300-digit limit" in err
    assert "set_int_max_str_digits" not in err and len(err) < 1000


# --- example ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected_line",
    [("glymour", "atom 1 11 1/6"), ("modified", "atom 3 00 5/36"), ("four", "atom 4 01 1/12")],
)
def test_example_stdout(name, expected_line, capsys):
    """The whole output is the reference table in canonical form: headers, then
    the nonzero atoms by hypothesis and then bitstring."""
    raw = {"glymour": _brute.GLYMOUR_RAW, "modified": _brute.MODIFIED_RAW, "four": _brute.FOUR_RAW}
    atoms = sorted(
        (i, "".join("1" if sign else "0" for sign in signs), value)
        for (i, signs), value in raw[name].items()
        if value
    )
    expected = f"hypotheses {max(i for i, _, _ in atoms)}\nevidence 2\n" + "".join(
        f"atom {i} {bits} {value}\n" for i, bits, value in atoms
    )
    assert main(["example", name]) == 0
    out = capsys.readouterr().out
    assert expected_line in out.splitlines()
    assert out == expected


def test_example_file_byte_identical(tmp_path, glymour, capsys):
    target = tmp_path / "g.model"
    assert main(["example", "glymour", "-o", str(target)]) == 0
    first = target.read_bytes()
    assert main(["example", "glymour", "-o", str(target)]) == 0
    assert target.read_bytes() == first
    assert first.decode() == dumps(glymour)
    assert load(target) == glymour
    capsys.readouterr()


def test_example_unknown_name(capsys):
    assert main(["example", "classic"]) == 2
    capsys.readouterr()


# --- sweep -----------------------------------------------------------------------


def test_sweep_small_grid(capsys):
    assert main(["sweep", "--n", "3", "--m", "2", "--denominator", "2"]) == 0
    assert capsys.readouterr().out == (
        "models-enumerated: 4374\n"
        "models-satisfying-assumptions: 3402\n"
        "witnesses-with-updating: 972\n"
        "multiple-updating-violations: 0\n"
    )


def test_sweep_require_condition1(capsys):
    assert main(
        ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--require-condition1"]
    ) == 0
    out = capsys.readouterr().out
    assert "multiple-updating-violations: 0" in out


def test_sweep_rejects_two_hypotheses(capsys):
    assert main(["sweep", "--n", "2", "--m", "2", "--denominator", "2"]) == 2
    assert "n > 2" in capsys.readouterr().err


def test_sweep_budget_exit_code(capsys):
    assert main(
        ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--max-models", "1000"]
    ) == 3
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert "models-enumerated: 729" in captured.err


def test_sweep_refuses_a_negative_budget(capsys):
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--max-models", "-5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: max_models must be a non-negative int, got -5\n"
    assert captured.out == ""


def test_sweep_reaches_grid_4_3_3(capsys):
    """335M grid models, counted from the row masks of its three sorted compositions."""
    argv = ["sweep", "--n", "4", "--m", "3", "--denominator", "3", "--max-models", "335544320"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "models-enumerated: 335544320\n"
        "models-satisfying-assumptions: 99319808\n"
        "witnesses-with-updating: 29048832\n"
        "multiple-updating-violations: 0\n"
    )


def test_sweep_budget_checked_before_enumerating_subsets(capsys):
    # The grid holds 2**128 models; the budget refuses it before any pair test.
    assert main(["sweep", "--n", "8", "--m", "16", "--denominator", "1"]) == 3
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert "models-enumerated: 0" in captured.err


def test_sweep_refuses_evidence_past_the_model_cap(capsys):
    # A budget of 10**1000 admits the 2**3000-model grid; m = 1000 is refused, not recursed.
    budget = "1" + "0" * 1000
    argv = ["sweep", "--n", "3", "--m", "1000", "--denominator", "1", "--max-models", budget]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m=1000 exceeds the evidence cap 16\n"
    assert captured.out == ""


def test_sweep_refuses_a_grid_past_the_pair_test_bound(monkeypatch, capsys):
    # The refusal comes before any pair test: calling _pairs would fail.
    monkeypatch.setattr(importlib.import_module("oddsaudit.sweep"), "_pairs", None)
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "53", "--max-models", str(10**20)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: composition (17, 17, 19) brings the pair tests to 8591460903, "
        "past the cap 8589934592\n"
        "models-enumerated: 0\n"
        "models-satisfying-assumptions: 0\n"
        "witnesses-with-updating: 0\n"
        "multiple-updating-violations: 0\n"
    )
    assert captured.out == ""


def test_sweep_budget_refuses_a_huge_grid_without_building_its_size(capsys):
    # The grid has 2**(2 * 10**18) models, a number too large to build.
    assert main(["sweep", "--n", str(10**18), "--m", "2", "--denominator", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: enumeration budget ")
    assert "models-enumerated: 0" in captured.err


@pytest.mark.parametrize("count", ["\uff13", "0_3", "\u0663"])
def test_integer_options_take_ascii_digits_only(count, capsys):
    assert main(["sweep", "--n", count, "--m", "2", "--denominator", "1"]) == 2
    assert f"invalid int value: {count!r}" in capsys.readouterr().err


def test_sweep_witness_dir(tmp_path, capsys):
    wdir = tmp_path / "witnesses"
    assert main(
        ["sweep", "--n", "3", "--m", "2", "--denominator", "1", "--witness-dir", str(wdir)]
    ) == 0
    assert len(list(wdir.iterdir())) == 192
    capsys.readouterr()


@pytest.mark.parametrize(
    "grid, code",
    [
        (["--m", "17", "--denominator", "1", "--max-models", "100000000000000000000"], 2),
        (["--m", "2", "--denominator", "2", "--max-models", "10"], 3),
    ],
)
def test_refused_sweep_leaves_no_witness_dir(grid, code, tmp_path, capsys):
    wdir = tmp_path / "witnesses"
    assert main(["sweep", "--n", "3", *grid, "--witness-dir", str(wdir)]) == code
    assert not wdir.exists()
    capsys.readouterr()


def test_budget_refused_sweep_keeps_the_witnesses_it_counted(tmp_path, capsys):
    # The budget admits two of the six compositions; their survivors are written.
    wdir = tmp_path / "witnesses"
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--max-models", "2000"]
    assert main([*argv, "--witness-dir", str(wdir)]) == 3
    err = capsys.readouterr().err
    assert "models-satisfying-assumptions: 1134\n" in err
    assert len(list(wdir.iterdir())) == 1134


def test_budget_refused_sweep_without_survivors_still_makes_the_witness_dir(tmp_path, capsys):
    # The budget admits two compositions, (0, 0, 2) and (0, 1, 1): no survivor.
    wdir = tmp_path / "witnesses"
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "2", "--require-condition1"]
    assert main([*argv, "--max-models", "1458", "--witness-dir", str(wdir)]) == 3
    assert wdir.is_dir() and not list(wdir.iterdir())
    err = capsys.readouterr().err
    assert "models-enumerated: 1458\n" in err and "models-satisfying-assumptions: 0\n" in err


def test_sweep_without_survivors_still_makes_the_witness_dir(tmp_path, capsys):
    wdir = tmp_path / "witnesses"
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "1", "--require-condition1"]
    assert main([*argv, "--witness-dir", str(wdir)]) == 0
    assert wdir.is_dir() and not list(wdir.iterdir())
    assert "models-satisfying-assumptions: 0" in capsys.readouterr().out


def test_sweep_witness_dir_must_be_usable(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = ["sweep", "--n", "3", "--m", "2", "--denominator", "1"]
    assert main([*argv, "--witness-dir", str(blocker / "witnesses")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- scenario --------------------------------------------------------------------


def test_scenario_three_values(tmp_path, capsys):
    out_path = tmp_path / "meter.model"
    assert main(
        [
            "scenario",
            "--values", "0,10,20",
            "--weights", "1/3,1/3,1/3",
            "--noise=-1:1/3,0:1/3,1:1/3",
            "--thresholds", "9,9",
            "-o", str(out_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert f"wrote {out_path}" in out
    assert "independence given each hypothesis: holds" in out
    assert "independence given each complement: violated (H1, H2, H3)" in out
    third = F(1, 3)
    expected = measurement_scenario(
        [F(0), F(10), F(20)], [third] * 3,
        {F(-1): third, F(0): third, F(1): third},
        lambda y: y <= 9, lambda z: z <= 9,
    )
    assert load(out_path) == expected


def test_scenario_single_value_rejected(tmp_path, capsys):
    assert main(
        [
            "scenario",
            "--values", "0",
            "--weights", "1",
            "--noise", "0:1",
            "--thresholds", "0,0",
            "-o", str(tmp_path / "x.model"),
        ]
    ) == 2
    assert "two distinct" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"--weights": "1/2,1/2,1/2"},  # wrong weight count / sum
        {"--noise": "0:1/2"},  # noise mass != 1
        {"--noise": "garbage"},  # bad grammar
        {"--thresholds": "9"},  # need exactly two
        {"--values": "0,0,20"},  # duplicate values
    ],
)
def test_scenario_bad_flags(override, tmp_path, capsys):
    args = {
        "--values": "0,10,20",
        "--weights": "1/3,1/3,1/3",
        "--noise": "-1:1/3,0:1/3,1:1/3",
        "--thresholds": "9,9",
        "-o": str(tmp_path / "x.model"),
    }
    args.update(override)
    argv = ["scenario"]
    for key, value in args.items():
        if key.startswith("--"):
            argv.append(f"{key}={value}")  # values may start with a dash
        else:
            argv.extend([key, value])
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "override,message",
    [
        ({"--values": " , "}, "values list is empty"),
        ({"--noise": "0:1/2,0:1/2"}, "duplicate noise offset 0"),
        ({"--noise": ","}, "noise list is empty"),
    ],
)
def test_scenario_list_errors(override, message, tmp_path, capsys):
    args = {
        "--values": "0,10,20", "--weights": "1/3,1/3,1/3", "--noise": "0:1", "--thresholds": "9,9"
    }
    args.update(override)
    argv = ["scenario", *(f"{key}={value}" for key, value in args.items())]
    assert main([*argv, "-o", str(tmp_path / "x.model")]) == 2
    assert message in capsys.readouterr().err


def test_scenario_refuses_what_it_could_not_read_back(tmp_path, capsys):
    count = MAX_HYPOTHESES + 1
    out_path = tmp_path / "big.model"
    argv = [
        "scenario",
        f"--values={','.join(map(str, range(count)))}",
        f"--weights={','.join([f'1/{count}'] * count)}",
        "--noise=0:1",
        "--thresholds=9,9",
    ]
    assert main([*argv, "-o", str(out_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: hypothesis count {count} exceeds the limit {MAX_HYPOTHESES}\n"
    )
    assert not out_path.exists()


def test_scenario_skips_empty_tokens(tmp_path, capsys):
    paths = [tmp_path / "plain.model", tmp_path / "gaps.model"]
    for path, values, noise in (
        (paths[0], "0,10,20", "-1:1/3,0:1/3,1:1/3"),
        (paths[1], ",0,,10,20,", "-1:1/3,,0:1/3,1:1/3,"),
    ):
        argv = ["scenario", f"--values={values}", "--weights=1/3,1/3,1/3", f"--noise={noise}"]
        assert main([*argv, "--thresholds=9,9", "-o", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_text() == paths[1].read_text()


# --- top level -------------------------------------------------------------------


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    capsys.readouterr()


def test_each_call_answers_as_on_the_whole_tree(glymour_file, tmp_path, monkeypatch, capsys):
    """main() parses a call led by a command with that command's parser alone;
    every call of a mixed sequence (help, usage errors before and after valid
    calls, leftover strings, options before the command, ``--``, abbreviations)
    exits and prints exactly as when the whole tree parses it, at two widths."""
    monkeypatch.chdir(tmp_path)
    Path("audit").write_text(Path(glymour_file).read_text())  # a file named like a command
    scenario = ["scenario", "--values", "0,1", "--weights", "1/2,1/2", "--noise", "0:1"]
    calls = [
        ["--help"],
        ["posterior", "--help"],
        [],
        ["nosuch"],
        ["--pairwise", "audit", glymour_file],
        ["--", "audit", glymour_file],
        ["posterior", glymour_file, "-i", "1", "--all"],
        ["sweep", "--n", "x", "--m", "2", "--denominator", "2"],
        ["audit", glymour_file],
        ["posterior", glymour_file, "--all", "--method", "odds", "--observe", "E1=1"],
        ["sweep", "--n", "3", "--m", "2", "--denominator", "2"],
        ["example", "four", "-o", str(tmp_path / "four.model")],
        scenario,
        ["posterior", glymour_file, "-i", "1", "--all"],
        [],
        [""],
        [*scenario, "--thresholds", "0,1", "-o", str(tmp_path / "scenario.model")],
        *([name, "--help"] for name in cli._COMMANDS),
        *([name] for name in cli._COMMANDS),
        ["audit", glymour_file, "extra"],
        ["audit", glymour_file, "--bogus"],
        ["sweep", "--n", "3", "--m", "2", "--denominator", "1", "extra"],
        ["posterior", glymour_file, "--all", "zzz"],
        ["audit", "--", glymour_file],
        ["audit", glymour_file, "--"],
        ["posterior", glymour_file, "--", "--all"],
        ["audit", "-h", glymour_file],
        ["sweep", "--n", "3", "-h"],
        ["audit", "--bogus", "-h"],
        ["audit", glymour_file, "--pair"],
        ["posterior", glymour_file, "--all", "--appr"],
        ["posterior", glymour_file, "-i", "1", "--meth", "odds"],
        ["posterior", glymour_file, "--observe=E1=1,E2=0", "--method=odds", "--all"],
        ["sweep", "--n=3", "--m=2", "--denominator=1", "--max-models=100"],
        ["posterior", glymour_file, "-i", "-1"],
        ["audit", "audit"],
    ]

    def run_all():
        answers = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in calls:
                code = main(argv)
                captured = capsys.readouterr()
                answers.append((code, captured.out, captured.err))
        return answers

    own = run_all()
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    for argv, answer, whole in zip(calls * 2, own, run_all(), strict=True):
        assert answer == whole, argv
    assert [code for code, _, _ in own[:15]] == [0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2]
    assert "not allowed with argument" in own[6][2] == own[13][2]
    assert "invalid int value: 'x'" in own[7][2]
    assert "unrecognized arguments: --pairwise" in own[4][2]
    assert "invalid choice: '--'" in own[5][2]
    answers = dict(zip(map(tuple, calls), own))
    assert [answers[name, "--help"][0] for name in cli._COMMANDS] == [0] * 5
    assert [answers[(name,)][0] for name in cli._COMMANDS] == [2] * 5
    assert answers["audit", "audit"][0] == answers["audit", glymour_file, "--"][0] == 0
    assert answers["audit", "--bogus", "-h"][0] == 0
    assert answers["audit", glymour_file, "extra"][2].startswith("usage: oddsaudit [-h]")
    assert "unrecognized arguments: zzz" in answers["posterior", glymour_file, "--all", "zzz"][2]


def test_a_call_led_by_a_command_builds_only_its_parser(glymour_file, monkeypatch, capsys):
    """One parser for a call its command's parser reads whole; the tree's six
    (itself and five commands) for one it does not, after that one parser when
    strings are left over."""
    spy = mock.Mock(wraps=argparse.ArgumentParser.__init__)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **kw: spy(*a, **kw))
    cases = [
        (["audit", glymour_file, "--pair"], 1),
        (["posterior", glymour_file, "--appr", "--observe=E1=1", "--all"], 1),
        (["example", "four"], 1),
        (["sweep", "--n", "3", "--m", "2", "--denominator", "1"], 1),
        (["scenario", "--values", "0"], 1),
        (["--help"], 6),
        ([], 6),
        (["nosuch"], 6),
        (["audit", glymour_file, "extra"], 1 + 6),
    ]
    for argv, parsers in cases:
        spy.reset_mock()
        main(argv)
        assert spy.call_count == parsers, argv
    capsys.readouterr()


def test_a_fresh_process_answers_as_main(glymour_file, monkeypatch, capsys):
    """``python -m oddsaudit.cli`` reads ``sys.argv`` and exits with main's code."""
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["audit", glymour_file], ["audit", glymour_file, "--bogus"], ["--help"]):
        done = subprocess.run(
            [sys.executable, "-m", "oddsaudit.cli", *argv], env=env, capture_output=True, text=True
        )
        code = main(argv)
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
