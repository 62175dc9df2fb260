"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import corpus
import run
import tracing

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from oddsaudit import cli, model  # noqa: E402


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus_bytes(name):
    make = corpus.WORKLOADS[name]
    assert corpus.corpus_bytes(make(7, 2)) == corpus.corpus_bytes(make(7, 2))
    seeded = name in ("audit", "posterior")
    assert (corpus.corpus_bytes(make(7, 2)) != corpus.corpus_bytes(make(8, 2))) == seeded
    assert corpus.corpus_bytes(make(7, 2)) != corpus.corpus_bytes(make(7, 3))


def test_cycle_shape_does_not_depend_on_seed_or_index():
    for make in corpus.WORKLOADS.values():
        shapes = {
            tuple((op.group, op.argv[0], op.weight) for op in make(seed, index).cycle)
            for seed in (1, 2) for index in (0, 1)
        }
        assert len(shapes) == 1


@pytest.mark.parametrize("name", ["audit", "posterior"])
def test_every_cycle_has_inputs_of_its_own(name):
    first, second = (corpus.WORKLOADS[name](7, index) for index in (0, 1))
    assert not set(first.files.values()) & set(second.files.values()) - {
        corpus.example_text(table) for table in corpus.BUNDLED_TABLES
    }


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([5, 1, 3], 50) == 3
    assert run.percentile(list(range(1, 11)), 90) == 9
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children():
    #        name     start end  parent op note
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["audit.x", 1.0, 4.0, 0, 0, None],
        ["model.Model.prior", 2.0, 3.0, 1, 0, None],
        ["model.Model.prior", 5.0, 9.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.by_name(spans) == {
        "cli.main": (1, 3.0),
        "audit.x": (1, 2.0),
        "model.Model.prior": (2, 5.0),
    }
    assert sum(tracing.self_times(spans)) == spans[0][2] - spans[0][1]


def _cli(argv):
    _, code, out, err = run.invoke(cli.main, argv)
    return code, out, err


def test_wrappers_are_transparent(tmp_path):
    glymour = tmp_path / "g.model"
    glymour.write_text(corpus.example_text("glymour"), encoding="utf-8")
    commands = [
        ["audit", str(glymour)],
        ["audit", str(glymour), "--pairwise"],
        ["posterior", str(glymour), "--observe", "E1=1", "--method", "odds", "--all"],
        ["posterior", str(glymour), "--observe", "E9=1", "--method", "exact", "--all"],
        ["sweep", "--n", "3", "--m", "2", "--denominator", "2"],
    ]
    originals = (cli.main, cli.check_assumptions, model.Model.prior, model.Model.__post_init__)
    plain = [_cli(argv) for argv in commands]
    with tracing.Tracer() as tracer:
        assert cli.main is not originals[0]
        assert cli.main.__name__ == "main" and cli.main.__wrapped__ is originals[0]
        traced = [_cli(argv) for argv in commands]
    assert traced == plain
    assert (cli.main, cli.check_assumptions, model.Model.prior, model.Model.__post_init__) == originals

    names = {span[tracing.NAME] for span in tracer.spans}
    for expected in (
        "cli.main", "modelfile.loads", "model.Model.__post_init__",
        "model.Model.cond", "audit.check_assumptions", "audit.check_independence[given-not-H]",
        "updating.odds_posterior", "sweep.sweep", "construct.ConditionalSpec.__post_init__",
    ):
        assert expected in names
    assert not names & tracing.UNTRACED
    roots = [span for span in tracer.spans if span[tracing.PARENT] == -1]
    assert [span[tracing.NAME] for span in roots] == ["cli.main"] * len(commands)
    for span in tracer.spans:
        parent = span[tracing.PARENT]
        if parent >= 0:
            outer = tracer.spans[parent]
            assert outer[tracing.START] <= span[tracing.START] <= span[tracing.END] <= outer[tracing.END]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        sum(span[tracing.END] - span[tracing.START] for span in roots)
    )


def test_expected_outputs_match_the_program(tmp_path, monkeypatch):
    """The generator's independent expectations hold on the cheap part of
    each seeded corpus."""
    monkeypatch.chdir(tmp_path)
    for make in (corpus.audit_workload, corpus.posterior_workload):
        workload = make(3)
        corpus.write_files(workload, tmp_path)
        cheap = [op for op in workload.cycle if "m6" not in op.group and "m7" not in op.group
                 and "m8" not in op.group and "dense" not in op.group]
        assert len(cheap) > 20
        for op in cheap:
            code, out, err = _cli(op.argv)
            assert run.output_ok(op, code, out), (op.argv, code, out, err)


def test_a_cache_across_calls_does_not_change_the_figures(tmp_path, monkeypatch):
    """A CLI that remembers the inputs it has seen and answers them at once
    must get no cheaper in the benchmark's figures than a fresh process."""
    monkeypatch.chdir(tmp_path)
    miss_s = 0.002
    seen = set()

    def caching_cli(argv):
        path = Path(argv[1])
        key = path.read_text(encoding="utf-8") if path.is_file() else tuple(argv)
        if key not in seen:
            seen.add(key)
            time.sleep(miss_s)
        return 0

    runner = run.Runner(corpus.audit_workload, caching_cli, 7, lambda: 1.0)
    fresh = [runner.run_cycle(runner.prepare(index)) for index in range(3)]
    # The bundled tables are the same in every cycle, so they hit from the
    # second cycle on; every other position of the cycle must still miss.
    tables = {k for k, op in enumerate(fresh[0]) if op.op.group == "audit.table"}
    typical = run.typical(fresh, 1.0)
    assert min(latency for k, (_, latency) in enumerate(typical) if k not in tables) >= miss_s
    # Repeating one cycle's inputs, as a benchmark without fresh inputs would,
    # lets the cache through.
    same = [runner.run_cycle(runner.prepare(0)) for _ in range(3)]
    assert max(latency for _, latency in run.typical(same, 1.0)) < miss_s


def test_each_call_is_scaled_by_the_reference_timed_around_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    timings = iter([1.0, 3.0, 2.0, 4.0] * 100)
    runner = run.Runner(corpus.sweep_workload, lambda argv: 0, 7, lambda: next(timings))
    cycle = runner.run_cycle(runner.prepare(0))
    assert [r.reference for r in cycle] == [2.0, 2.5]


def test_typical_latency():
    def record(latency, reference):
        return run.Record(corpus.Op(("x",), 0, "g", weight=5), latency, 0, "", "", True, reference)

    ref = 0.002
    # The same call three times: once at reference speed, once twice as
    # slow with the reference twice as slow too, once slowed by a burst the
    # reference did not see.
    cycles = [[record(0.010, ref)], [record(0.020, 2 * ref)], [record(0.050, ref)]]
    assert run.typical(cycles, ref) == [(5, pytest.approx(0.010))]
    assert run.typical(cycles, ref / 2) == [(5, pytest.approx(0.005))]


def test_reference_times_its_work_and_returns_the_mean():
    calls = []
    reference = run.Reference(lambda: calls.append(1), 4, 0.5)
    assert reference() == pytest.approx(statistics.fmean(reference.times))
    assert len(calls) == len(reference.times) == 4
    for name in ("fraction_work", "array_work"):
        getattr(run, name)()


def test_setup_start_is_scaled_by_bare_starts(monkeypatch):
    cli_start = subprocess.CompletedProcess([], 0, stdout="expected", stderr="")
    starts = iter([(0.1, None), (0.3, cli_start), (0.2, None)])
    monkeypatch.setattr(run.Setup, "start", staticmethod(lambda *argv: next(starts)))
    setup = run.Setup("expected")
    setup.start_until(1)
    assert setup.wall == [0.3]
    assert setup.times == [pytest.approx(0.3 * run.BARE_START_S / 0.15)]
    assert not setup.problems
