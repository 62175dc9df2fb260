"""The oddsaudit benchmark: the public CLI, driven in-process, on seeded inputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit|posterior|sweep \\
        --seed N --seconds S --trace 0|1

One client in one process calls ``oddsaudit.cli.main(argv)`` in a closed
loop: each invocation starts when the previous one returns.  The loop repeats
the workload's fixed cycle of invocations (see ``corpus.py``), each time on
new inputs of the same shape, and always finishes the cycle it is in, so
every run measures whole cycles.  Every invocation's exit code and output are
checked against values the generator derived on its own.

An *op* is one CLI invocation for ``audit`` and ``posterior`` and one
enumerated spec for ``sweep``.  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics:

* ``setup_s``: median time of a fresh interpreter running
  ``python -m oddsaudit.cli example glymour``, over starts spread across the
  run (between cycles);
* ``ops_per_s``: ops per second spent inside the CLI calls;
* ``p50_ms`` and ``p90_ms``: median and nearest-rank 90th percentile of one
  invocation's latency.

Every time is given *at reference speed*.  On a machine shared with other
tenants the speed of a core changes from one fraction of a second to the
next, by up to 1.9x, and its average over a minute drifts too.  So the
benchmark also times fixed work that shares no code with oddsaudit, a
*reference* of the same kind as the workload's (:data:`REFERENCES`): for
``audit`` and ``posterior`` pure-Python ``Fraction`` sums like the program's
model queries, timed once, for ``sweep`` an int64 numpy kernel like the
sweep's own, timed four times (about 0.3 s).  The reference is timed before
every invocation and after the last; each invocation's wall time is scaled
by the reference's nominal time over the mean of the reference timings just
before and just after it, and each position of the cycle is taken at its
median across the cycles of the run.  The figures read as on a machine where
the reference takes its nominal time.  A program that does more or less work
moves them exactly as it moves the wall time, since the reference does not
change.

``setup_s`` is scaled the same way with a reference of its own kind: a fresh
interpreter may run on another core than the benchmark, so each start is
scaled by ``BARE_START_S`` over the mean time of a bare interpreter start
(``python -c pass``) just before and just after it, and ``setup_s`` is the
median of the scaled starts.

A run makes at least three cycles.  Because each cycle has inputs of its
own, a cache kept across calls cannot make a later repetition cheaper than a
user's first call (for ``sweep`` the grids are fixed, so only the argv
differs; see ``corpus.sweep_workload``).  The percentiles are over the
cycle's positions: 41 for ``audit``, 40 for ``posterior``, two long ones for
``sweep``.  The measured wall times go to the summary on stderr.

With ``--trace 1`` the run alternates untraced cycles with the same cycles
run with every layer wrapped (``tracing.py``) on the same inputs, checks that
the traced outputs are byte-identical, and reports per-layer self times and
counters.  Self times are measured wall times, not scaled.  The per-m audit
latencies, the per-grid sweep rates and the tracing overhead come from the
typical latencies of the end-to-end metrics; the overhead compares the two
passes and can read below 0 where it is smaller than the machine's noise.
Every per-layer metric is printed on every workload: a layer that does no
work on a workload reads 0 calls and 0 ms there, and so do the rates and
ratios built on it.  Spans are written to
``.perfbench_work/<workload>/spans.tsv``.  A human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_STARTS = 15
#: Every position of the cycle is timed at least this often.
MIN_CYCLES = 3
#: Seconds a bare interpreter start (``python -c pass``) takes at reference
#: speed.
BARE_START_S = 0.05

_ATOMS = corpus.product_atoms(*corpus.clean_spec(random.Random("reference"), 4, 7))
_EVENTS = ({1: True, 3: False}, {2: True, 5: True, 7: False}, {4: False})
_ROWS = 1 << 18


def fraction_work() -> None:
    """The exact posteriors of a fixed n=4, m=7 product model under three
    events, summed with ``fractions.Fraction``."""
    for event in _EVENTS:
        corpus.exact_posteriors(4, 7, _ATOMS, event)


def array_work() -> None:
    """One block of an int64 kernel over 2**18 rows of 8 base-5 digits: the
    digits of the row index, a product of two column groups, matrix-vector
    products and an equality test per column."""
    index = np.arange(_ROWS, dtype=np.int64)
    digits = np.empty((_ROWS, 8), dtype=np.int64)
    for position in range(8):
        digits[:, position] = (index // 5 ** (7 - position)) % 5
    digits = digits.reshape(_ROWS, 2, 4)
    weights = np.array([1, 2, 3, 4], dtype=np.int64)
    sums = digits @ weights
    product = digits[:, 0, :] * digits[:, 1, :]
    total = product @ weights
    ok = np.ones(_ROWS, dtype=bool)
    for i in range(4):
        ok &= (total - product[:, i]) * 3 == (sums[:, 0] - digits[:, 0, i]) * (sums[:, 1] - digits[:, 1, i])
    np.count_nonzero(ok)


class Reference:
    """Fixed work that shares no code with oddsaudit.  A call times it
    ``repeat`` times and returns the mean; ``nominal`` is its time at
    reference speed.  Keeps every timing."""

    def __init__(self, work, repeat: int, nominal: float) -> None:
        self.work = work
        self.repeat = repeat
        self.nominal = nominal
        self.times: list[float] = []

    def __call__(self) -> float:
        timings = []
        for _ in range(self.repeat):
            start = time.perf_counter()
            self.work()
            timings.append(time.perf_counter() - start)
        self.times += timings
        return statistics.fmean(timings)


#: Workload -> (work, repeat, nominal seconds) of its reference.
REFERENCES = {
    "audit": (fraction_work, 1, 0.002),
    "posterior": (fraction_work, 1, 0.002),
    "sweep": (array_work, 4, 0.07),
}


@dataclass
class Record:
    op: corpus.Op
    latency: float
    code: object
    stdout: str
    stderr: str
    ok: bool
    #: Mean of the reference timings just before and just after the call.
    reference: float


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def invoke(cli_main, argv) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(list(argv))
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return latency, code, out.getvalue(), err.getvalue()


def output_ok(op: corpus.Op, code, stdout: str) -> bool:
    if code != op.code:
        return False
    if op.stdout is not None and stdout != op.stdout:
        return False
    lines = set(stdout.splitlines())
    if any(line not in lines for line in op.contains):
        return False
    if op.output_file is not None:
        path = Path(op.output_file)
        return path.is_file() and path.read_text(encoding="utf-8") == op.output_text
    return True


class Runner:
    """Makes, writes and runs the cycles of one workload, checking every
    invocation.  Input files go under the current directory."""

    def __init__(self, make, cli_main, seed: int, reference):
        self.make = make
        self.cli_main = cli_main
        self.seed = seed
        self.reference = reference

    def prepare(self, index: int) -> list[corpus.Op]:
        """The invocations of cycle ``index``, with their input files written."""
        workload = self.make(self.seed, index)
        corpus.write_files(workload, Path.cwd())
        return workload.cycle

    def run_cycle(self, ops: list[corpus.Op], tracer=None) -> list[Record]:
        records = []
        before = self.reference()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            latency, code, out, err = invoke(self.cli_main, op.argv)
            after = self.reference()
            records.append(Record(op, latency, code, out, err, output_ok(op, code, out), (before + after) / 2))
            before = after
        return records


class Setup:
    """Fresh-interpreter starts of ``example glymour``, timed and checked.
    ``wall`` holds the measured times, ``times`` the same at reference speed,
    each scaled by a bare interpreter start timed just before and after it."""

    def __init__(self, expected: str):
        self.expected = expected
        self.wall: list[float] = []
        self.times: list[float] = []
        self.problems: list[str] = []

    @staticmethod
    def start(*argv):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        return time.perf_counter() - start, done

    def start_until(self, count: int) -> None:
        while len(self.times) < count:
            before, _ = self.start("-c", "pass")
            elapsed, done = self.start("-m", "oddsaudit.cli", "example", "glymour")
            after, _ = self.start("-c", "pass")
            self.wall.append(elapsed)
            self.times.append(elapsed * BARE_START_S * 2 / (before + after))
            if done.returncode != 0 or done.stdout != self.expected:
                self.problems.append(f"example glymour: exit {done.returncode}: {done.stderr.strip()}")


def typical(cycles: list[list[Record]], nominal: float) -> list[tuple[int, float]]:
    """(weight, typical latency) of each position of the cycle: the median
    across cycles of each call at reference speed, for a reference whose
    time there is ``nominal``."""
    return [
        (ops[0].op.weight, statistics.median(r.latency * nominal / r.reference for r in ops))
        for ops in zip(*cycles)
    ]


def end_to_end(ops: list[tuple[int, float]], setup_s: float) -> dict:
    latencies = [latency for _, latency in ops]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": sum(weight for weight, _ in ops) / sum(latencies), "unit": "1/s"},
        "p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
        "p90_ms": {"value": percentile(latencies, 90) * 1000, "unit": "ms"},
    }


def per_layer(spans, untraced: list[list[Record]], traced: list[list[Record]], nominal: float) -> dict:
    """Per-layer metrics from the spans of the traced passes; ``untraced`` and
    ``traced`` are the cycles of each pass, ``nominal`` as for :func:`typical`."""
    names = tracing.by_name(spans)

    def calls(*wanted):
        return sum(names.get(name, (0, 0.0))[0] for name in wanted)

    def self_ms(*wanted):
        return sum(names.get(name, (0, 0.0))[1] for name in wanted) * 1000

    queries = [f"model.Model.{q}" for q in ("prior", "cond", "event_prob", "joint_prob", "posterior", "atom")]
    given_h = "audit.check_independence[given-H]"
    given_not_h = "audit.check_independence[given-not-H]"

    subsets = violations = loaded = 0
    enumerated = survivors = subset_checks = 0
    for span in spans:
        note = span[tracing.NOTE]
        if span[tracing.NAME] in (given_h, given_not_h):
            model, i, side, pairwise, found = note
            prior = model.prior(i)
            if prior != (0 if side.value == "given-H" else 1):
                subsets += model.m * (model.m - 1) // 2 if pairwise else 2**model.m - model.m - 1
            violations += found
        elif span[tracing.NAME] == "modelfile.loads":
            loaded += note
        elif span[tracing.NAME] == "sweep.sweep":
            config, result = note
            enumerated += result.models_enumerated
            survivors += result.models_satisfying_all
            subset_checks += result.models_enumerated * (2**config.m - config.m - 1)

    layer_ms = dict.fromkeys(sorted(set(tracing.LAYERS.values())), 0.0)
    for name, (_, seconds) in names.items():
        layer_ms[tracing.layer_of(name)] += seconds * 1000
    traced_ms = sum(r.latency for cycle in traced for r in cycle) * 1000
    # Like the end-to-end metrics, the overhead compares typical latencies,
    # which a change in the machine's speed moves less than single calls.
    best = typical(untraced, nominal)
    overhead = sum(t for _, t in typical(traced, nominal)) / sum(t for _, t in best)
    group_s: dict[str, list[float]] = {}
    for record, (_, latency) in zip(untraced[0], best):
        group_s.setdefault(record.op.group, []).append(latency)

    def group_median(group):
        return statistics.median(group_s[group]) if group in group_s else 0.0

    kernel_ms = self_ms("sweep.sweep")
    parse_ms = self_ms("modelfile.loads")

    metrics = {f"{layer}.self_ms": (value, "ms") for layer, value in layer_ms.items()}
    metrics.update({
        "model.query.calls": (calls(*queries), "count"),
        "model.query.self_ms": (self_ms(*queries), "ms"),
        "model.init.calls": (calls("model.Model.__post_init__"), "count"),
        "model.init.self_ms": (self_ms("model.Model.__post_init__"), "ms"),
        "audit.check_independence.calls": (calls(given_h, given_not_h), "count"),
        "audit.given_h.self_ms": (self_ms(given_h), "ms"),
        "audit.given_not_h.self_ms": (self_ms(given_not_h), "ms"),
        "audit.subsets_checked": (subsets, "count"),
        "audit.violations": (violations, "count"),
        "audit.relevant_evidence.self_ms": (self_ms("audit.relevant_evidence"), "ms"),
        "audit.check_assumptions.self_ms": (self_ms("audit.check_assumptions"), "ms"),
        "audit.render_report.self_ms": (self_ms("audit.render_report"), "ms"),
        "updating.odds_posterior.calls": (calls("updating.odds_posterior"), "count"),
        "updating.odds_posterior.self_ms": (self_ms("updating.odds_posterior"), "ms"),
        "updating.likelihood_pair.calls": (calls("updating.likelihood_pair"), "count"),
        "modelfile.loads.calls": (calls("modelfile.loads"), "count"),
        "modelfile.loads.self_ms": (self_ms("modelfile.loads"), "ms"),
        "modelfile.loads.kb_per_s": (loaded / parse_ms if parse_ms else 0.0, "kB/s"),
        "modelfile.dumps.self_ms": (self_ms("modelfile.dumps"), "ms"),
        "modelfile.write.self_ms": (self_ms("modelfile.dump"), "ms"),
        "construct.spec.self_ms": (self_ms("construct.ConditionalSpec.__post_init__"), "ms"),
        "construct.from_conditionals.self_ms": (self_ms("construct.from_conditionals"), "ms"),
        "construct.measurement_scenario.self_ms": (self_ms("construct.measurement_scenario"), "ms"),
        "sweep.kernel.self_ms": (kernel_ms, "ms"),
        "sweep.kernel.specs_per_s": (enumerated / kernel_ms * 1000 if kernel_ms else 0.0, "1/s"),
        "sweep.specs_enumerated": (enumerated, "count"),
        "sweep.survivors": (survivors, "count"),
        "sweep.survivor_ratio": (survivors / enumerated if enumerated else 0.0, "ratio"),
        "sweep.subset_checks": (subset_checks, "count"),
        "sweep.spec_from_grid.self_ms": (self_ms("sweep.spec_from_grid"), "ms"),
        "trace.spans": (len(spans), "count"),
        "trace.ops_wall_ms": (traced_ms, "ms"),
        "trace.self_sum_ms": (sum(layer_ms.values()), "ms"),
        "trace.overhead_pct": ((overhead - 1) * 100, "%"),
    })
    # Untraced typical latency of one full audit of a dense n=3
    # model, per m, and throughput of each sweep grid: the rows of the ROADMAP
    # baseline table.
    for m in range(3, 8):
        metrics[f"audit.full_ms.m{m}"] = (group_median(f"audit.full.n3.m{m}") * 1000, "ms")
    metrics["audit.pairwise_ms.m8"] = (group_median("audit.pairwise.n3.m8") * 1000, "ms")
    for grid, counts in corpus.SWEEP_GRIDS.items():
        group = "sweep.grid_{}_{}_{}".format(*grid)
        latency = group_median(group)
        metrics[f"{group}.specs_per_s"] = (counts[0] / latency if latency else 0.0, "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def summary(records: list[Record]) -> str:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.op.group, []).append(r.latency * 1000)
    return "\n".join(
        f"  {group}: n={len(values)} median={statistics.median(values):.1f} ms"
        for group, values in sorted(groups.items())
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oddsaudit" / "cli.py").is_file():
        print(f"error: no oddsaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oddsaudit.cli

    if not Path(oddsaudit.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported oddsaudit from {oddsaudit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reference = Reference(*REFERENCES[args.workload])
    for _ in range(3):
        reference()  # warm up
    setup = Setup(corpus.example_text("glymour"))
    setup.start_until(1)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)

    # Looked up per call, so the traced pass reaches the wrapped ``main``.
    runner = Runner(corpus.WORKLOADS[args.workload], lambda argv: oddsaudit.cli.main(argv), args.seed, reference)
    invoke(runner.cli_main, ["example", "glymour"])  # warm the argparse path

    cycles: list[list[Record]] = []
    problems: list[str] = []
    start = time.perf_counter()
    if not args.trace:
        while len(cycles) < MIN_CYCLES or time.perf_counter() - start < args.seconds:
            cycles.append(runner.run_cycle(runner.prepare(len(cycles))))
            share = min(1.0, (time.perf_counter() - start) / args.seconds)
            setup.start_until(math.ceil(SETUP_STARTS * share))
        setup.start_until(SETUP_STARTS)
        metrics = end_to_end(typical(cycles, reference.nominal), statistics.median(setup.times))
        records = all_records = [r for cycle in cycles for r in cycle]
    else:
        # Untraced and traced passes over each cycle's inputs alternate, so a
        # drift in machine speed moves both sides of the overhead estimate alike.
        tracer = tracing.Tracer()
        traced_cycles: list[list[Record]] = []
        while len(cycles) < MIN_CYCLES or time.perf_counter() - start < args.seconds:
            ops = runner.prepare(len(cycles))
            cycles.append(runner.run_cycle(ops))
            with tracer:
                traced_cycles.append(runner.run_cycle(ops, tracer))
        untraced = [r for cycle in cycles for r in cycle]
        traced = [r for cycle in traced_cycles for r in cycle]
        for u, t in zip(untraced, traced):
            if (u.code, u.stdout, u.stderr) != (t.code, t.stdout, t.stderr):
                t.ok = False
                problems.append(f"traced output differs: {' '.join(t.op.argv)}")
        tracing.write_spans(tracer.spans, workdir / "spans.tsv")
        metrics = per_layer(tracer.spans, cycles, traced_cycles, reference.nominal)
        attributed = metrics["trace.self_sum_ms"]["value"] / metrics["trace.ops_wall_ms"]["value"]
        if not 0.99 <= attributed <= 1:
            problems.append(f"layer self times cover {attributed:.2%} of the traced op time")
        all_records = untraced + traced
        records = untraced

    problems += setup.problems
    for r in all_records:
        if not r.ok:
            problems.append(f"wrong result: {' '.join(r.op.argv)} -> exit {r.code}\n{r.stdout}{r.stderr}")
    attempted = sum(r.op.weight for r in all_records)
    failed = sum(r.op.weight for r in all_records if not r.ok)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(all_records)} invocations in {len(cycles)} cycle(s), "
        f"failed_ratio={failed / attempted}\n"
        f"reference: n={len(reference.times)} fastest={min(reference.times) * 1000:.3f} ms "
        f"median={statistics.median(reference.times) * 1000:.3f} ms\n"
        f"setup: n={len(setup.wall)} measured min={min(setup.wall):.3f} s median={statistics.median(setup.wall):.3f} s "
        f"max={max(setup.wall):.3f} s\n"
        f"measured wall times:\n{summary(records)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
