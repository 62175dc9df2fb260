"""Seeded benchmark inputs, with expected outputs derived independently.

Nothing here imports ``oddsaudit``: model files are written in the documented
text format by this module, and every expected exit code and output line is
computed here with ``fractions.Fraction`` from the generator's own spec or
atom list.  The seed changes only the ``audit`` and ``posterior`` corpora; the
``sweep`` grids are fixed because their counts are known.

Each workload is a *cycle*: a fixed list of CLI invocations that the benchmark
runs in order, again and again.  Every repetition gets inputs of its own, made
from the seed and the cycle's index and written under ``c<index>/``, so a
cache kept across calls never sees the same generated model twice (the three
bundled tables are the same in every cycle).  The shape of a cycle
(how many files, of which n, m and atom count, with how many observed
literals) is the same for every seed and index; they pick only the numbers,
so every cycle of every run does comparable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PRIOR_DENOMINATOR = 12
COND_DENOMINATOR = 5

#: (n, m, kinds) of the dense product models audited in full in the ``audit``
#: cycle, one model per letter of ``kinds``: ``c`` clean, ``d`` dependent.
#: With the other invocations the cycle has 41 and costs about 3 s, so a run
#: repeats it several times.  The counts put its median among the six (4, 4)
#: audits and its 90th percentile among the four (5, 6) audits, so neither
#: percentile sits on a step between two costs.
AUDIT_FULL_CELLS = (
    (3, 3, "cd"), (4, 3, "cd"), (5, 3, "cd"),
    (3, 4, "cd"), (4, 4, "cdcdcd"), (5, 4, "cd"),
    (3, 5, "cd"), (4, 5, "cd"), (5, 5, "cd"),
    (3, 6, "cd"), (5, 6, "cdcd"),
    (3, 7, "c"),
)
#: (n, m, kinds) of the dense models audited with ``--pairwise``.
AUDIT_PAIRWISE_CELLS = ((3, 8, "d"),)
#: Hypothesis counts of the measurement scenarios (two propositions each).
SCENARIO_SIZES = (3, 4, 4, 5)

#: (n, m, clean, literal counts) of dense product models in ``posterior``.
POSTERIOR_DENSE = (
    (3, 8, True, (2, 4)),
    (4, 8, False, (2, 4)),
    (4, 9, False, (1, 3)),
    (3, 10, True, (2, 4)),
)
#: (n, m, atoms, literal counts) of sparse random tables in ``posterior``.
POSTERIOR_SPARSE = (
    (3, 12, 200, (2, 5)),
    (4, 13, 250, (3, 6)),
    (5, 14, 300, (2, 4)),
    (3, 15, 350, (4, 7)),
    (4, 16, 400, (3, 5)),
    (5, 16, 300, (2, 6)),
)

#: Known counts of the fixed sweep grids, in ``sweep`` output order:
#: enumerated, satisfying, with updating, multiple-updating violations.
SWEEP_GRIDS = {
    (3, 3, 3): (2621440, 1035136, 224064, 0),
    (4, 2, 4): (13671875, 4467859, 2616584, 0),
}

#: The three tables the package bundles, as the paper prints them: bitstring
#: (E1 E2) -> probability of each hypothesis cell.
_F = Fraction
BUNDLED_TABLES = {
    "glymour": (3, {
        "11": (_F(1, 6), 0, 0),
        "10": (0, _F(1, 6), _F(1, 6)),
        "01": (_F(1, 6), 0, 0),
        "00": (0, _F(1, 6), _F(1, 6)),
    }),
    "modified": (3, {
        "11": (_F(1, 12), _F(1, 18), _F(1, 36)),
        "10": (_F(1, 12), _F(1, 9), _F(5, 36)),
        "01": (_F(1, 12), _F(1, 18), _F(1, 36)),
        "00": (_F(1, 12), _F(1, 9), _F(5, 36)),
    }),
    "four": (4, {
        "11": (_F(1, 24), _F(1, 12), _F(1, 24), _F(1, 12)),
        "10": (_F(1, 24), _F(1, 12), _F(1, 12), _F(1, 24)),
        "01": (_F(1, 12), _F(1, 24), _F(1, 24), _F(1, 12)),
        "00": (_F(1, 12), _F(1, 24), _F(1, 12), _F(1, 24)),
    }),
}

# Atoms are {(i, bits): probability}; ``bits`` is an int whose most significant
# of m bits is E1, so sorting by it matches the file format's canonical order.


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must produce.

    ``weight`` is how many benchmark ops the invocation counts as: 1 for an
    audit or posterior call, the grid size for a sweep.  ``stdout`` is the exact expected text when known; otherwise
    every line of ``contains`` must appear in it.  ``output_file`` and
    ``output_text`` name a file the invocation must write, byte for byte.
    """

    argv: tuple[str, ...]
    code: int
    group: str
    weight: int = 1
    stdout: str | None = None
    contains: tuple[str, ...] = ()
    output_file: str | None = None
    output_text: str | None = None


@dataclass
class Workload:
    cycle: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text


def bit(bits: int, m: int, j: int) -> bool:
    """Truth value of E_j (1-based) in an m-bit atom key."""
    return bool((bits >> (m - j)) & 1)


def model_text(n: int, m: int, atoms: dict) -> str:
    lines = [f"hypotheses {n}", f"evidence {m}"]
    for (i, bits), value in sorted(atoms.items()):
        if value:
            lines.append(f"atom {i} {bits:0{m}b} {value}")
    return "\n".join(lines) + "\n"


def product_atoms(priors, cond) -> dict:
    """atom(i, s) = P(H_i) * prod_j P(E_j^{s_j} | H_i); ``cond[j-1][i-1]``."""
    atoms = {}
    for i, prior in enumerate(priors, 1):
        values = [prior]  # indexed by the bits of E1..Ej, E1 the most significant
        for row in cond:
            c = row[i - 1]
            values = [value * factor for value in values for factor in (1 - c, c)]
        for bits, value in enumerate(values):
            if value:
                atoms[(i, bits)] = value
    return atoms


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform random composition of ``total`` into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _priors(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p, PRIOR_DENOMINATOR) for p in _composition(rng, PRIOR_DENOMINATOR, n))


def _varying_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        row = tuple(Fraction(rng.randint(1, COND_DENOMINATOR - 1), COND_DENOMINATOR) for _ in range(n))
        if len(set(row)) > 1:
            return row


def _constant_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return (Fraction(rng.randint(1, COND_DENOMINATOR - 1), COND_DENOMINATOR),) * n


def clean_spec(rng: random.Random, n: int, m: int):
    """Only E1 varies across hypotheses; every other proposition is independent
    of everything, so both sides factorize and only E1 can update."""
    return _priors(rng, n), (_varying_row(rng, n),) + tuple(_constant_row(rng, n) for _ in range(m - 1))


def complement_pair(priors, cond, i: int):
    """P(E1 E2 | not-H_i) and P(E1 | not-H_i) * P(E2 | not-H_i) for a product spec."""
    rest = [k for k in range(len(priors)) if k != i - 1]
    mass = 1 - priors[i - 1]
    joint = sum(priors[k] * cond[0][k] * cond[1][k] for k in rest) / mass
    e1 = sum(priors[k] * cond[0][k] for k in rest) / mass
    e2 = sum(priors[k] * cond[1][k] for k in rest) / mass
    return joint, e1 * e2


def dependent_spec(rng: random.Random, n: int, m: int):
    """E1 and E2 vary across hypotheses and fail to factorize given some
    complement; returns the spec and the first such hypothesis."""
    while True:
        priors = _priors(rng, n)
        cond = (_varying_row(rng, n), _varying_row(rng, n)) + tuple(
            _varying_row(rng, n) if j % 2 else _constant_row(rng, n) for j in range(m - 2)
        )
        for i in range(1, n + 1):
            joint, product = complement_pair(priors, cond, i)
            if joint != product:
                return priors, cond, i


def relevance_lines(priors, cond) -> tuple[str, ...]:
    """``audit`` relevance lines for a clean spec: only E1 can move a posterior."""
    p_e1 = sum(p * c for p, c in zip(priors, cond[0]))
    return tuple(
        f"  H{i}: {'E1' if cond[0][i - 1] != p_e1 else 'none'}" for i in range(1, len(priors) + 1)
    )


def two_evidence_verdict(n: int, atoms: dict) -> tuple[int, list[int], list[int]]:
    """Exit code of ``audit`` on an m=2 table, and the hypotheses whose cell and
    whose complement break independence, from the atoms alone."""

    def prob(cells, want1=None, want2=None):
        return sum(
            (v for (i, bits), v in atoms.items()
             if i in cells
             and (want1 is None or bit(bits, 2, 1) == want1)
             and (want2 is None or bit(bits, 2, 2) == want2)),
            Fraction(0),
        )

    def factorizes(cells) -> bool:
        mass = prob(cells)
        if mass == 0:
            return True
        return prob(cells, True, True) * mass == prob(cells, True) * prob(cells, None, True)

    everyone = set(range(1, n + 1))
    violated_h = sorted(i for i in everyone if not factorizes({i}))
    violated_not_h = sorted(i for i in everyone if not factorizes(everyone - {i}))
    multiple = False
    for i in everyone:
        prior = prob({i})
        if prior in (0, 1):
            continue
        updaters = [
            want for want in ((True, None), (None, True))
            if prob({i}, *want) != prob(everyone, *want) * prior
        ]
        multiple |= len(updaters) >= 2
    clean = not violated_h and not violated_not_h and not (n > 2 and multiple)
    return (0 if clean else 1), violated_h, violated_not_h


def table_atoms(n: int, rows: dict) -> dict:
    return {
        (i, int(bits, 2)): Fraction(value)
        for bits, values in rows.items()
        for i, value in enumerate(values, 1)
        if value
    }


def example_text(name: str) -> str:
    """Canonical text of a bundled table, as ``oddsaudit example`` prints it."""
    n, rows = BUNDLED_TABLES[name]
    return model_text(n, 2, table_atoms(n, rows))


# -- audit ---------------------------------------------------------------


def _audit_dense(rng, workload, prefix, n, m, kinds, pairwise):
    mode = "pairwise" if pairwise else "full"
    group = f"audit.{mode}.n{n}.m{m}"
    extra = ("--pairwise",) if pairwise else ()
    for copy, kind in enumerate(kinds):
        path = f"{prefix}audit/{mode}_n{n}_m{m}_{copy}_{kind}.model"
        if kind == "c":
            priors, cond = clean_spec(rng, n, m)
            op = Op(("audit", path) + extra, 0, group, contains=(
                f"independence-mode: {mode}",
                "independence-violations: none",
                *relevance_lines(priors, cond),
                "multiple-updating: none (at most one updating evidence item per hypothesis)",
            ))
        else:
            priors, cond, i = dependent_spec(rng, n, m)
            joint, product = complement_pair(priors, cond, i)
            op = Op(("audit", path) + extra, 1, group, contains=(
                f"  H{i} given-not-H {{E1,E2}}: joint={joint} product={product}",
            ))
        workload.files[path] = model_text(n, m, product_atoms(priors, cond))
        workload.cycle.append(op)


def _scenario(rng, workload, prefix, n, index):
    """A ``scenario`` invocation and an ``audit`` of the same model."""
    values = sorted(rng.sample(range(0, 3 * n), n))
    weights = [Fraction(w, PRIOR_DENOMINATOR) for w in _composition(rng, PRIOR_DENOMINATOR, n)]
    offsets = (-1, 0, 1)
    noise = [Fraction(p, 6) for p in _composition(rng, 6, 3)]
    lo, hi = values[0], values[-1]
    t1, t2 = rng.randint(lo, hi - 1), rng.randint(lo, hi - 1)

    def conditional(t):
        return tuple(
            sum((p for d, p in zip(offsets, noise) if v + d <= t), Fraction(0)) for v in values
        )

    atoms = product_atoms(weights, (conditional(t1), conditional(t2)))
    text = model_text(n, 2, atoms)
    code, violated_h, violated_not_h = two_evidence_verdict(n, atoms)
    out = f"{prefix}scenario/built_{index}.model"

    def summary(violated):
        return f"violated ({', '.join(f'H{i}' for i in violated)})" if violated else "holds"

    workload.cycle.append(Op(
        (
            "scenario",
            "--values", ",".join(map(str, values)),
            "--weights", ",".join(map(str, weights)),
            "--noise=" + ",".join(f"{d}:{p}" for d, p in zip(offsets, noise)),
            "--thresholds", f"{t1},{t2}",
            "-o", out,
        ),
        0, "audit.scenario",
        stdout=(
            f"wrote {out} (hypotheses={n}, evidence=2)\n"
            f"independence given each hypothesis: {summary(violated_h)}\n"
            f"independence given each complement: {summary(violated_not_h)}\n"
        ),
        output_file=out,
        output_text=text,
    ))
    path = f"{prefix}scenario/model_{index}.model"
    workload.files[path] = text
    workload.cycle.append(Op(("audit", path), code, "audit.scenario"))


def audit_workload(seed: int, cycle: int = 0) -> Workload:
    rng = random.Random(f"audit:{seed}:{cycle}")
    prefix = f"c{cycle}/"
    workload = Workload([])
    for n, m, kinds in AUDIT_FULL_CELLS:
        _audit_dense(rng, workload, prefix, n, m, kinds, False)
    for n, m, kinds in AUDIT_PAIRWISE_CELLS:
        _audit_dense(rng, workload, prefix, n, m, kinds, True)
    for index, n in enumerate(SCENARIO_SIZES):
        _scenario(rng, workload, prefix, n, index)
    for name, (n, rows) in BUNDLED_TABLES.items():
        path = f"{prefix}tables/{name}.model"
        workload.files[path] = example_text(name)
        code, _, _ = two_evidence_verdict(n, table_atoms(n, rows))
        workload.cycle.append(Op(("audit", path), code, "audit.table"))
    return workload


# -- posterior -----------------------------------------------------------


def exact_posteriors(n: int, m: int, atoms: dict, event: dict) -> list[Fraction]:
    """P(H_i | event) for every i by summing the matching atoms."""
    joint = [Fraction(0)] * n
    for (i, bits), value in atoms.items():
        if all(bit(bits, m, j) == s for j, s in event.items()):
            joint[i - 1] += value
    total = sum(joint)
    return [p / total for p in joint]


def odds_posteriors(n: int, m: int, atoms: dict, event: dict) -> list[Fraction] | None:
    """The odds-product route: prior odds times one (P(e|H), P(e|not-H)) factor
    per literal.  ``None`` if some hypothesis gets no usable answer."""
    prior = [Fraction(0)] * n
    # matching[j][i - 1] = P(literal j and H_i)
    matching = {j: [Fraction(0)] * n for j in event}
    for (i, bits), value in atoms.items():
        prior[i - 1] += value
        for j, s in event.items():
            if bit(bits, m, j) == s:
                matching[j][i - 1] += value
    out = []
    for i in range(1, n + 1):
        p = prior[i - 1]
        if p in (0, 1):
            return None
        for_h, against_h = p, 1 - p
        for j in event:
            on_h = matching[j][i - 1]
            off_h = sum(matching[j]) - on_h
            if on_h == 0 and off_h == 0:
                return None
            for_h *= on_h / p
            against_h *= off_h / (1 - p)
        if for_h == 0 and against_h == 0:
            return None
        out.append(for_h / (for_h + against_h))
    return out


def _observation(rng, n, m, atoms, literals):
    """``literals`` literals read off one nonzero atom, chosen so that the odds
    route is defined for every hypothesis."""
    keys = sorted(atoms)
    while True:
        _, bits = rng.choice(keys)
        js = sorted(rng.sample(range(1, m + 1), literals))
        event = {j: bit(bits, m, j) for j in js}
        odds = odds_posteriors(n, m, atoms, event)
        if odds is not None:
            return event, exact_posteriors(n, m, atoms, event), odds


def _posterior_ops(workload, path, event, exact, odds, group):
    observe = ",".join(f"E{j}={int(s)}" for j, s in event.items())
    for method, values in (("exact", exact), ("odds", odds)):
        workload.cycle.append(Op(
            ("posterior", path, "--observe", observe, "--method", method, "--all"),
            0, f"{group}.{method}",
            stdout="".join(f"H{i}: {value}\n" for i, value in enumerate(values, 1)),
        ))


def sparse_atoms(rng: random.Random, n: int, m: int, count: int) -> dict:
    """``count`` distinct random atoms, at least one per hypothesis."""
    keys = {(i, rng.getrandbits(m)) for i in range(1, n + 1)}
    while len(keys) < count:
        keys.add((rng.randint(1, n), rng.getrandbits(m)))
    weights = {key: rng.randint(1, 30) for key in sorted(keys)}
    total = sum(weights.values())
    return {key: Fraction(w, total) for key, w in weights.items()}


def posterior_workload(seed: int, cycle: int = 0) -> Workload:
    rng = random.Random(f"posterior:{seed}:{cycle}")
    prefix = f"c{cycle}/"
    workload = Workload([])
    for n, m, clean, literal_counts in POSTERIOR_DENSE:
        if clean:
            priors, cond = clean_spec(rng, n, m)
        else:
            priors, cond, _ = dependent_spec(rng, n, m)
        atoms = product_atoms(priors, cond)
        path = f"{prefix}posterior/dense_n{n}_m{m}.model"
        workload.files[path] = model_text(n, m, atoms)
        for literals in literal_counts:
            event, exact, odds = _observation(rng, n, m, atoms, literals)
            # On a clean model the odds route must reproduce direct conditioning.
            _posterior_ops(workload, path, event, exact, exact if clean else odds, "posterior.dense")
    for n, m, count, literal_counts in POSTERIOR_SPARSE:
        atoms = sparse_atoms(rng, n, m, count)
        path = f"{prefix}posterior/sparse_n{n}_m{m}.model"
        workload.files[path] = model_text(n, m, atoms)
        for literals in literal_counts:
            event, exact, odds = _observation(rng, n, m, atoms, literals)
            _posterior_ops(workload, path, event, exact, odds, "posterior.sparse")
    return workload


# -- sweep ---------------------------------------------------------------


def sweep_workload(seed: int, cycle: int = 0) -> Workload:
    """Both grids, checked against their known counts.  The grids are fixed, so
    only the enumeration budget, which never runs out, differs between cycles:
    it gives every cycle's invocations an argv of their own."""
    ops = []
    for (n, m, d), counts in SWEEP_GRIDS.items():
        enumerated, satisfying, updating, violations = counts
        ops.append(Op(
            ("sweep", "--n", str(n), "--m", str(m), "--denominator", str(d),
             "--max-models", str(enumerated + cycle)),
            0, f"sweep.grid_{n}_{m}_{d}", weight=enumerated,
            stdout=(
                f"models-enumerated: {enumerated}\n"
                f"models-satisfying-assumptions: {satisfying}\n"
                f"witnesses-with-updating: {updating}\n"
                f"multiple-updating-violations: {violations}\n"
            ),
        ))
    return Workload(ops)


WORKLOADS = {
    "audit": audit_workload,
    "posterior": posterior_workload,
    "sweep": sweep_workload,
}


def write_files(workload: Workload, root: Path) -> None:
    for relative, text in workload.files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def corpus_bytes(workload: Workload) -> bytes:
    """Every input file and invocation, serialized; equal seeds give equal bytes."""
    parts = [f"{path}\n{text}" for path, text in sorted(workload.files.items())]
    parts += ["\0".join(op.argv) for op in workload.cycle]
    return "\n".join(parts).encode("utf-8")
