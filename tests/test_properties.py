"""Property tests: the model file format round-trips, models are equal
exactly when their files are and equal models hash alike, a loaded table equals
the model built from its atoms, and a model is built only from canonical
``(i, signs)`` keys; the product builder equals the oracle's product
atoms; the odds route equals an
independent oracle of the product rule; the whole-model audit equals the
oracle's per-hypothesis verdicts; on product specs the
audit is clean exactly when no hypothesis has two updating propositions, in
full and pairwise mode alike; and where only one proposition depends on the
hypothesis, or the propositions update disjoint sets of hypotheses, the odds
route equals direct conditioning."""

from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from oddsaudit import (
    MAX_EVIDENCE,
    ConditionalSpec,
    DegeneratePriorError,
    ImpossibleEvidenceError,
    InvalidModelError,
    Model,
    Side,
    check_assumptions,
    dumps,
    from_conditionals,
    loads,
    odds_posteriors,
    signs_to_bits,
)


@st.composite
def models(draw):
    """Models over n = 1..4 hypotheses and m = 1..6 propositions, some
    hypotheses without mass, zero atoms among the rest, atoms inserted in a
    random order."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    live = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    cell = st.tuples(st.sampled_from(live), st.tuples(*[st.booleans()] * m))
    weights = draw(
        st.dictionaries(cell, st.integers(0, 6), min_size=1, max_size=24).filter(
            lambda found: any(found.values())
        )
    )
    total = sum(weights.values())
    order = draw(st.permutations(list(weights)))
    return Model(n=n, m=m, atoms={key: F(weights[key], total) for key in order})


@settings(max_examples=150, deadline=None)
@given(models())
def test_model_file_round_trips(model):
    text = dumps(model)
    assert loads(text) == model
    assert dumps(loads(text)) == text
    # Atoms are listed by hypothesis, then by bitstring value, zeros omitted.
    atoms = [line.split() for line in text.splitlines()[2:]]
    keys = [(int(i), int(bits, 2)) for _, i, bits, _ in atoms]
    assert keys == sorted(set(keys))
    assert all(value != "0" for *_, value in atoms)
    # Insertion order does not reach the canonical text.
    assert dumps(Model(n=model.n, m=model.m, atoms=dict(sorted(model.atoms.items())))) == text


@st.composite
def model_pairs(draw):
    """Two models over n = 1..3 and m = 1..2, each constructed, loaded or, for
    a product table, built by ``from_conditionals``; both from one table or
    from two, with explicit zero atoms, atoms in a shuffled order."""

    def table():
        if draw(st.booleans()):  # a product spec on a grid of denominator 1..2
            n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
            priors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
            row = st.lists(st.integers(0, d), min_size=n, max_size=n)
            rows = draw(st.lists(row, min_size=1, max_size=2))
            spec = ConditionalSpec(
                priors=tuple(F(p, sum(priors)) for p in priors),
                cond=tuple(tuple(F(c, d) for c in row) for row in rows),
            )
            return spec.n, spec.m, _brute.product_atoms(spec.priors, spec.cond), spec
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        cell = st.tuples(st.integers(1, n), st.tuples(*[st.booleans()] * m))
        weights = draw(st.dictionaries(cell, st.integers(0, 2)).filter(lambda w: any(w.values())))
        return n, m, {key: F(w, sum(weights.values())) for key, w in weights.items()}, None

    def build(n, m, atoms, spec):
        route = draw(st.sampled_from(["model", "file", "product"] if spec else ["model", "file"]))
        order = draw(st.permutations(list(atoms)))
        if route == "product":
            return from_conditionals(spec)
        if route == "model":
            return Model(n, m, {key: atoms[key] for key in order})
        lines = [f"atom {i} {signs_to_bits(signs)} {atoms[i, signs]}" for i, signs in order]
        return loads("\n".join([f"hypotheses {n}", f"evidence {m}", *lines]) + "\n")

    first = table()
    return build(*first), build(*(first if draw(st.booleans()) else table()))


@settings(max_examples=300, deadline=None)
@given(model_pairs())
@example((Model(2, 1, {(1, (True,)): 1}), Model(3, 1, {(1, (True,)): 1})))  # n differs
@example((Model(1, 1, {(1, (True,)): 1}), Model(1, 2, {(1, (True, False)): 1})))  # m differs
def test_models_are_equal_iff_their_files_are_and_equal_models_hash_alike(pair):
    """``==`` is the equality of the atoms (and of ``dumps``), equal models
    hash alike, sets and dict keys merge exactly the equal models, and a model
    never equals a non-model."""
    a, b = pair
    equal = dumps(a) == dumps(b)
    assert (a == b) == (b == a) == (not a != b) == equal
    assert equal == ((a.n, a.m, dict(a.atoms)) == (b.n, b.m, dict(b.atoms)))
    if equal:
        assert hash(a) == hash(b)
    assert len({a, b}) == len({a: 0, b: 1}) == 2 - equal
    assert {a: 0, b: 1}[a] == equal
    assert a != 1 and not a == dumps(a) and a != (a.n, a.m)


def _spelling(draw, value):
    """``value`` as a rational token: ``p/q``, scaled, signed or bare."""
    p, q = value.numerator, value.denominator
    k = draw(st.integers(2, 5))
    spellings = [f"{p}/{q}", f"{p * k}/{q * k}"]
    if p >= 0:
        spellings.append(f"+{p}/{q}")
    if q == 1:
        spellings.append(str(p))
    if p == 0:
        spellings += ["0", "-0", f"0/{k}", f"-0/{k}"]
    return draw(st.sampled_from(spellings))


@st.composite
def model_tables(draw):
    """``(kind, n, m, text, atoms)``: a model file and the atoms mapping it
    states, key for key in line order; sparse or dense, hypotheses in any
    order, zero atoms, values in other spellings, comments and blank lines.
    Unless ``kind`` is "valid" the table is broken: one atom negative, a
    total other than 1, denominators past the cap, or m past the evidence cap."""
    broken = st.sampled_from(["negative", "total", "cap", "evidence"])
    kind = draw(st.one_of(st.just("valid"), broken))
    n = draw(st.integers(1, 4))
    m = MAX_EVIDENCE + 1 if kind == "evidence" else draw(st.integers(1 + (kind == "cap"), 5))
    signs = st.tuples(*[st.booleans()] * m)
    if kind != "cap" and m <= 5 and draw(st.booleans()):
        every = product(range(1, n + 1), product((False, True), repeat=m))
        cells = draw(st.permutations(list(every)))
    else:
        cell = st.tuples(st.integers(1, n), signs)
        cells = draw(st.lists(cell, min_size=4 if kind == "cap" else 1, max_size=20, unique=True))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(cells), max_size=len(cells)))
    weights[0] += not any(weights)
    values = [F(w, sum(weights)) for w in weights]
    k = draw(st.integers(0, len(cells) - 1))
    if kind == "negative":
        values[k] = -values[k] or F(-1, 3)
    elif kind == "total":
        values[k] += F(1, draw(st.integers(1, 9)))
    elif kind == "cap":  # three coprime ~13,300-bit denominators pass 2**15 bits; one twice
        values[:4] = [F(1, 10**3999 + j) for j in (1, 3, 7, 7)]
    noise = st.sampled_from(["", "   ", "# a comment", "\t# another"])
    lines = [draw(noise), f"hypotheses {n}", draw(noise), f"evidence {m}"]
    for (i, cell), value in zip(cells, values):
        bits = "".join("1" if s else "0" for s in cell)
        tail = draw(st.sampled_from(["", "  # note", "\t"]))
        lines += [draw(noise)] * draw(st.integers(0, 1))
        lines.append(f"atom {i} {bits} {_spelling(draw, value)}{tail}")
    return kind, n, m, "\n".join(lines) + "\n", dict(zip(cells, values))


@settings(max_examples=200, deadline=None)
@given(model_tables())
def test_loaded_tables_equal_the_models_built_from_their_atoms(drawn):
    """``loads`` builds the integer form straight from the file, with no sign
    tuples: it equals ``Model(n, m, atoms)`` in atoms, ``L``, each column (as
    a multiset) and each mass, and a broken table gets the same error type
    and message from both."""
    kind, n, m, text, atoms = drawn

    def built(make):
        try:
            return make()
        except InvalidModelError as exc:
            return type(exc), str(exc)

    expected, loaded = built(lambda: Model(n=n, m=m, atoms=atoms)), built(lambda: loads(text))
    assert isinstance(expected, Model) == (kind == "valid")
    if kind == "cap":  # the lcm passes the cap at the third atom, the first with its denominator
        i, signs = list(atoms)[2]
        named = f"atom ({i}, {signs_to_bits(signs)})"
        assert expected[1] == f"{named} takes the common denominator past 32768 bits"
    if kind != "valid":
        assert loaded == expected
        return
    assert loaded.denominator == expected.denominator
    for i in range(1, n + 1):
        assert Counter(loaded.numerators(i)) == Counter(expected.numerators(i))
        assert loaded.mass(i) == expected.mass(i)
    assert loaded == expected


@st.composite
def mistyped_keys(draw):
    """A one-atom model's shape and canonical key, and a mistyped variant of
    them: the signs as a bitstring, bytes, ints, None, an int or a tuple of
    the wrong length; the index as a bool, None or a string; or a bool shape.
    Last, for n > 1, a mistyped twin key: another index, and signs equal to
    the canonical key's with some bools written as ints (None for n = 1)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    i, signs = draw(st.integers(1, n)), draw(st.tuples(*[st.booleans()] * m))
    bits = "".join("1" if s else "0" for s in signs)
    mixed = st.lists(st.sampled_from([0, 1, 2, False, True]), min_size=m, max_size=m)
    bad_signs = st.one_of(
        st.sampled_from([bits, bits.encode(), tuple(map(int, signs)), None, signs + (True,)]),
        mixed.filter(lambda xs: any(type(x) is not bool for x in xs)).map(tuple),
        st.integers(),
        st.tuples(*[st.booleans()] * (m - 1)),
    )
    bad = st.one_of(
        bad_signs.map(lambda bad: (n, m, (i, bad))),
        st.sampled_from([True, None, str(i)]).map(lambda bad: (n, m, (bad, signs))),
    )
    if i == 1:
        bad = st.one_of(bad, st.just((True, m, (i, signs))))
    if m == 1:
        bad = st.one_of(bad, st.just((n, True, (i, signs))))
    twin = None
    if n > 1:
        j = draw(st.integers(1, n).filter(lambda j: j != i))
        written = st.tuples(*[st.sampled_from([s, int(s)]) for s in signs])
        twin = (j, draw(written.filter(lambda t: any(type(x) is int for x in t))))
    return (n, m, (i, signs)), draw(bad), twin


@settings(max_examples=200, deadline=None)
@given(mistyped_keys())
@example(((1, 2, (1, (False, True))), (1, 2, (1, "01")), None))  # "0" is truthy
@example(((1, 1, (1, (True,))), (1, 1, (1, 5)), None))  # not iterable
@example(((2, 1, (1, (True,))), (2, 1, (True, (True,))), (2, (1,))))  # True is not H1
@example(((1, 1, (1, (True,))), (True, True, (1, (True,))), None))
@example(((2, 2, (1, (True, False))), (2, 2, (1, "10")), (2, (1, 0))))  # (1, 0) == (True, False)
def test_only_canonical_keys_build_models(drawn):
    (n, m, key), (bad_n, bad_m, bad_key), twin = drawn
    model = Model(n=n, m=m, atoms={key: 1})
    assert loads(dumps(model)) == model
    # Refused with the package's own error, never coerced nor a TypeError.
    with pytest.raises(InvalidModelError):
        Model(n=bad_n, m=bad_m, atoms={bad_key: 1})
    # Signs equal to a canonical key's get checks of their own, in either order.
    if twin is not None:
        for atoms in ({key: F(1, 2), twin: F(1, 2)}, {twin: F(1, 2), key: F(1, 2)}):
            with pytest.raises(InvalidModelError, match=f"tuple of m={m} bools"):
                Model(n=n, m=m, atoms=atoms)


@st.composite
def dense_or_sparse_models(draw):
    """A sparse model from :func:`models` or a dense one with a weight on every
    cell (such models are almost never conditionally independent)."""
    if draw(st.booleans()):
        return draw(models())
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = list(product(range(1, n + 1), product((False, True), repeat=m)))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(cells), max_size=len(cells)))
    weights[-1] += not any(weights)
    total = sum(weights)
    return Model(n=n, m=m, atoms={c: F(w, total) for c, w in zip(cells, weights)})


@st.composite
def odds_queries(draw):
    """A model from :func:`dense_or_sparse_models`, an event on it and a
    hypothesis index."""
    model = draw(dense_or_sparse_models())
    event = draw(st.dictionaries(st.integers(1, model.m), st.booleans()))
    return model, event, draw(st.integers(1, model.n))


@settings(max_examples=300, deadline=None)
@given(odds_queries())
def test_odds_route_matches_the_product_rule_oracle(drawn):
    """The integer odds route equals the Fraction oracle of the product rule
    in value, or raises the error that matches the oracle's."""
    model, event, i = drawn
    try:
        expected = _brute.odds_posterior(dict(model.atoms), event, i)
    except _brute.DegeneratePrior:
        with pytest.raises(DegeneratePriorError):
            odds_posteriors(model, event)(i)
    except _brute.ImpossibleEvidence:
        with pytest.raises(ImpossibleEvidenceError):
            odds_posteriors(model, event)(i)
    else:
        assert odds_posteriors(model, event)(i) == expected


@settings(max_examples=200, deadline=None)
@given(dense_or_sparse_models(), st.booleans())
@example(Model(n=3, m=2, atoms={(2, (True, False)): F(1)}), False)  # H2 has prior 1
@example(  # H2 has prior 0
    Model(n=3, m=3, atoms={(1, (True, True, False)): F(1, 2), (3, (False, True, True)): F(1, 2)}),
    True,
)
def test_whole_audit_equals_the_oracle(model, pairwise):
    """``check_assumptions`` reports, in order, the oracle's failing subsets
    for each hypothesis and then each side (only the pairs when
    ``pairwise``), and the oracle's relevant propositions for each
    hypothesis, on models with empty cells and with a cell of prior 1 too;
    its condition 1 failures are the oracle's hypotheses without mass on
    every E_j true, or None when that conjunction has probability 0."""
    report = check_assumptions(model, pairwise=pairwise)
    hypotheses = range(1, model.n + 1)
    atoms, everything = dict(model.atoms), dict.fromkeys(range(1, model.m + 1), True)
    assert [
        (v.hypothesis, v.side, v.subset, v.joint, v.product)
        for v in report.independence_violations
    ] == [
        (i, side, *violation)
        for i in hypotheses
        for side, tag in ((Side.GIVEN_H, "H"), (Side.GIVEN_NOT_H, "nH"))
        for violation in _brute.independence_violations(atoms, i, tag)
        if not pairwise or len(violation[0]) == 2
    ]
    assert report.relevance == {i: _brute.relevant(atoms, i) for i in hypotheses}
    expected = None
    if _brute.event_prob(atoms, everything):
        expected = tuple(i for i in hypotheses if not _brute.joint_prob(atoms, everything, i))
    assert report.condition1_failures == expected


@st.composite
def one_row_product_specs(draw):
    """Product specs on a grid of denominator 1..4 over n = 3..5 hypotheses,
    some without mass, where one row of conditionals varies across hypotheses
    and every other row is the same for all of them."""
    n, m = draw(st.integers(3, 5)), draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    priors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    varying = draw(st.integers(0, m - 1))
    rows = [
        draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        if j == varying
        else [draw(st.integers(0, d))] * n
        for j in range(m)
    ]
    return ConditionalSpec(
        priors=tuple(F(p, sum(priors)) for p in priors),
        cond=tuple(tuple(F(c, d) for c in row) for row in rows),
    )


@settings(max_examples=100, deadline=None)
@given(one_row_product_specs())
def test_one_varying_row_audits_clean(spec):
    model = from_conditionals(spec)
    for pairwise in (False, True):
        report = check_assumptions(model, pairwise=pairwise)
        assert report.clean
        assert report.theorem.status == "holds"


@settings(max_examples=60, deadline=None)
@given(one_row_product_specs())
def test_one_varying_row_odds_route_is_exact(spec):
    model = from_conditionals(spec)
    for event in _brute.all_events(model.m):
        if model.event_prob(event) == 0:
            continue
        for i in range(1, model.n + 1):
            if model.prior(i) in (0, 1):
                continue
            assert odds_posteriors(model, event)(i) == model.posteriors(event)(i)


@st.composite
def product_specs(draw):
    """Product specs on a grid of denominator 2..4 over n = 3..4 hypotheses
    and m = 2..5 propositions, some hypotheses without mass; in half of them
    most rows are constant, so that both audit verdicts occur."""
    n, m, d = draw(st.integers(3, 4)), draw(st.integers(2, 5)), draw(st.integers(2, 4))
    priors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    varying = draw(st.sets(st.integers(0, m - 1))) if draw(st.booleans()) else range(m)
    rows = [
        draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        if j in varying
        else [draw(st.integers(0, d))] * n
        for j in range(m)
    ]
    return ConditionalSpec(
        priors=tuple(F(p, sum(priors)) for p in priors),
        cond=tuple(tuple(F(c, d) for c in row) for row in rows),
    )


@settings(max_examples=300, deadline=None)
@given(product_specs())
def test_product_models_are_independent_iff_updating_is_disjoint(spec):
    """On product models (n > 2) the full audit, the pairwise audit and "no
    hypothesis has two updating propositions" agree."""
    model = from_conditionals(spec)
    report = check_assumptions(model)
    full = not report.independence_violations
    pairwise = not check_assumptions(model, pairwise=True).independence_violations
    disjoint = all(len(relevant) < 2 for relevant in report.relevance.values())
    assert full == pairwise == disjoint


@st.composite
def oracle_specs(draw):
    """Product specs over n = 1..12 hypotheses and m = 1..6 propositions on a
    grid of denominator 1..5, so that zero priors and 0/1 conditionals occur."""
    n, m, d = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    priors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    rows = draw(st.lists(st.lists(st.integers(0, d), min_size=n, max_size=n), min_size=m, max_size=m))
    return ConditionalSpec(
        priors=tuple(F(p, sum(priors)) for p in priors),
        cond=tuple(tuple(F(c, d) for c in row) for row in rows),
    )


@settings(max_examples=100, deadline=None)
@given(oracle_specs())
def test_product_builder_equals_the_oracle(spec):
    """``from_conditionals`` builds the model of the oracle's nonzero product
    atoms, and ``dumps`` writes its atoms sorted by ``(i, signs)``."""
    model = from_conditionals(spec)
    atoms = {key: value for key, value in _brute.product_atoms(spec.priors, spec.cond).items() if value}
    assert model == Model(n=spec.n, m=spec.m, atoms=atoms)
    lines = [f"hypotheses {spec.n}", f"evidence {spec.m}"]
    lines += [f"atom {i} {signs_to_bits(signs)} {value}" for (i, signs), value in sorted(model.atoms.items())]
    assert dumps(model) == "\n".join(lines) + "\n"


def test_product_builder_refuses_the_atom_that_passes_the_denominator_cap():
    """The product builder and ``Model`` over the oracle's atoms refuse the
    same atom when the common denominator passes its cap."""
    spec = ConditionalSpec(
        priors=(F(1, 3),) * 3,
        cond=((F(1, 3**4000), F(1, 5**3000), F(1, 7**2500)),
              (F(1, 11**2000), F(1, 13**2000), F(1, 17**2000))),
    )
    atoms = {key: value for key, value in _brute.product_atoms(spec.priors, spec.cond).items() if value}
    message = r"^atom \(3, 00\) takes the common denominator past 32768 bits$"
    with pytest.raises(InvalidModelError, match=message):
        from_conditionals(spec)
    with pytest.raises(InvalidModelError, match=message):
        Model(n=3, m=2, atoms=atoms)


@st.composite
def disjoint_updating_specs(draw):
    """Product specs over n = 4..6 hypotheses of positive prior, with the
    propositions each hypothesis is updated by.  The hypotheses that E_j may
    update form a set R_j, empty or of size 2 or 3, disjoint from the others.
    Off R_j the conditional is p_j = P(E_j); on R_j it deviates from p_j by
    rationals whose prior-weighted sum is 0, scaled to keep it in [0, 1]."""
    n, m = draw(st.integers(4, 6)), draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    priors = [F(w, sum(weights)) for w in weights]
    order = draw(st.permutations(range(n)))
    updating = {i: set() for i in range(1, n + 1)}
    rows, start = [], 0
    for j in range(1, m + 1):
        size = min(draw(st.sampled_from((2, 2, 3, 0))), n - start)
        group = order[start : start + size] if size >= 2 else []
        start += len(group)
        p = F(draw(st.integers(1, 5)), 6)
        values = st.lists(st.integers(-3, 3), min_size=size, max_size=size, unique=True)
        raw = dict(zip(group, draw(values))) if group else {}
        mass = sum(priors[k] for k in group)
        mean = sum(priors[k] * w for k, w in raw.items()) / mass if group else 0
        deviations = {k: w - mean for k, w in raw.items()}
        bounds = [(1 - p) / d if d > 0 else p / -d for d in deviations.values() if d]
        scale = min(bounds, default=0) * F(draw(st.integers(1, 4)), 4)
        row = [p] * n
        for k, d in deviations.items():
            row[k] = p + scale * d
            if d:
                updating[k + 1].add(j)
        rows.append(tuple(row))
    return ConditionalSpec(priors=tuple(priors), cond=tuple(rows)), updating


@settings(max_examples=60, deadline=None)
@given(disjoint_updating_specs())
def test_disjoint_updating_audits_clean_and_odds_are_exact(drawn):
    """The converse of the salvage theorem on models with several updating
    propositions: disjoint updating passes the full two-sided audit, and the
    odds route then equals direct conditioning on every event."""
    spec, updating = drawn
    model = from_conditionals(spec)
    report = check_assumptions(model)
    assert report.independence_violations == ()
    assert report.theorem.status == "holds"
    assert report.relevance == updating
    for event in _brute.all_events(model.m):
        if model.event_prob(event) == 0:
            continue
        for i in range(1, model.n + 1):
            assert odds_posteriors(model, event)(i) == model.posteriors(event)(i)
