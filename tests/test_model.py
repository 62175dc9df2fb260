import copy
import pickle
import random
from collections.abc import Mapping
from fractions import Fraction as F

import pytest

import _brute
from oddsaudit.model import MAX_DENOMINATOR_BITS
from oddsaudit import (
    InvalidModelError,
    Model,
    Side,
    ZeroProbabilityError,
    bits_to_signs,
    dumps,
    example_model,
    loads,
    odds_posteriors,
    sign_vectors,
    signs_to_bits,
)

T, N = True, False


def single_atom_model(n=1, m=1, i=1, bits="1"):
    return Model(n=n, m=m, atoms={(i, bits_to_signs(bits)): 1})


def random_model(rng, n, m):
    """Random exact model: integer weights on random atoms, normalized."""
    weights = {}
    for i in range(1, n + 1):
        for signs in sign_vectors(m):
            if rng.random() < 0.7:
                weights[(i, signs)] = rng.randint(0, 9)
    total = sum(weights.values())
    if total == 0:
        weights[(1, (True,) * m)] = total = 1
    return Model(n=n, m=m, atoms={k: F(w, total) for k, w in weights.items()})


def sparse_model(rng, n, m, density, live=None):
    """Random exact model on about ``density`` of each live hypothesis' column.

    Hypotheses outside ``live`` (default: all) get no mass, so a single live
    hypothesis has prior 1.
    """
    live = range(1, n + 1) if live is None else live
    weights = {
        (i, signs): rng.randint(1, 9)
        for i in live
        for signs in sign_vectors(m)
        if rng.random() < density
    }
    if not weights:
        weights[(min(live), (True,) * m)] = 1
    total = sum(weights.values())
    return Model(n=n, m=m, atoms={k: F(w, total) for k, w in weights.items()})


# --- sign vector helpers -----------------------------------------------------


def test_sign_helpers_round_trip():
    assert bits_to_signs("10") == (T, N)
    assert signs_to_bits((T, N, T)) == "101"
    for m in (1, 2, 3):
        vectors = list(sign_vectors(m))
        assert len(vectors) == 2**m
        assert vectors == sorted(vectors, key=lambda s: int(signs_to_bits(s), 2))
        for signs in vectors:
            assert bits_to_signs(signs_to_bits(signs)) == signs


def test_bits_to_signs_rejects_garbage():
    for bad in ("", "2", "1a", "x"):
        with pytest.raises(ValueError):
            bits_to_signs(bad)


# --- construction ------------------------------------------------------------


def test_construction_validates_shape_and_mass():
    with pytest.raises(InvalidModelError):
        Model(n=0, m=1, atoms={})
    with pytest.raises(InvalidModelError):
        Model(n=1, m=0, atoms={})
    with pytest.raises(InvalidModelError):
        Model(n=1, m=1, atoms={(1, (T,)): F(1, 2)})  # total 1/2
    with pytest.raises(InvalidModelError):
        Model(n=1, m=1, atoms={(1, (T,)): F(3, 2), (1, (N,)): F(-1, 2)})
    with pytest.raises(InvalidModelError):
        Model(n=1, m=1, atoms={(2, (T,)): 1})  # index out of range
    with pytest.raises(InvalidModelError):
        Model(n=1, m=2, atoms={(1, (T,)): 1})  # wrong sign length
    with pytest.raises(InvalidModelError):
        Model(n=1, m=1, atoms={(1, (T,)): 1.0})  # float forbidden
    with pytest.raises(InvalidModelError, match=r"atom probability for \(1, 1\) is not a rational"):
        Model(n=1, m=1, atoms={(1, (T,)): "one"})
    with pytest.raises(InvalidModelError, match=r"atom key must be \(i, signs\): 1"):
        Model(n=1, m=1, atoms={1: 1})


@pytest.mark.parametrize(
    "n,m,atoms,message",
    [
        (1, 0, {(1, (T,)): 1}, "need at least one evidence proposition, got m=0"),
        (1, 17, {(1, (T,)): 1}, "m=17 exceeds the evidence cap 16 (audits enumerate 2**m subsets)"),
        (2, 1, {(1, (T,)): F(-1), (3, (T,)): F(2)}, "negative atom probability -1 for (1, 1)"),
        (2, 1, {(1, (T,)): F(-1), (2, (T,)): 0.5}, "negative atom probability -1 for (1, 1)"),
    ],
)
def test_construction_checks_the_shape_first_then_each_entry_in_turn(n, m, atoms, message):
    """``n`` and ``m`` are checked before any key, and each entry's value is
    refused for its sign before the next entry's key or value is checked."""
    with pytest.raises(InvalidModelError) as info:
        Model(n=n, m=m, atoms=atoms)
    assert str(info.value) == message


def test_atoms_must_be_a_mapping():
    # Refused with the package's error, not an AttributeError from `.items()`.
    for atoms in (None, [((1, (T,)), 1)], ((1, (T,)),)):
        with pytest.raises(InvalidModelError, match=r"atoms must be a mapping, got \w+$"):
            Model(n=1, m=1, atoms=atoms)


def test_repr_counts_nonzero_atoms(glymour):
    assert repr(glymour) == "Model(n=3, m=2, 6 nonzero atoms)"


def test_evidence_cap_is_fixed():
    with pytest.raises(InvalidModelError):
        Model(n=1, m=17, atoms={(1, (T,) * 17): 1})
    assert Model(n=1, m=16, atoms={(1, (T,) * 16): 1}).m == 16


def test_common_denominator_cap_is_inclusive():
    """The lcm of the atom denominators may have MAX_DENOMINATOR_BITS bits,
    not one more; the refusal names the first atom with the denominator that
    takes it past the cap, in order of first appearance."""
    assert MAX_DENOMINATOR_BITS == 1 << 15
    for bits, admitted in ((MAX_DENOMINATOR_BITS, True), (MAX_DENOMINATOR_BITS + 1, False)):
        tiny = F(1, 2 ** (bits - 1))
        atoms = {(1, (N,)): F(1, 2), (2, (T,)): tiny, (2, (N,)): F(1, 2) - tiny}
        if admitted:
            assert Model(n=2, m=1, atoms=atoms).denominator == 2 ** (bits - 1)
            continue
        with pytest.raises(InvalidModelError) as info:
            Model(n=2, m=1, atoms=atoms)
        message = f"atom (2, 1) takes the common denominator past {MAX_DENOMINATOR_BITS} bits"
        assert str(info.value) == message
    # Coprime denominators of 20,001 bits: the second to appear passes the cap,
    # though it is the smaller.
    first, second = 3**12619, 2**20000 + 1
    assert first > second
    assert (first * second).bit_length() > MAX_DENOMINATOR_BITS >= (first * 4).bit_length()
    atoms = {
        (1, (N, N)): F(1, 4),
        (1, (T, N)): F(1, first),
        (2, (N, T)): F(1, second),
        (2, (T, T)): F(2, second),
        (3, (T, T)): F(3, 4) - F(1, first) - F(3, second),
    }
    with pytest.raises(InvalidModelError) as info:
        Model(n=3, m=2, atoms=atoms)
    assert str(info.value) == "atom (2, 01) takes the common denominator past 32768 bits"


def test_zero_atoms_dropped_and_mapping_frozen(glymour):
    model = Model(n=2, m=1, atoms={(1, (T,)): 1, (2, (T,)): 0})
    assert (2, (T,)) not in model.atoms
    assert model.atom(2, (T,)) == 0
    with pytest.raises(TypeError):
        model.atoms[(2, (T,))] = F(1)  # read-only view
    with pytest.raises(AttributeError):
        glymour.n = 5  # frozen dataclass


def test_duplicate_atom_refused_even_when_zero():
    # Keys are not normalised, so (1, (2,)) never merges with (1, (True,)):
    # it is refused as it is read, whichever of the two is zero.
    for atoms in (
        {(1, (2,)): 0, (1, (True,)): 1},
        {(1, (True,)): 1, (1, (2,)): 0},
    ):
        with pytest.raises(InvalidModelError, match=r"tuple of m=1 bools, got \(2,\)"):
            Model(n=1, m=1, atoms=atoms)


class Pairs(Mapping):
    """A read-only mapping over a list of pairs, whose keys need not be hashable."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(value for k, value in self.pairs if k == key)

    def __iter__(self):
        return (key for key, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def test_unhashable_signs_get_the_package_error():
    for pairs in ([((1, ([T],)), 1)], [((1, (T,)), F(1, 2)), ((1, ([T],)), F(1, 2))]):
        with pytest.raises(InvalidModelError, match=r"tuple of m=1 bools, got \(\[True\],\)"):
            Model(n=1, m=1, atoms=Pairs(pairs))


def test_atom_checks_its_key():
    model = Model(n=1, m=2, atoms={(1, (T, T)): 1})
    assert model.atom(1, (T, T)) == 1
    assert model.atom(1, (T, N)) == 0
    for bad in (0, 2, 99, True):
        with pytest.raises(IndexError):
            model.atom(bad, (T, T))
    for bad in ("11", [T, T], (1, 1), (T,), (T, T, T)):
        with pytest.raises(ValueError, match="tuple of m=2 bools"):
            model.atom(1, bad)


def test_models_compare_by_value(glymour):
    clone = Model(n=3, m=2, atoms=dict(_brute.GLYMOUR_RAW))
    assert clone == glymour


def test_models_pickle_and_deep_copy():
    """Constructed, loaded and product models survive ``pickle`` and
    ``copy.deepcopy``, before and after their ``atoms`` view is read, and
    hash as before."""
    makers = (
        lambda: Model(n=2, m=2, atoms={(2, (T, N)): F(1, 3), (1, (N, T)): F(2, 3)}),
        lambda: loads(dumps(example_model("four"))),
        lambda: example_model("glymour"),
    )
    for make in makers:
        for read_atoms in (False, True):
            model = make()
            if read_atoms:
                assert model.atoms
            for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
                assert dumps(clone) == dumps(model)
                assert clone.denominator == model.denominator
                assert clone == model and hash(clone) == hash(model)


def test_reading_a_model_leaves_its_state_unchanged():
    """A model's attributes are set once, when it is built: reading ``atoms``
    or an atom, comparing and hashing add, drop or replace none of them."""
    models = (
        Model(n=2, m=2, atoms={(2, (T, N)): F(1, 3), (1, (N, T)): F(2, 3)}),
        loads(dumps(example_model("four"))),
        example_model("glymour"),
    )
    for model in models:
        state = dict(vars(model))
        assert model.atoms and model.atom(1, (N, T)) >= 0
        assert model == copy.deepcopy(model) and model != 1
        assert hash(model) == hash(model)
        assert vars(model).keys() == state.keys()
        assert all(vars(model)[name] is value for name, value in state.items())
    with pytest.raises(AttributeError):
        models[0].atoms = {}


def test_integer_form_matches_atoms():
    rng = random.Random(19)
    for _ in range(20):
        model = sparse_model(rng, rng.randint(1, 4), rng.randint(1, 6), 0.3)
        rebuilt = {}
        for i in range(1, model.n + 1):
            for mask, num in model.numerators(i):
                signs = tuple(bool(mask >> k & 1) for k in range(model.m))
                rebuilt[(i, signs)] = F(num, model.denominator)
            assert model.mass(i) == sum(num for _, num in model.numerators(i))
        assert rebuilt == dict(model.atoms)
    assert Model(n=2, m=1, atoms={(1, (T,)): F(1, 6), (2, (N,)): F(5, 6)}).denominator == 6


def test_queries_match_oracle_on_sparse_models():
    rng = random.Random(23)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        live = rng.sample(range(1, n + 1), rng.randint(1, n))
        model = sparse_model(rng, n, m, rng.choice((0.1, 0.4, 0.8)), live)
        raw = dict(model.atoms)
        events = rng.sample(_brute.all_events(m), min(40, 3**m))
        for i in range(1, n + 1):
            assert model.prior(i) == _brute.prior(raw, i)
            for event in events:
                assert model.event_prob(event) == _brute.event_prob(raw, event)
                assert model.joint_prob(event, i) == _brute.joint_prob(raw, event, i)
                if model.prior(i) != 0:
                    assert model.cond(event, i, Side.GIVEN_H) == _brute.cond_h(raw, event, i)
                if model.prior(i) != 1:
                    assert model.cond(event, i, Side.GIVEN_NOT_H) == _brute.cond_not_h(raw, event, i)
                if model.event_prob(event) != 0:
                    assert model.posteriors(event)(i) == _brute.posterior(raw, event, i)


# --- prior -------------------------------------------------------------------


def test_prior_values(glymour, four):
    assert glymour.prior(1) == F(1, 3)  # 1/6 + 0 + 1/6 + 0
    assert four.prior(2) == F(1, 4)  # 1/12 + 1/12 + 1/24 + 1/24
    assert single_atom_model().prior(1) == 1


def test_prior_bad_index(glymour):
    for bad in (0, 4, -1, True):
        with pytest.raises(IndexError):
            glymour.prior(bad)
        with pytest.raises(IndexError):
            glymour.mass(bad)


def test_priors_total_one_everywhere(glymour, modified, four):
    rng = random.Random(7)
    models = [glymour, modified, four] + [random_model(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(25)]
    for model in models:
        assert sum(model.prior(i) for i in range(1, model.n + 1)) == 1


# --- event_prob ----------------------------------------------------------------


def test_event_prob_values(glymour, modified):
    assert glymour.event_prob({1: T}) == F(1, 2)  # rows 11 and 10 across all i
    assert glymour.event_prob({}) == 1
    assert modified.event_prob({2: T}) == F(1, 3)


def test_event_prob_matches_oracle(glymour, modified, four):
    for model, raw in [
        (glymour, _brute.GLYMOUR_RAW),
        (modified, _brute.MODIFIED_RAW),
        (four, _brute.FOUR_RAW),
    ]:
        for event in _brute.all_events(model.m):
            assert model.event_prob(event) == _brute.event_prob(raw, event)


def test_event_prob_monotone_under_literal_removal():
    rng = random.Random(11)
    for _ in range(20):
        model = random_model(rng, rng.randint(1, 4), rng.randint(1, 3))
        for event in _brute.all_events(model.m):
            p = model.event_prob(event)
            for j in event:
                smaller = {k: v for k, v in event.items() if k != j}
                assert p <= model.event_prob(smaller)


def test_event_validation(glymour):
    with pytest.raises(ValueError):
        glymour.event_prob({3: T})  # index out of range
    with pytest.raises(ValueError):
        glymour.event_prob({0: T})
    with pytest.raises(ValueError):
        glymour.event_prob({1: 1})  # sign must be a bool
    with pytest.raises(ValueError, match="evidence index out of range"):
        glymour.event_prob({True: T})  # so must the index be an int


# --- cond ----------------------------------------------------------------------


def test_cond_values(glymour, modified):
    assert glymour.cond({2: T}, 1, Side.GIVEN_H) == 1
    assert glymour.cond({2: T}, 2, Side.GIVEN_H) == 0
    assert modified.cond({2: T}, 1, Side.GIVEN_NOT_H) == F(1, 4)


def test_cond_zero_mass_is_an_error_not_a_sentinel():
    model = Model(n=2, m=1, atoms={(1, (T,)): 1})  # P(H2) = 0
    with pytest.raises(ZeroProbabilityError):
        model.cond({1: T}, 2, Side.GIVEN_H)
    with pytest.raises(ZeroProbabilityError):
        model.cond({1: T}, 1, Side.GIVEN_NOT_H)  # complement of H1 is empty
    with pytest.raises(ValueError):
        model.cond({1: T}, 1, "given-H")  # not a Side member


def test_error_order_with_a_bad_hypothesis_and_a_bad_event(glymour):
    """``cond`` and ``joint_prob`` check the hypothesis first; both posterior
    functions check the event when built, before they are asked for any i."""
    with pytest.raises(IndexError, match="hypothesis index out of range 1..3: 0"):
        glymour.cond({9: T}, 0, Side.GIVEN_NOT_H)
    with pytest.raises(IndexError, match="hypothesis index out of range 1..3: 0"):
        glymour.joint_prob({9: T}, 0)
    for posteriors in (glymour.posteriors, lambda event: odds_posteriors(glymour, event)):
        with pytest.raises(ValueError, match="evidence index out of range 1..2: 9"):
            posteriors({9: T})


def test_cond_mixture_recovers_event_prob(glymour, modified, four):
    rng = random.Random(13)
    models = [glymour, modified, four] + [random_model(rng, 3, 2) for _ in range(10)]
    for model in models:
        for event in _brute.all_events(model.m):
            for i in range(1, model.n + 1):
                prior = model.prior(i)
                if prior in (0, 1):
                    continue
                mixed = model.cond(event, i, Side.GIVEN_H) * prior + model.cond(
                    event, i, Side.GIVEN_NOT_H
                ) * (1 - prior)
                assert mixed == model.event_prob(event)


# --- posterior -------------------------------------------------------------------


def test_posterior_values(glymour, modified):
    assert glymour.posteriors({1: T, 2: T})(1) == 1  # only H1 has mass on E1E2
    assert modified.posteriors({1: T, 2: T})(1) == F(1, 2)
    for i in (1, 2, 3):
        assert glymour.posteriors({})(i) == glymour.prior(i)


def test_posterior_zero_event_is_an_error():
    model = single_atom_model()
    with pytest.raises(ZeroProbabilityError):
        model.posteriors({1: N})(1)


def test_posteriors_sum_to_one(glymour, modified, four):
    rng = random.Random(17)
    models = [glymour, modified, four] + [random_model(rng, rng.randint(2, 4), 2) for _ in range(15)]
    for model in models:
        for event in _brute.all_events(model.m):
            if model.event_prob(event) == 0:
                continue
            assert sum(model.posteriors(event)(i) for i in range(1, model.n + 1)) == 1


def test_results_are_canonical(glymour):
    for value in (glymour.prior(1), glymour.event_prob({1: T}), glymour.posteriors({1: T})(2)):
        assert F(value.numerator, value.denominator) == value
        assert value.denominator > 0
