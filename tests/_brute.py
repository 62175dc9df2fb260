"""Independent brute-force oracles used by the test suite.

Everything here recomputes probabilities by direct summation over plain atom
dictionaries and explicit subset enumeration, deliberately sharing no code
with the package.  The three reference tables are typed out literally.
"""

from fractions import Fraction as F
from itertools import combinations, product


def table(rows):
    """rows: bitstring -> per-hypothesis column values; returns {(i, signs): value}."""
    atoms = {}
    for bits, values in rows.items():
        signs = tuple(ch == "1" for ch in bits)
        for i, value in enumerate(values, 1):
            atoms[(i, signs)] = F(value)
    return atoms


GLYMOUR_RAW = table(
    {
        "11": (F(1, 6), 0, 0),
        "10": (0, F(1, 6), F(1, 6)),
        "01": (F(1, 6), 0, 0),
        "00": (0, F(1, 6), F(1, 6)),
    }
)

MODIFIED_RAW = table(
    {
        "11": (F(1, 12), F(1, 18), F(1, 36)),
        "10": (F(1, 12), F(1, 9), F(5, 36)),
        "01": (F(1, 12), F(1, 18), F(1, 36)),
        "00": (F(1, 12), F(1, 9), F(5, 36)),
    }
)

FOUR_RAW = table(
    {
        "11": (F(1, 24), F(1, 12), F(1, 24), F(1, 12)),
        "10": (F(1, 24), F(1, 12), F(1, 12), F(1, 24)),
        "01": (F(1, 12), F(1, 24), F(1, 24), F(1, 12)),
        "00": (F(1, 12), F(1, 24), F(1, 12), F(1, 24)),
    }
)


def dims(atoms):
    n = max(i for i, _ in atoms)
    m = len(next(iter(atoms))[1])
    return n, m


def prior(atoms, i):
    return sum((v for (k, _), v in atoms.items() if k == i), F(0))


def event_prob(atoms, event):
    return sum(
        (v for (_, s), v in atoms.items() if all(s[j - 1] == b for j, b in event.items())),
        F(0),
    )


def joint_prob(atoms, event, i):
    return sum(
        (
            v
            for (k, s), v in atoms.items()
            if k == i and all(s[j - 1] == b for j, b in event.items())
        ),
        F(0),
    )


def cond_h(atoms, event, i):
    return joint_prob(atoms, event, i) / prior(atoms, i)


def cond_not_h(atoms, event, i):
    return (event_prob(atoms, event) - joint_prob(atoms, event, i)) / (1 - prior(atoms, i))


def posterior(atoms, event, i):
    return joint_prob(atoms, event, i) / event_prob(atoms, event)


class DegeneratePrior(Exception):
    """The odds rule has no likelihood ratio: P(H_i) is 0 or 1."""


class ImpossibleEvidence(Exception):
    """A literal, or the whole combination, has probability 0 on both sides."""


def odds_posterior(atoms, event, i):
    """P(H_i | event) by the odds-product rule: the prior odds P(H_i) : P(not-H_i)
    times P(E_j^s | H_i) : P(E_j^s | not-H_i) per literal, in index order."""
    p = prior(atoms, i)
    if not event:
        return p
    if p in (0, 1):
        raise DegeneratePrior(i)
    for_h, against_h = p, 1 - p
    for j, sign in sorted(event.items()):
        given_h, given_not_h = cond_h(atoms, {j: sign}, i), cond_not_h(atoms, {j: sign}, i)
        if given_h == given_not_h == 0:
            raise ImpossibleEvidence(j)
        for_h, against_h = for_h * given_h, against_h * given_not_h
    if for_h == against_h == 0:
        raise ImpossibleEvidence(None)
    return for_h / (for_h + against_h)


def independence_violations(atoms, i, side):
    """All subsets |J| >= 2 where the conditional fails to factorize.

    side: "H" or "nH".  Returns (subset, joint, product) triples; empty when
    the conditioning cell has zero mass.
    """
    n, m = dims(atoms)
    mass = prior(atoms, i) if side == "H" else 1 - prior(atoms, i)
    if mass == 0:
        return []
    conditional = cond_h if side == "H" else cond_not_h
    out = []
    for size in range(2, m + 1):
        for subset in combinations(range(1, m + 1), size):
            joint = conditional(atoms, {j: True for j in subset}, i)
            prod = F(1)
            for j in subset:
                prod *= conditional(atoms, {j: True}, i)
            if joint != prod:
                out.append((subset, joint, prod))
    return out


def relevant(atoms, i):
    n, m = dims(atoms)
    p = prior(atoms, i)
    if p in (0, 1):
        return set()
    return {j for j in range(1, m + 1) if cond_h(atoms, {j: True}, i) != event_prob(atoms, {j: True})}


def product_atoms(priors, cond):
    """Product construction done by hand: priors[i0], cond[j0][i0], 0-based."""
    n, m = len(priors), len(cond)
    atoms = {}
    for i0 in range(n):
        for signs in product((False, True), repeat=m):
            value = F(priors[i0])
            for j0 in range(m):
                c = F(cond[j0][i0])
                value *= c if signs[j0] else 1 - c
            atoms[(i0 + 1, tuple(signs))] = value
    return atoms


def all_events(m):
    """Every literal mapping over subsets of {1..m}, the empty event included."""
    events = []
    for size in range(m + 1):
        for subset in combinations(range(1, m + 1), size):
            for signs in product((False, True), repeat=size):
                events.append(dict(zip(subset, signs)))
    return events


def grid_survives(P, flat, n, m, D):
    """Integer-arithmetic filter for two-sided independence on product specs.

    Given prior numerators P and flattened conditional numerators ``flat``
    (entry j*n+i is the numerator of P(E_{j+1}|H_{i+1})) over denominator D,
    decides whether independence given every complement holds for every
    evidence subset.  Independence given each hypothesis is automatic for
    product specs.
    """
    T = [sum(P[k] * flat[j * n + k] for k in range(n)) for j in range(m)]
    for size in range(2, m + 1):
        for J in combinations(range(m), size):
            M = []
            for k in range(n):
                value = 1
                for j in J:
                    value *= flat[j * n + k]
                M.append(value)
            TJ = sum(P[k] * M[k] for k in range(n))
            for i in range(n):
                remainder = D - P[i]
                if remainder == 0:
                    continue
                lhs = (TJ - P[i] * M[i]) * remainder ** (len(J) - 1)
                rhs = 1
                for j in J:
                    rhs *= T[j] - P[i] * flat[j * n + i]
                if lhs != rhs:
                    return False
    return True


def grid_updating_sets(P, flat, n, m, D):
    """Per-hypothesis updating evidence (1-based) at integer grid coordinates."""
    T = [sum(P[k] * flat[j * n + k] for k in range(n)) for j in range(m)]
    sets = {}
    for i in range(n):
        if P[i] in (0, D):
            sets[i + 1] = set()
            continue
        sets[i + 1] = {j + 1 for j in range(m) if flat[j * n + i] * D != T[j]}
    return sets


def grid_counts_by_relevance(n, m, D, c1=False):
    """(enumerated, satisfying, with updating) counts of the grid sweep, from
    the converse of the at-most-one-updater theorem instead of identities.

    For each prior composition the (D+1)^n rows are tallied by the set of
    hypotheses they update, as a bitmask; a survivor is an m-tuple of rows
    whose sets are pairwise disjoint, counted by a DP over the union mask.
    With ``c1`` zero priors and zero conditionals are excluded.
    """
    low = 1 if c1 else 0
    compositions = [P for P in product(range(D + 1), repeat=n) if sum(P) == D]
    satisfying = updating = 0
    for P in compositions:
        if c1 and 0 in P:
            continue
        tally = {}
        for row in product(range(low, D + 1), repeat=n):
            total = sum(p * c for p, c in zip(P, row))
            mask = sum(1 << i for i in range(n) if 0 < P[i] < D and row[i] * D != total)
            tally[mask] = tally.get(mask, 0) + 1
        unions = {0: 1}
        for _ in range(m):
            grown = {}
            for union, ways in unions.items():
                for mask, count in tally.items():
                    if not union & mask:
                        grown[union | mask] = grown.get(union | mask, 0) + ways * count
            unions = grown
        satisfying += sum(unions.values())
        updating += sum(ways for union, ways in unions.items() if union)
    return len(compositions) * (D + 1) ** (n * m), satisfying, updating
