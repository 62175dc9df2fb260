"""A symbolic certificate for the two steps of the sweep's proof that grids
confirm only case by case.

Polynomials are dicts from exponent tuples to integer coefficients, expanded
exactly.  The variables are D, the priors P_1..P_{n-1} (P_n = D - sum of the
others, so the priors total D) and two rows a_1..a_n, b_1..b_n; t, X and K
are as in the ``oddsaudit.sweep`` docstring:

    t_a = sum_k P_k a_k,  X_{a,i} = D a_i - t_a,  K_ab = D sum_k P_k a_k b_k - t_a t_b.

For every n from 3 to 8 this certifies, as polynomial identities and so for
every rational product spec with that n, not only for grid points:

(a) the kernel's identity is D times the cleared form of independence of the
    rows given not-H_i, for every i:
    K_ab (D - P_i) - P_i X_{a,i} X_{b,i}
        = D [(sum_{k!=i} P_k a_k b_k)(sum_{k!=i} P_k)
             - (sum_{k!=i} P_k a_k)(sum_{k!=i} P_k b_k)];
(b) D K_ab = sum_k P_k X_{a,k} X_{b,k}, and the n residuals of (a) sum to
    (n - 2) D K_ab.  So for n > 2, a pair passing every identity has K_ab = 0
    and then P_i X_{a,i} X_{b,i} = 0 for every i: no hypothesis is updated by
    both rows.  At n = 2 the sum vanishes identically and forces nothing.
(c) the pair converse: D times the residual of (a) is
    (D - P_i) sum_k P_k X_{a,k} X_{b,k} - D P_i X_{a,i} X_{b,i}.  If the rows'
    update sets are disjoint, every P_k X_{a,k} X_{b,k} is 0, so the pair
    passes every identity of (a).

(d) relabelling: with n free priors (no total imposed), for every
    permutation s of the cells, the residual of (a) at cell i, evaluated at
    P, a and b all permuted by s, is the residual at cell s(i), and X_{a,i} is
    X_{a,s(i)}, so the update condition X_{a,i} != 0 moves with the cell.  It
    is checked on the adjacent transpositions, which generate every s, for
    n from 2 to 8.  This is the only fact the sweep's one-pair-per-orbit check
    uses: permuting columns of equal prior maps passing pairs to passing
    pairs and masks to masks.
(e) no one-bit mask: sum_k P_k X_{a,k} = 0 when the priors total D (n from 3
    to 8), so a row that updates one hypothesis of positive prior updates
    another; with n free priors the sum is t_a (D - sum_k P_k), not 0.

It does not certify that disjoint update sets factor every larger subset
given each not-H_i.
"""

from collections import defaultdict

import pytest


class Poly:
    """An integer polynomial: exponent tuple -> nonzero coefficient."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, index, count):
        return cls({tuple(int(j == index) for j in range(count)): 1})

    def __add__(self, other):
        terms = defaultdict(int, self.terms)
        for e, c in other.terms.items():
            terms[e] += c
        return Poly(terms)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({e: c * other for e, c in self.terms.items()})
        terms = defaultdict(int)
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                terms[tuple(map(sum, zip(e, f)))] += c * d
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == other.terms

    def renamed(self, target):
        """The polynomial with each variable j replaced by variable target[j]."""
        terms = defaultdict(int)
        for e, c in self.terms.items():
            f = [0] * len(e)
            for j, power in enumerate(e):
                f[target[j]] += power
            terms[tuple(f)] += c
        return Poly(terms)


def total(polys):
    return sum(polys, Poly({}))


def setup(n):
    """D, the priors P_1..P_n totalling D, and the rows a and b."""
    count = 1 + (n - 1) + 2 * n
    variables = [Poly.var(j, count) for j in range(count)]
    D, free, a, b = variables[0], variables[1:n], variables[n : 2 * n], variables[2 * n :]
    return D, free + [D - total(free)], a, b


def kernel(n):
    """D, P, and the kernel's t, X and K for rows a and b."""
    D, P, a, b = setup(n)
    t_a, t_b = total(p * x for p, x in zip(P, a)), total(p * y for p, y in zip(P, b))
    X_a, X_b = [D * x - t_a for x in a], [D * y - t_b for y in b]
    K = D * total(p * x * y for p, x, y in zip(P, a, b)) - t_a * t_b
    return D, P, a, b, X_a, X_b, K


def not_h(n, i):
    """D times the cleared form of independence of a and b given not-H_i."""
    D, P, a, b = setup(n)
    rest = [k for k in range(n) if k != i]
    joint = total(P[k] * a[k] * b[k] for k in rest)
    return D * (joint * total(P[k] for k in rest)
                - total(P[k] * a[k] for k in rest) * total(P[k] * b[k] for k in rest))


@pytest.mark.parametrize("n", range(3, 9))
def test_the_kernel_identity_is_independence_given_not_h(n):
    """(a): the residual K_ab (D - P_i) - P_i X_ai X_bi is D times the cleared
    independence of the rows given not-H_i; without the (D - P_i) factor it
    is not."""
    D, P, _, _, X_a, X_b, K = kernel(n)
    for i in range(n):
        independence = not_h(n, i)
        assert K * (D - P[i]) - P[i] * X_a[i] * X_b[i] == independence, i
        assert K - P[i] * X_a[i] * X_b[i] != independence, i


@pytest.mark.parametrize("n", range(2, 9))
def test_the_residuals_sum_to_n_minus_two_times_d_k(n):
    """(b): D K_ab = sum_k P_k X_ak X_bk, and the residuals sum to
    (n - 2) D K_ab, a nonzero multiple for n > 2 and zero at n = 2."""
    D, P, _, _, X_a, X_b, K = kernel(n)
    assert D * K == total(p * x * y for p, x, y in zip(P, X_a, X_b))
    residuals = total(K * (D - P[i]) - P[i] * X_a[i] * X_b[i] for i in range(n))
    assert residuals == (n - 2) * (D * K)
    assert K != Poly({})
    assert (residuals == Poly({})) == (n == 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_disjoint_update_sets_pass_every_pair_identity(n):
    """(c): D times the residual of (a) is a sum of the terms P_k X_ak X_bk, so
    it is 0 when no hypothesis is updated by both rows; with D in place of
    (D - P_i), or without the right side's factor D, it is not."""
    D, P, _, _, X_a, X_b, K = kernel(n)
    updates = total(p * x * y for p, x, y in zip(P, X_a, X_b))
    for i in range(n):
        both = P[i] * X_a[i] * X_b[i]
        residual = K * (D - P[i]) - both
        assert D * residual == (D - P[i]) * updates - D * both, i
        assert D * residual != D * updates - D * both, i
        assert D * residual != (D - P[i]) * updates - both, i


def free_kernel(n):
    """D, n free priors P_1..P_n (no total imposed), the rows a and b, and the
    residuals of (a) and the X of both rows, with the variables numbered D, P,
    a, b."""
    count = 1 + 3 * n
    D, *rest = [Poly.var(j, count) for j in range(count)]
    P, a, b = rest[:n], rest[n : 2 * n], rest[2 * n :]
    t_a, t_b = total(p * x for p, x in zip(P, a)), total(p * y for p, y in zip(P, b))
    X_a, X_b = [D * x - t_a for x in a], [D * y - t_b for y in b]
    K = D * total(p * x * y for p, x, y in zip(P, a, b)) - t_a * t_b
    residuals = [K * (D - P[i]) - P[i] * X_a[i] * X_b[i] for i in range(n)]
    return D, P, a, b, residuals, X_a, X_b


def relabel(n, swap, blocks):
    """Variable numbering that swaps cells ``swap`` within each named block of
    n variables (0: priors, 1: row a, 2: row b), leaving D in place."""
    target = list(range(1 + 3 * n))
    for block in blocks:
        i, j = (1 + block * n + k for k in swap)
        target[i], target[j] = j, i
    return target


@pytest.mark.parametrize("n", range(2, 9))
def test_relabelling_cells_moves_the_residuals_and_the_updates(n):
    """(d): swapping cells k and k + 1 in P, a and b together sends the residual
    of (a) at cell i, and X_{a,i} and X_{b,i}, to those at the swapped cell;
    swapping them in P and a but not b, or in a alone, does not."""
    _, _, _, _, residuals, X_a, X_b = free_kernel(n)
    for k in range(n - 1):
        moved = [k + 1 if i == k else k if i == k + 1 else i for i in range(n)]
        together = relabel(n, (k, k + 1), (0, 1, 2))
        for i in range(n):
            assert residuals[i].renamed(together) == residuals[moved[i]], (k, i)
            assert X_a[i].renamed(together) == X_a[moved[i]], (k, i)
            assert X_b[i].renamed(together) == X_b[moved[i]], (k, i)
        not_b, a_alone = relabel(n, (k, k + 1), (0, 1)), relabel(n, (k, k + 1), (1,))
        assert residuals[k].renamed(not_b) != residuals[k + 1], k
        assert X_a[k].renamed(a_alone) != X_a[k + 1], k


@pytest.mark.parametrize("n", range(3, 9))
def test_a_row_never_updates_exactly_one_hypothesis(n):
    """(e): sum_k P_k X_ak = 0 when the priors total D; with free priors it is
    t_a (D - sum_k P_k), and without the weights P_k it is not 0."""
    D, P, _, _, X_a, _, _ = kernel(n)
    assert total(p * x for p, x in zip(P, X_a)) == Poly({})
    assert total(X_a) != Poly({})
    D, P, a, _, _, X_a, _ = free_kernel(n)
    t_a = total(p * x for p, x in zip(P, a))
    weighted = total(p * x for p, x in zip(P, X_a))
    assert weighted == t_a * (D - total(P)) != Poly({})
