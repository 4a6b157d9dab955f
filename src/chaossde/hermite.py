"""Normalized (probabilists') Hermite polynomials and product expectations.

``hermite_n`` evaluates H_n with E[H_n(xi)^2] = 1 for standard normal xi.
``triple_scalar``/``triple_multi`` give expectations of products of two and
three basis functionals; ``galerkin_tensor`` collects them over an index
set for the Galerkin projection of quadratic coefficients and the third
moment.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, OrderTooLarge
from .multiindex import INDEX_DTYPE, IndexSet, MultiIndex

MAX_ORDER = 64


def hermite_n(n: int, x: float) -> float:
    """Normalized Hermite polynomial H_n(x).

    Uses the stable three-term recurrence
    H_{n+1}(x) = (x H_n(x) - sqrt(n) H_{n-1}(x)) / sqrt(n+1)
    with H_0 = 1, H_1(x) = x.  Orders above 64 are rejected.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds the cap {MAX_ORDER}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for m in range(1, n):
        prev, cur = cur, (x * cur - math.sqrt(m) * prev) / math.sqrt(m + 1)
    return cur


def hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Values H_0(x)..H_{n_max}(x), stacked along the first axis."""
    if n_max > MAX_ORDER:
        raise OrderTooLarge(f"order {n_max} exceeds the cap {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for m in range(1, n_max):
        out[m + 1] = (x * out[m] - math.sqrt(m) * out[m - 1]) / math.sqrt(m + 1)
    return out


def psi(alpha: MultiIndex, xi: Sequence[float]) -> float:
    """Product functional prod_i H_{a_i}(xi_i); the empty product is 1."""
    if alpha.degree > len(xi):
        raise DimensionMismatch(
            f"index touches coordinate {alpha.degree} but only {len(xi)} draws given")
    out = 1.0
    for i, a in alpha:
        out *= hermite_n(a, float(xi[i - 1]))
    return out


def triple_scalar(a: int, b: int, c: int) -> float:
    """E[H_a(xi) H_b(xi) H_c(xi)] for one standard normal xi.

    Non-zero only when s = (a+b+c)/2 is an integer with s >= max(a,b,c); the
    value is sqrt(a! b! c!) / ((s-a)! (s-b)! (s-c)!), computed in log space
    to stay finite near the order cap.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("orders must be non-negative")
    a, b, c = sorted((a, b, c))  # bitwise-identical under permutations
    tot = a + b + c
    if tot % 2:
        return 0.0
    s = tot // 2
    if s < c:
        return 0.0
    log_val = 0.5 * (math.lgamma(a + 1) + math.lgamma(b + 1) + math.lgamma(c + 1))
    log_val -= math.lgamma(s - a + 1) + math.lgamma(s - b + 1) + math.lgamma(s - c + 1)
    return math.exp(log_val)


def triple_multi(alpha: MultiIndex, beta: MultiIndex, gamma: MultiIndex) -> float:
    """E[Psi^a Psi^b Psi^c] = prod_i triple_scalar(a_i, b_i, c_i).

    Coordinates are independent, so the expectation factorizes.
    """
    coords = {i for i, _ in alpha} | {i for i, _ in beta} | {i for i, _ in gamma}
    out = 1.0
    for i in coords:
        out *= triple_scalar(alpha[i], beta[i], gamma[i])
        if out == 0.0:
            return 0.0
    return out


def product_expansion(beta: MultiIndex, gamma: MultiIndex):
    """Yield ``(alpha, weight)`` with Psi^b Psi^c = sum_a weight * Psi^a.

    Weights are E[Psi^b Psi^c Psi^a]; per coordinate the contributing orders
    run from |b_i - c_i| to b_i + c_i in steps of two.
    """
    coords = sorted({i for i, _ in beta} | {i for i, _ in gamma})
    choices: list[list[tuple[int, int, float]]] = []
    for i in coords:
        b, c = beta[i], gamma[i]
        opts = []
        for a in range(abs(b - c), b + c + 1, 2):
            opts.append((i, a, triple_scalar(b, c, a)))
        choices.append(opts)

    def rec(pos: int, pairs: tuple[tuple[int, int], ...], w: float):
        if w == 0.0:
            return
        if pos == len(choices):
            yield MultiIndex(pairs), w
            return
        for i, a, t in choices[pos]:
            yield from rec(pos + 1, pairs + ((i, a),) if a else pairs, w * t)

    yield from rec(0, (), 1.0)


class GalerkinTensor(NamedTuple):
    """Entries of Psi^b Psi^c = sum_a weight * Psi^a projected onto a set.

    Entry e couples ordinals ``left[e] <= right[e]`` into ``targets[e]``;
    ``weights[e]`` is E[Psi^a Psi^b Psi^c], doubled when b != c so that
    sum_e weights[e] x[left[e]] x[right[e]] over the entries with
    ``targets[e] == a`` is the a-th coefficient of X^2.
    """

    targets: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weights: np.ndarray


def galerkin_tensor(index_set: IndexSet) -> GalerkinTensor:
    """The Galerkin tensor of ``index_set``, built once per set.

    Entries come ordered by b, then c, then a in ascending lexicographic
    order, with weights multiplied coordinate by coordinate from the left,
    exactly as summing ``product_expansion(b, c)`` over the pairs b <= c
    would give them.
    """
    return index_set.cached("galerkin", _build_galerkin_tensor)


def _build_galerkin_tensor(index_set: IndexSet) -> GalerkinTensor:
    # Psi^b Psi^c = sum over m <= min(b, c) of weight * Psi^(b + c - 2m):
    # per coordinate, orders run from |b_i - c_i| to b_i + c_i in steps of
    # two.  Coordinates outside supp(b) contribute the factor
    # triple_scalar(0, c_i, c_i) = 1.0 exactly, so only supp(b) enters.
    dense = index_set.dense
    n, p = len(index_set), index_set.max_order
    if p > MAX_ORDER:
        raise OrderTooLarge(f"order {p} exceeds the cap {MAX_ORDER}")
    table = np.array([[[triple_scalar(a, b, c) for c in range(p + 1)]
                       for b in range(p + 1)] for a in range(p + 1)])
    orders = dense.sum(axis=1)
    parts = []
    for b_ord in range(n):
        beta = dense[b_ord]
        support = np.flatnonzero(beta)
        # every m <= beta on its support, lexicographically descending, so
        # that a = b + c - 2m ascends
        lowered = list(itertools.product(*(range(v, -1, -1) for v in beta[support])))
        lowered = np.array(lowered, dtype=INDEX_DTYPE).reshape(len(lowered), len(support))
        gammas = dense[b_ord:, support]
        fits = (lowered[None, :, :] <= gammas[:, None, :]).all(axis=2)
        fits &= (orders[b_ord] + orders[b_ord:, None]
                 - 2 * lowered.sum(axis=1)[None, :]) <= p
        c_off, m_ord = np.nonzero(fits)
        alpha = dense[b_ord + c_off]
        alpha[:, support] += beta[support] - 2 * lowered[m_ord]
        targets = index_set.positions(alpha)
        found = targets >= 0
        c_off, alpha, targets = c_off[found], alpha[found], targets[found]
        weights = np.ones(len(targets))
        for i in support:
            weights = weights * table[beta[i], dense[b_ord + c_off, i], alpha[:, i]]
        keep = weights != 0.0
        c_off, targets, weights = c_off[keep], targets[keep], weights[keep]
        parts.append((targets, np.full(len(targets), b_ord, dtype=np.intp),
                      b_ord + c_off, np.where(c_off == 0, weights, 2.0 * weights)))
    return GalerkinTensor(*(np.concatenate(column) for column in zip(*parts)))
