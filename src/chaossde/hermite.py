"""Normalized (probabilists') Hermite polynomials and product expectations.

``hermite_table`` evaluates H_0..H_n with E[H_n(xi)^2] = 1 for standard
normal xi.  ``triple_scalar`` gives E[H_a H_b H_c] for one coordinate;
``galerkin_tensor`` multiplies it over coordinates and collects the
products over an index set for the Galerkin projection of quadratic
coefficients and the third moment.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IndexSetTooLarge, OrderTooLarge
from .multiindex import INDEX_DTYPE, IndexSet

MAX_ORDER = 64
# Largest Galerkin tensor built, in entries (32 bytes each, so 1 GiB): a
# full p=5, k=16 set (32,261,733 entries) fits, p=6, k=16 (598,753,821) not.
MAX_TENSOR_ENTRIES = 1 << 25
# Candidate targets formed at a time, in dense cells: holds the working
# memory of the tensor build to about 20 MB above its output (at p=4, k=16
# the build peaks at 88 MB for 66 MB of output).
BLOCK_CELLS = 1 << 20


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds the cap {MAX_ORDER}")


def hermite_table(n_max: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values H_0(x)..H_{n_max}(x), stacked along the first axis.

    The table is filled into ``out`` (shape ``(n_max+1,) + x.shape``) when
    given, else into a new C-contiguous array.  The recurrence reads x back
    from ``out[1]``, so ``x`` is copied there unless it is that row already.
    Row 0 holds the subtrahend sqrt(m) H_{m-1} while the rows above it are
    formed, and is reset to 1.0 at the end; no other memory is taken.
    """
    _check_order(n_max)
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1 and not (x.ctypes.data == out[1].ctypes.data
                           and x.strides == out[1].strides):
        out[1] = x
    for m in range(1, n_max):  # (x H_m - sqrt(m) H_{m-1}) / sqrt(m+1), in place
        np.multiply(out[1], out[m], out=out[m + 1])
        if m > 1:  # at m = 1 the subtrahend is H_0 = 1.0 itself
            np.multiply(math.sqrt(m), out[m - 1], out=out[0])
        out[m + 1] -= out[0]
        out[m + 1] /= math.sqrt(m + 1)
    if n_max > 2:
        out[0] = 1.0
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


def product_expansion(beta: Sequence[int], gamma: Sequence[int]):
    """Yield ``(alpha, weight)`` with Psi^b Psi^c = sum_a weight * Psi^a.

    ``beta``, ``gamma`` and each ``alpha`` are dense rows of one length;
    alpha comes in ascending lexicographic order.  Weights are
    E[Psi^b Psi^c Psi^a], multiplied over the union support in ascending
    coordinate order from 1.0; per coordinate the orders run from
    |b_i - c_i| to b_i + c_i in steps of two, so no weight is zero.
    """
    coords = [i for i, (b, c) in enumerate(zip(beta, gamma, strict=True)) if b or c]
    choices = [[(a, triple_scalar(beta[i], gamma[i], a))
                for a in range(abs(beta[i] - gamma[i]), beta[i] + gamma[i] + 1, 2)]
               for i in coords]
    alpha = [0] * len(beta)
    for combo in itertools.product(*choices):
        weight = 1.0
        for i, (a, t) in zip(coords, combo):
            alpha[i] = a
            weight *= t
        yield tuple(alpha), weight


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
    """The Galerkin tensor of ``index_set``, built once per set and kept with it.

    Its arrays are read-only and shared by every system and third moment of
    the set, and so by every solve of the spec it was enumerated from.

    Entries come ordered by b, then c, then a in ascending lexicographic
    order, with weights multiplied coordinate by coordinate from the left,
    exactly as summing ``product_expansion(b, c)`` over the pairs b <= c
    would give them.  Tensors above ``MAX_TENSOR_ENTRIES`` candidate
    entries raise ``IndexSetTooLarge`` before any entry is built, and a
    full set's before its lower-set relation is.
    """
    return index_set.cached("galerkin", _build_galerkin_tensor)


def _build_galerkin_tensor(index_set: IndexSet) -> GalerkinTensor:
    """One self-join of the set over its lower sets.

    Psi^b Psi^c = sum over m <= b, m <= c of weight * Psi^(b + c - 2m): per
    coordinate, orders run from |b_i - c_i| to b_i + c_i in steps of two.
    Every pair (x, m <= x) is listed once, and grouping the pairs by m
    pairs each (b, m) with the rows c >= m.  In canonical order those c
    that follow b and keep |a| <= p are one run of m's group, so no
    candidate outside the run is formed; targets a missing from the set
    are dropped after the lookup.  The weight multiplies triple_scalar
    over supp(b) in ascending coordinate order from 1.0, as
    ``product_expansion`` does: a coordinate outside supp(b) would add the
    factor triple_scalar(0, c_i, c_i), and a padded support slot adds
    triple_scalar(0, 0, 0); both are exactly 1.0 (their log-space terms
    cancel exactly), so neither changes a bit.  No weight is zero: with
    m_i <= min(b_i, c_i) every factor has an even sum and
    s = b_i + c_i - m_i >= max(b_i, c_i, a_i).
    """
    n, k, p = len(index_set), index_set.k, index_set.max_order
    _check_order(p)
    if n == math.comb(k + p, p):  # the full set: its candidates have a closed form
        _check_tensor_size(index_set, full_candidates(p, k), "candidate entries")
    table = np.array([[[triple_scalar(a, b, c) for c in range(p + 1)]
                       for b in range(p + 1)] for a in range(p + 1)])
    orders = index_set.dense.sum(axis=1, dtype=np.intp)
    # supp(x) as ascending slots padded to width P: coordinate k (a zero
    # column appended to the rows) with value 0
    rows, cols, values, starts = index_set.support
    nnz = np.diff(starts)
    width = max(int(nnz.max(initial=0)), 1)
    slot = np.arange(len(rows)) - np.repeat(starts[:-1], nnz)
    sup_cols = np.full((width, n), k, dtype=np.intp)
    sup_cols[slot, rows] = cols
    sup_vals = np.zeros((width, n), dtype=INDEX_DTYPE)
    sup_vals[slot, rows] = values
    padded = np.zeros((n, k + 1), dtype=INDEX_DTYPE)
    padded[:, :k] = index_set.dense

    # lower-set relation: pair r of row x is the r-th m <= x in the order
    # of itertools.product(range(x_i, -1, -1) for i in supp(x))
    lower = np.prod(sup_vals + 1.0, axis=0)
    # in a set closed under lowering each pair (x, m) is also the entry
    # (b, c, m) = (m, x, m), so this refuses no set the entry count admits
    _check_tensor_size(index_set, lower.sum(), "lower-set pairs")
    lower = lower.astype(np.intp)
    rel_bounds = np.concatenate([[0], np.cumsum(lower)])
    rel_x = np.repeat(np.arange(n), lower)
    rank = np.arange(len(rel_x)) - np.repeat(rel_bounds[:-1], lower)
    m_vals = np.empty((width, len(rel_x)), dtype=INDEX_DTYPE)
    for j in range(width - 1, -1, -1):
        top = sup_vals[j][rel_x]
        m_vals[j] = top - rank % (top + 1)
        rank //= top + 1
    m_orders = m_vals.sum(axis=0, dtype=np.intp)

    # group the pairs by m.  A non-zero m_i codes as i * (p + 1) + m_i, a
    # zero as a code above them all; each pair's codes, sorted, key its m.
    zero_code = (k + 1) * (p + 1)
    codes = np.empty((len(rel_x), width), dtype=np.min_scalar_type(zero_code))
    for j in range(width):
        codes[:, j] = np.where(m_vals[j] > 0, sup_cols[j][rel_x] * (p + 1) + m_vals[j],
                               zero_code)
    codes.sort(axis=1)
    group = np.unique(codes.view(f"V{codes.itemsize * width}").ravel(),
                      return_inverse=True)[1].ravel()
    del codes
    # members of a group in canonical row order; the pairs already come by
    # row, so a stable sort by group keeps it
    by_group = np.argsort(group, kind="stable")
    member = rel_x[by_group]
    start = np.empty_like(by_group)
    start[by_group] = np.arange(len(by_group))
    # c follows b in its group (from b's own slot) while |c| <= p + 2|m| - |b|
    run_key = group[by_group] * (p + 1) + orders[member]
    limit = np.minimum(p + 2 * m_orders - orders[rel_x], p)
    stop = np.searchsorted(run_key, group * (p + 1) + limit, side="right")
    count = np.maximum(stop - start, 0)
    per_b = np.add.reduceat(count, rel_bounds[:-1])  # m = 0: every row has a pair
    total = int(per_b.sum())
    _check_tensor_size(index_set, total, "candidate entries")

    # blocks of consecutive b: those whose candidates start in the same
    # BLOCK_CELLS cells of targets (a block overruns by at most one b)
    done = np.cumsum(per_b) - per_b
    block = done // max(BLOCK_CELLS // (k + 1), 1)
    b_bounds = np.append(np.flatnonzero(np.diff(block, prepend=-1)), n)
    out = GalerkinTensor(np.empty(total, dtype=np.intp), np.empty(total, dtype=np.intp),
                         np.empty(total, dtype=np.intp), np.empty(total))
    filled = 0
    for b0, b1 in zip(b_bounds[:-1], b_bounds[1:]):
        r0, r1 = rel_bounds[b0], rel_bounds[b1]
        runs = count[r0:r1]
        pair = np.repeat(np.arange(r0, r1), runs)
        offset = np.arange(len(pair)) - np.repeat(np.cumsum(runs) - runs, runs)
        left = rel_x[pair]
        right = member[start[pair] + offset]
        alpha = padded[right]
        cells = alpha.reshape(-1)
        row_start = np.arange(0, alpha.size, k + 1)
        weights = np.ones(len(pair))
        for j in range(width):
            cell = row_start + sup_cols[j][left]
            b_j = sup_vals[j][left]
            c_j = cells[cell]
            a_j = b_j + c_j - 2 * m_vals[j][pair]
            cells[cell] = a_j
            weights = weights * table[b_j, c_j, a_j]
        targets = index_set.positions(alpha[:, :k])
        # candidates come by (b, r, c): a stable sort by (b, c) keeps r, and
        # so a, ascending within each (b, c)
        keep = np.flatnonzero(targets >= 0)
        keep = keep[np.argsort(left[keep] * n + right[keep], kind="stable")]
        left, right, weights = left[keep], right[keep], weights[keep]
        end = filled + len(keep)
        out.targets[filled:end] = targets[keep]
        out.left[filled:end] = left
        out.right[filled:end] = right
        out.weights[filled:end] = np.where(left == right, weights, 2.0 * weights)
        filled = end
    # on full sets every candidate is an entry
    return out if filled == total else GalerkinTensor(*(a[:filled].copy() for a in out))


def full_candidates(p: int, k: int) -> int:
    """Candidate entries of the full set of order ``p`` on ``k`` coordinates.

    A candidate is an unordered pair b = m + x, c = m + y with target
    a = x + y, each of order at most p.  With N(i) indices of order i, T
    counts the ordered triples (m, x, y) by their orders (i, j, l) and D
    those with x = y, which are their own mirror image; so (T + D) / 2.
    """
    count = [math.comb(i + k - 1, i) for i in range(p + 1)]
    t = sum(count[i] * count[j] * count[l] for i in range(p + 1) for j in range(p + 1 - i)
            for l in range(min(p - i, p - j) + 1))
    d = sum(count[i] * count[j] for j in range(p // 2 + 1) for i in range(p + 1 - j))
    return (t + d) // 2


def _check_tensor_size(index_set: IndexSet, count, what: str) -> None:
    if count > MAX_TENSOR_ENTRIES:
        raise IndexSetTooLarge(
            f"the Galerkin tensor of {len(index_set)} indices needs {int(count)} {what}, "
            f"above the cap of {MAX_TENSOR_ENTRIES}")
