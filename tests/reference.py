"""Reference oracles the tests check the library against.

Scalar Hermite values and triple products, the exact GBM and Brownian-motion
coefficients, a Monte Carlo check of the Karhunen-Loeve partial sums, and
readers of the CLI's CSV output for round-trip and reference checks.
"""
import csv
import math
import typing
from typing import Sequence

import numpy as np

from chaossde.basis import BasisSpec, antiderivative_grid, kl_partial_grid
from chaossde.cli import ExperimentReport
from chaossde.errors import ChaosError
from chaossde.hermite import _check_order, triple_scalar
from chaossde.multiindex import IndexSet
from chaossde.oracle import RngSpec, _chunk_sums, normal_draws, pool_size
from chaossde.propagator import SdeModel, gbm_parameters


class NotBm(ChaosError):
    """Closed form requires a model of Brownian-motion-with-drift shape."""


def hermite_n(n: int, x: float) -> float:
    """Normalized Hermite polynomial H_n(x).

    Uses the stable three-term recurrence
    H_{n+1}(x) = (x H_n(x) - sqrt(n) H_{n-1}(x)) / sqrt(n+1)
    with H_0 = 1, H_1(x) = x.  Orders above 64 are rejected.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    _check_order(n)
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for m in range(1, n):
        prev, cur = cur, (x * cur - math.sqrt(m) * prev) / math.sqrt(m + 1)
    return cur


def triple_multi(alpha: Sequence[int], beta: Sequence[int],
                 gamma: Sequence[int]) -> float:
    """E[Psi^a Psi^b Psi^c] = prod_i triple_scalar(a_i, b_i, c_i) over dense rows.

    Coordinates are independent, so the expectation factorizes.
    """
    out = 1.0
    for orders in zip(alpha, beta, gamma, strict=True):
        out *= triple_scalar(*orders)
    return out


def closed_form_gbm_grid(model: SdeModel, index_set: IndexSet, basis: BasisSpec,
                         ts) -> np.ndarray:
    """Exact coefficients of geometric Brownian motion, shape (len(ts), n).

    x_a(t) = x0 sigma^|a| exp(mu t) prod_j E_j(t)^{a_j} / sqrt(a!).
    The recursion behind it is triangular, so the expression is exact for
    every index of any truncated set.  Other model shapes raise ``NotGbm``.
    """
    mu, sigma = gbm_parameters(model)
    ts = np.asarray(ts, dtype=float)
    E = antiderivative_grid(basis, index_set.k, ts)
    growth = model.x0 * np.exp(mu * ts)
    out = np.empty((len(ts), len(index_set)))
    for n, row in enumerate(index_set.dense.tolist()):
        col = growth * sigma ** sum(row) / np.sqrt(math.prod(map(math.factorial, row)))
        for j, a in enumerate(row):
            if a:
                col = col * E[:, j] ** a
        out[:, n] = col
    return out


def closed_form_bm(model: SdeModel, index_set: IndexSet, basis: BasisSpec,
                   ts) -> np.ndarray:
    """Exact coefficients of Brownian motion with drift, shape (len(ts), n).

    The expansion terminates at order one: the mean coefficient is
    x0 + b t, order-one coefficients are sigma E_j(t), everything else
    vanishes.  Other model shapes raise ``NotBm``.
    """
    (b, *drift_rest), (sigma, *diffusion_rest) = model.drift, model.diffusion
    if (callable(b) or callable(sigma)
            or any(callable(c) or c != 0 for c in (*drift_rest, *diffusion_rest))):
        raise NotBm("closed form needs constant x^0 terms and no others")
    ts = np.asarray(ts, dtype=float)
    dense = index_set.dense
    orders = dense.sum(axis=1)
    E = antiderivative_grid(basis, index_set.k, ts)
    out = np.zeros((len(ts), len(index_set)))
    out[:, orders == 0] = (model.x0 + b * ts)[:, None]
    first = np.flatnonzero(orders == 1)
    out[:, first] = sigma * E[:, dense[first].argmax(axis=1)]
    return out


def kl_path_check(basis: BasisSpec, k: int, t_grid, n_paths: int,
                  rng: RngSpec) -> float:
    """Worst standardized deviation of the sampled partial-sum variance.

    Samples sum_{l<=k} E_l(t) xi_l over the grid and compares its sample
    variance against kl_partial(k, t); the return value is the largest
    |deviation| / se over the grid.
    """
    threads = pool_size(n_paths)
    t_grid = np.asarray(t_grid, dtype=float)
    E = antiderivative_grid(basis, k, t_grid)  # (G, k)
    target = kl_partial_grid(basis, k, t_grid)

    def worker(gen: np.random.Generator, size: int) -> np.ndarray:
        xi = normal_draws(gen, (size, k))
        paths = xi @ E.T  # (size, G)
        return np.stack([paths.sum(axis=0), (paths ** 2).sum(axis=0),
                         (paths ** 4).sum(axis=0)])

    total = _chunk_sums(worker, rng, n_paths, threads)
    mean = total[0] / n_paths
    m2 = np.maximum(total[1] / n_paths - mean ** 2, 0.0)
    # the process is centered, so the raw fourth moment is the central one
    m4 = total[2] / n_paths
    se = np.sqrt(np.maximum(m4 - m2 * m2, 1e-300) / n_paths)
    dev = np.abs(m2 - target)
    return float(np.max(np.where(dev == 0.0, 0.0, dev / se)))


def read_report_csv(path: str) -> list[ExperimentReport]:
    """The reports of a ``table1`` CSV, each field parsed to its declared type."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if tuple(rows[0]) != ExperimentReport.FIELDS:
        raise ValueError("not a report CSV")
    types = typing.get_type_hints(ExperimentReport)
    return [ExperimentReport(*(types[name](v) for name, v in zip(ExperimentReport.FIELDS, row)))
            for row in rows[1:]]


def read_curve_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a ``fig1`` curve CSV by name."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}
