"""Coefficient ODE system of the truncated chaos expansion.

For dX = b(t, X) dt + sigma(t, X) dW with polynomial b and sigma of degree
at most two, the deterministic coefficient functions x_a(t) of the
expansion X_t = sum_a x_a(t) Psi^a satisfy

    x_a'(t) = b_a(t) + sum_j sqrt(a_j) e_j(t) sigma_{a^-(j)}(t),
    x_a(0)  = x0 * 1_{a = 0},

where b_a / sigma_a are the expansion coefficients of b(t, X_t) and
sigma(t, X_t).  Constant terms feed only the zero index, linear terms act
diagonally, and quadratic terms are Galerkin-projected back onto the
truncated index set through expected triple products.  The diffusion
enters through the ladder sum over diminished indices a^-(j), which
strictly lowers the total order, so the assembled system is
lower-triangular in chaos order for affine models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .errors import InvalidSparseIndex, NotBm, NotGbm, TimeNotOnGrid
from .hermite import galerkin_tensor
# unused here; kept bound because the benchmark's tracer rebinds this name
from .hermite import product_expansion  # noqa: F401
from .integrator import ToleranceSpec, integrate
from .multiindex import IndexSet, MultiIndex, TruncationSpec, enumerate_indices

Coefficient = Union[float, Callable[[float], float]]


def _as_value(c: Coefficient, t: float) -> float:
    return c(t) if callable(c) else c


def _is_zero(c: Coefficient) -> bool:
    return not callable(c) and c == 0


@dataclass(frozen=True)
class SdeModel:
    """Scalar SDE with polynomial coefficients of degree <= 2.

    ``drift`` and ``diffusion`` are triples ``(c0, c1, c2)`` representing
    c0(t) + c1(t) x + c2(t) x^2; each entry is a number or a callable of
    time, bounded on the horizon (the caller's obligation).
    """

    drift: tuple[Coefficient, Coefficient, Coefficient]
    diffusion: tuple[Coefficient, Coefficient, Coefficient]
    x0: float
    preset: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    @classmethod
    def gbm(cls, mu: float, sigma: float, x0: float) -> "SdeModel":
        """Geometric Brownian motion dX = mu X dt + sigma X dW."""
        return cls((0.0, mu, 0.0), (0.0, sigma, 0.0), x0,
                   preset="gbm", params=(("mu", mu), ("sigma", sigma)))

    @classmethod
    def bm(cls, b: float, sigma: float, x0: float) -> "SdeModel":
        """Scaled Brownian motion with drift X_t = x0 + b t + sigma W_t."""
        return cls((b, 0.0, 0.0), (sigma, 0.0, 0.0), x0,
                   preset="bm", params=(("b", b), ("sigma", sigma)))

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def drift_at(self, t: float) -> tuple[float, float, float]:
        return tuple(_as_value(c, t) for c in self.drift)

    def diffusion_at(self, t: float) -> tuple[float, float, float]:
        return tuple(_as_value(c, t) for c in self.diffusion)

    @property
    def is_affine(self) -> bool:
        return _is_zero(self.drift[2]) and _is_zero(self.diffusion[2])


@dataclass(frozen=True)
class ChaosSolution:
    """Coefficient trajectories on a time grid.

    ``coeffs[m, n]`` is the coefficient of the n-th index of ``index_set``
    at grid time m; row 0 carries the initial condition x0 at the zero
    index and zeros elsewhere.
    """

    index_set: IndexSet
    grid: np.ndarray
    coeffs: np.ndarray
    basis: BasisSpec
    model: SdeModel | None = None
    truncation: TruncationSpec | None = None

    def grid_position(self, t: float) -> int:
        pos = int(np.searchsorted(self.grid, t))
        for cand in (pos - 1, pos, pos + 1):
            if 0 <= cand < len(self.grid) and abs(self.grid[cand] - t) <= 1e-12:
                return cand
        raise TimeNotOnGrid(f"t={t!r} is not a grid time")


class PropagatorSystem:
    """Assembled right-hand side of the coefficient ODE system.

    The ladder structure (which diminished coefficient feeds which index,
    and with what weight) and the Galerkin tensor for quadratic terms
    (``hermite.galerkin_tensor``, kept with the index set) are precomputed,
    so evaluating the system inside an adaptive integrator touches only
    flat arrays.  Instances are callable as
    ``system(t, y)`` and expose the assembly for inspection.
    """

    def __init__(self, model: SdeModel, index_set: IndexSet, basis: BasisSpec):
        self.model = model
        self.index_set = index_set
        self.basis = basis
        self.n = len(index_set)
        self.k = index_set.k
        self.zero_ordinal = index_set.position_of(MultiIndex.zero())

        dense = index_set.dense
        rows, js = np.nonzero(dense)
        lowered = dense[rows]
        lowered[np.arange(len(rows)), js] -= 1
        self.ladder_rows = rows
        self.ladder_js = js
        self.ladder_srcs = index_set.positions(lowered)
        if np.any(self.ladder_srcs < 0):
            raise InvalidSparseIndex("index set is not downward closed: an index "
                                     "lowered by one unit is missing")
        self.ladder_weights = np.sqrt(dense[rows, js].astype(float))

        self.needs_quadratic = not (_is_zero(model.drift[2]) and _is_zero(model.diffusion[2]))
        if self.needs_quadratic:
            (self.quad_targets, self.quad_left, self.quad_right,
             self.quad_weights) = galerkin_tensor(index_set)
        self._e0 = np.zeros(self.n)
        self._e0[self.zero_ordinal] = 1.0

    def _project(self, c0: float, c1: float, c2: float, y: np.ndarray,
                 quad: np.ndarray | None) -> np.ndarray:
        out = c1 * y if c1 != 0.0 else np.zeros_like(y)
        if c0 != 0.0:
            out = out + c0 * self._e0
        if c2 != 0.0:
            out = out + c2 * quad
        return out

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        b0, b1, b2 = self.model.drift_at(t)
        g0, g1, g2 = self.model.diffusion_at(t)
        quad = None
        if self.needs_quadratic and (b2 != 0.0 or g2 != 0.0):
            quad = np.bincount(
                self.quad_targets,
                weights=self.quad_weights * y[self.quad_left] * y[self.quad_right],
                minlength=self.n)
        out = self._project(b0, b1, b2, y, quad)
        sigma_coeffs = self._project(g0, g1, g2, y, quad)
        e_vals = basis_mod.element_values(self.basis, self.k, t)
        contrib = self.ladder_weights * e_vals[self.ladder_js] * sigma_coeffs[self.ladder_srcs]
        out += np.bincount(self.ladder_rows, weights=contrib, minlength=self.n)
        return out


def build_rhs(model: SdeModel, index_set: IndexSet, basis: BasisSpec) -> PropagatorSystem:
    """Assemble the coefficient system; the result is the rhs callable."""
    return PropagatorSystem(model, index_set, basis)


def initial_state(model: SdeModel, index_set: IndexSet) -> np.ndarray:
    y0 = np.zeros(len(index_set))
    y0[index_set.position_of(MultiIndex.zero())] = model.x0
    return y0


def solve(model: SdeModel, spec: TruncationSpec, basis: BasisSpec,
          grid, tol: ToleranceSpec | None = None) -> ChaosSolution:
    """Integrate the coefficient system and sample it on ``grid``.

    The grid must increase strictly from 0 to the basis horizon.  Haar
    discontinuity times are passed to the integrator as forced split
    points so each dyadic cell is integrated as a smooth piece.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or abs(grid[-1] - basis.horizon) > 1e-12:
        raise ValueError("grid must run from 0 to the basis horizon")
    index_set = enumerate_indices(spec)
    system = build_rhs(model, index_set, basis)
    traj = integrate(system, initial_state(model, index_set),
                     (0.0, basis.horizon), grid, tol,
                     breakpoints=basis_mod.breakpoints(basis, index_set.k))
    return ChaosSolution(index_set=index_set, grid=grid, coeffs=traj,
                         basis=basis, model=model, truncation=spec)


def closed_form_gbm_grid(model: SdeModel, index_set: IndexSet, basis: BasisSpec,
                         ts) -> np.ndarray:
    """Exact coefficients of geometric Brownian motion, shape (len(ts), n).

    x_a(t) = x0 sigma^|a| exp(mu t) prod_j E_j(t)^{a_j} / sqrt(a!).
    The recursion behind it is triangular, so the expression is exact for
    every index of any truncated set.
    """
    if model.preset != "gbm":
        raise NotGbm("closed form requires the gbm preset")
    ts = np.asarray(ts, dtype=float)
    mu, sigma = model.param("mu"), model.param("sigma")
    E = basis_mod.antiderivative_grid(basis, index_set.k, ts)
    growth = model.x0 * np.exp(mu * ts)
    out = np.empty((len(ts), len(index_set)))
    for n, alpha in enumerate(index_set):
        col = growth * sigma ** alpha.order / np.sqrt(alpha.factorial())
        for coord, a in alpha:
            col = col * E[:, coord - 1] ** a
        out[:, n] = col
    return out


def closed_form_bm(model: SdeModel, alpha: MultiIndex, basis: BasisSpec,
                   t: float) -> float:
    """Exact coefficient of Brownian motion with drift.

    The expansion terminates at order one: the mean coefficient is
    x0 + b t, order-one coefficients are sigma E_j(t), everything else
    vanishes.
    """
    if model.preset != "bm":
        raise NotBm("closed form requires the bm preset")
    if alpha.is_zero:
        return model.x0 + model.param("b") * t
    if alpha.order == 1:
        return model.param("sigma") * basis_mod.eval_E(basis, alpha.degree, t)
    return 0.0
