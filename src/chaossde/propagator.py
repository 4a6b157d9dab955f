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
from .errors import InvalidSparseIndex, NotATrajectory, NotGbm, TimeNotOnGrid
from .hermite import galerkin_tensor
# unused here; kept bound because the benchmark's tracer rebinds this name
from .hermite import product_expansion  # noqa: F401
from .integrator import ToleranceSpec, integrate, keep_states
from .multiindex import IndexSet, TruncationSpec, enumerate_indices

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

    @classmethod
    def gbm(cls, mu: float, sigma: float, x0: float) -> "SdeModel":
        """Geometric Brownian motion dX = mu X dt + sigma X dW."""
        return cls((0.0, mu, 0.0), (0.0, sigma, 0.0), x0)

    @classmethod
    def bm(cls, b: float, sigma: float, x0: float) -> "SdeModel":
        """Scaled Brownian motion with drift X_t = x0 + b t + sigma W_t."""
        return cls((b, 0.0, 0.0), (sigma, 0.0, 0.0), x0)

    def drift_at(self, t: float) -> tuple[float, float, float]:
        return tuple(_as_value(c, t) for c in self.drift)

    def diffusion_at(self, t: float) -> tuple[float, float, float]:
        return tuple(_as_value(c, t) for c in self.diffusion)

    @property
    def is_affine(self) -> bool:
        return _is_zero(self.drift[2]) and _is_zero(self.diffusion[2])


@dataclass(frozen=True)
class ChaosSolution:
    """Coefficient rows on a time grid, as ``observe`` (see ``integrate``) left them.

    With the default ``keep_states``, ``coeffs[m, n]`` is the coefficient of
    the n-th index of ``index_set`` at grid time m; row 0 carries x0 at the
    zero index and zeros elsewhere.
    """

    index_set: IndexSet
    grid: np.ndarray
    rows: np.ndarray
    observe: Callable = keep_states

    @property
    def coeffs(self) -> np.ndarray:
        """The trajectory; ``NotATrajectory`` if solved with another ``observe``."""
        if self.observe is not keep_states:
            raise NotATrajectory("a solution solved with observe holds no coefficients")
        return self.rows

    def coeffs_at(self, t: float) -> np.ndarray:
        """The coefficient vector at the grid time within 1e-12 of ``t``."""
        pos = int(np.searchsorted(self.grid, t))
        for cand in (pos - 1, pos):  # the grid times on either side of t
            if 0 <= cand < len(self.grid) and abs(self.grid[cand] - t) <= 1e-12:
                return self.coeffs[cand]
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
        self.basis = basis
        self.n = len(index_set)
        self.k = index_set.k

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

        self.needs_quadratic = not model.is_affine
        if self.needs_quadratic:
            (self.quad_targets, self.quad_left, self.quad_right,
             self.quad_weights) = galerkin_tensor(index_set)
        self._e0 = np.zeros(self.n)
        self._e0[0] = 1.0  # the set is closed under lowering: row 0 is the zero index
        self._element_values = basis_mod.element_evaluator(basis, self.k)
        # constant coefficients are read once, callables on every call
        self._drift, self._diffusion = (None if any(map(callable, c)) else tuple(c)
                                        for c in (model.drift, model.diffusion))

    def _project(self, c0: float, c1: float, c2: float, y: np.ndarray,
                 quad: np.ndarray | None) -> np.ndarray:
        out = c1 * y if c1 != 0.0 else np.zeros_like(y)
        if c0 != 0.0:
            out = out + c0 * self._e0
        if c2 != 0.0:
            out = out + c2 * quad
        return out

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        b0, b1, b2 = self._drift or self.model.drift_at(t)
        g0, g1, g2 = self._diffusion or self.model.diffusion_at(t)
        quad = None
        if self.needs_quadratic and (b2 != 0.0 or g2 != 0.0):
            quad = np.bincount(
                self.quad_targets,
                weights=self.quad_weights * y[self.quad_left] * y[self.quad_right],
                minlength=self.n)
        out = self._project(b0, b1, b2, y, quad)
        sigma_coeffs = self._project(g0, g1, g2, y, quad)
        e_vals = self._element_values(t)
        contrib = self.ladder_weights * e_vals[self.ladder_js] * sigma_coeffs[self.ladder_srcs]
        out += np.bincount(self.ladder_rows, weights=contrib, minlength=self.n)
        return out


def build_rhs(model: SdeModel, index_set: IndexSet, basis: BasisSpec) -> PropagatorSystem:
    """Assemble the coefficient system; the result is the rhs callable."""
    return PropagatorSystem(model, index_set, basis)


def initial_state(model: SdeModel, index_set: IndexSet) -> np.ndarray:
    y0 = np.zeros(len(index_set))
    y0[0] = model.x0  # the zero index is ordinal 0
    return y0


def solve(model: SdeModel, spec: TruncationSpec, basis: BasisSpec,
          grid, tol: ToleranceSpec | None = None, observe=keep_states) -> ChaosSolution:
    """Integrate the coefficient system and sample it on ``grid``.

    The grid must increase strictly from 0 to the basis horizon.  Haar
    discontinuity times are passed to the integrator as forced split
    points so each dyadic cell is integrated as a smooth piece.
    ``observe`` reduces the trajectory as it is made (see ``integrate``).
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValueError(f"grid needs at least 2 points, got {len(grid)}")
    if grid[0] != 0.0 or grid[-1] != basis.horizon:
        raise ValueError("grid must run from 0 to the basis horizon")
    index_set = enumerate_indices(spec)
    system = build_rhs(model, index_set, basis)
    rows = integrate(system, initial_state(model, index_set), grid, tol,
                     breakpoints=basis_mod.breakpoints(basis, index_set.k), observe=observe)
    return ChaosSolution(index_set=index_set, grid=grid, rows=rows, observe=observe)


def gbm_parameters(model: SdeModel) -> tuple[float, float]:
    """(mu, sigma) of dX = mu X dt + sigma X dW; ``NotGbm`` for other shapes."""
    (b0, mu, b2), (g0, sigma, g2) = model.drift, model.diffusion
    if callable(mu) or callable(sigma) or not all(map(_is_zero, (b0, b2, g0, g2))):
        raise NotGbm("closed form needs constant x^1 terms and no others")
    return mu, sigma
