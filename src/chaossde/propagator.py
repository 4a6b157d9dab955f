"""Coefficient ODE system of the truncated chaos expansion.

For dX = b(X) dt + sigma(X) dW with polynomial b and sigma of degree at
most two and constant coefficients, the deterministic coefficient functions
x_a(t) of the expansion X_t = sum_a x_a(t) Psi^a satisfy

    x_a'(t) = b_a(t) + sum_j sqrt(a_j) e_j(t) sigma_{a^-(j)}(t),
    x_a(0)  = x0 * 1_{a = 0},

where b_a(t) / sigma_a(t) are the expansion coefficients of b(X_t) and
sigma(X_t).  Constant terms feed only the zero index, linear terms act
diagonally, and quadratic terms are Galerkin-projected back onto the
truncated index set through expected triple products.  The diffusion
enters through the ladder sum over diminished indices a^-(j), which
strictly lowers the total order, so the assembled system is
lower-triangular in chaos order for affine models.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .errors import InvalidSparseIndex, NotATrajectory, NotGbm, TimeNotOnGrid
from .hermite import galerkin_tensor
# unused here; kept bound because the benchmark's tracer rebinds this name
from .hermite import product_expansion  # noqa: F401
from .integrator import ToleranceSpec, integrate, keep_states
from .multiindex import IndexSet, TruncationSpec, enumerate_indices


def _real(value) -> float:
    """``value`` as a float; ``TypeError`` unless it is a real number."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"need a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SdeModel:
    """Scalar SDE with polynomial coefficients of degree <= 2.

    ``drift`` and ``diffusion`` are triples ``(c0, c1, c2)`` representing
    c0 + c1 x + c2 x^2.  Each coefficient and ``x0`` must be a real number
    (``TypeError`` for text, a callable or another object, ``ValueError``
    for a triple of another length), and all are stored as floats.
    """

    drift: tuple[float, float, float]
    diffusion: tuple[float, float, float]
    x0: float

    def __post_init__(self):
        for name in ("drift", "diffusion"):
            values = tuple(getattr(self, name))
            if len(values) != 3:
                raise ValueError(f"{name} needs three coefficients c0, c1, c2, got {values!r}")
            object.__setattr__(self, name, tuple(map(_real, values)))
        object.__setattr__(self, "x0", _real(self.x0))

    @classmethod
    def gbm(cls, mu: float, sigma: float, x0: float) -> "SdeModel":
        """Geometric Brownian motion dX = mu X dt + sigma X dW."""
        return cls((0.0, mu, 0.0), (0.0, sigma, 0.0), x0)

    @property
    def is_affine(self) -> bool:
        return self.drift[2] == 0 and self.diffusion[2] == 0


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
    and with what weight, ``ladder``) and the Galerkin tensor for quadratic
    terms (``hermite.galerkin_tensor``) depend on the index set alone, so
    both are built once per set and kept with it: every system of one set,
    whatever its model or basis, shares their read-only arrays, and a set
    lives as long as the spec it was enumerated from.  A system binds the
    model, the basis's element evaluator and its breakpoints, so evaluating
    it inside an adaptive integrator touches only flat arrays.  Instances
    are callable as ``system(t, y)`` and expose the assembly for inspection.

    On a basis with breakpoints (Haar, k >= 2) the ladder sum runs over one
    cell's entries: those whose element is non-zero in the cell of ``t``,
    kept for one cell at a time (steps never cross a breakpoint).  A
    skipped entry would add an exact +-0 to a bin sum that starts at +0.0,
    which changes no bit; with non-finite diffusion coefficients the full
    ladder keeps the NaN bits.
    """

    def __init__(self, model: SdeModel, index_set: IndexSet, basis: BasisSpec):
        self.model = model
        self.basis = basis
        self.n = len(index_set)
        self.k = index_set.k
        # the tensor first: an oversized one is refused before the ladder is built
        self.needs_quadratic = not model.is_affine
        if self.needs_quadratic:
            (self.quad_targets, self.quad_left, self.quad_right,
             self.quad_weights) = galerkin_tensor(index_set)
        (self.ladder_rows, self.ladder_js, self.ladder_srcs,
         self.ladder_weights) = index_set.cached("ladder", ladder)
        self._e0 = np.zeros(self.n)
        self._e0[0] = 1.0  # the set is closed under lowering: row 0 is the zero index
        self._element_values = basis_mod.element_evaluator(basis, self.k)
        self._breaks = basis_mod.breakpoints(basis, self.k).tolist()
        # (cell, rows, srcs, weight * e_j) of the last cell, replaced whole
        self._cell_ladder = (-1, None, None, None)

    def _project(self, c0: float, c1: float, c2: float, y: np.ndarray,
                 quad: np.ndarray | None) -> np.ndarray:
        out = c1 * y if c1 != 0.0 else np.zeros_like(y)
        if c0 != 0.0:
            out = out + c0 * self._e0
        if c2 != 0.0:
            out = out + c2 * quad
        return out

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        (b0, b1, b2), (g0, g1, g2) = self.model.drift, self.model.diffusion
        quad = None
        if self.needs_quadratic and (b2 != 0.0 or g2 != 0.0):
            quad = np.bincount(
                self.quad_targets,
                weights=self.quad_weights * y[self.quad_left] * y[self.quad_right],
                minlength=self.n)
        out = self._project(b0, b1, b2, y, quad)
        sigma_coeffs = self._project(g0, g1, g2, y, quad)
        if self._breaks and np.isfinite(sigma_coeffs).all():
            cell = basis_mod.haar_cell(self.basis, self._breaks, t)
            if cell != self._cell_ladder[0]:
                self._cell_ladder = self._ladder_in(cell, t)
            _, rows, srcs, products = self._cell_ladder
            out += np.bincount(rows, weights=products * sigma_coeffs[srcs], minlength=self.n)
            return out
        e_vals = self._element_values(t)
        contrib = self.ladder_weights * e_vals[self.ladder_js] * sigma_coeffs[self.ladder_srcs]
        out += np.bincount(self.ladder_rows, weights=contrib, minlength=self.n)
        return out

    def _ladder_in(self, cell: int, t: float) -> tuple:
        """``cell`` (holding ``t``) and its ladder entries whose element is non-zero."""
        e_at = self._element_values(t)[self.ladder_js]
        keep = np.flatnonzero(e_at)
        return (cell, self.ladder_rows[keep], self.ladder_srcs[keep],
                self.ladder_weights[keep] * e_at[keep])


def ladder(index_set: IndexSet) -> tuple[np.ndarray, ...]:
    """``(rows, js, srcs, weights)`` of the ladder sum, which systems keep
    with the set (``IndexSet.cached``).

    Entry e adds ``weights[e] * e_{js[e]}(t) * sigma[srcs[e]]`` to row
    ``rows[e]``: srcs[e] is the ordinal of that row lowered by one unit at
    coordinate js[e], and weights[e] the square root of that coordinate's
    entry in the row.  The entries are the set's ``support``, by row then
    coordinate.  A set that is not closed under lowering raises
    ``InvalidSparseIndex``.
    """
    rows, js, orders, _ = index_set.support
    lowered = index_set.dense[rows]
    lowered[np.arange(len(lowered)), js] -= 1
    srcs = index_set.positions(lowered)
    if np.any(srcs < 0):
        raise InvalidSparseIndex("index set is not downward closed: an index "
                                 "lowered by one unit is missing")
    return rows, js, srcs, np.sqrt(orders.astype(float))


def build_rhs(model: SdeModel, index_set: IndexSet, basis: BasisSpec) -> PropagatorSystem:
    """Assemble the coefficient system; the result is the rhs callable."""
    return PropagatorSystem(model, index_set, basis)


def initial_state(model: SdeModel, index_set: IndexSet) -> np.ndarray:
    y0 = np.zeros(len(index_set))
    y0[0] = model.x0  # the zero index is ordinal 0
    return y0


def checked_grid(grid, horizon: float) -> np.ndarray:
    """``grid`` as floats; ``ValueError`` unless it has 2 points or more, from 0 to ``horizon``."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValueError(f"grid needs at least 2 points, got {len(grid)}")
    if grid[0] != 0.0 or grid[-1] != horizon:
        raise ValueError("grid must run from 0 to the basis horizon")
    return grid


def solve(model: SdeModel, spec: TruncationSpec, basis: BasisSpec,
          grid, tol: ToleranceSpec | None = None, observe=keep_states) -> ChaosSolution:
    """Integrate the coefficient system and sample it on ``grid``.

    The grid must increase strictly from 0 to the basis horizon.  Haar
    discontinuity times are passed to the integrator as forced split
    points so each dyadic cell is integrated as a smooth piece.
    ``observe`` reduces the trajectory as it is made (see ``integrate``).
    """
    grid = checked_grid(grid, basis.horizon)
    index_set = enumerate_indices(spec)
    system = build_rhs(model, index_set, basis)
    rows = integrate(system, initial_state(model, index_set), grid, tol,
                     breakpoints=basis_mod.breakpoints(basis, index_set.k), observe=observe)
    return ChaosSolution(index_set=index_set, grid=grid, rows=rows, observe=observe)


def gbm_parameters(model: SdeModel) -> tuple[float, float]:
    """(mu, sigma) of dX = mu X dt + sigma X dW; ``NotGbm`` for other shapes."""
    (b0, mu, b2), (g0, sigma, g2) = model.drift, model.diffusion
    if any((b0, b2, g0, g2)):  # -0.0 counts as zero, NaN does not
        raise NotGbm("closed form needs constant x^1 terms and no others")
    return mu, sigma
