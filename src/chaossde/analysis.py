"""Moments, error curves, and rate shapes for truncated expansions.

The first two moments of the truncation come directly from the coefficient
vector: the mean is the zero-index coefficient and the second moment is the
sum of squared coefficients (orthonormality of the basis functionals).
Higher moments need expected triple products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, tail_sum
from .errors import NonFiniteValue, NonPositiveValue
from .hermite import galerkin_tensor
# unused here; kept bound because the benchmark's tracer rebinds this name
from .hermite import product_expansion  # noqa: F401
from .propagator import ChaosSolution


@dataclass(frozen=True)
class ErrorCurve:
    """Absolute variance error over a time grid.

    ``values[m] = |exact_var[m] - approx_var[m]|``; ``error_at_T`` is the
    last value and ``error_max`` the maximum over the grid.
    """

    values: np.ndarray
    exact_var: np.ndarray
    approx_var: np.ndarray

    @property
    def error_at_T(self) -> float:
        return float(self.values[-1])

    @property
    def error_max(self) -> float:
        return float(self.values.max())


def moments(sol: ChaosSolution, t: float) -> tuple[float, float]:
    """Mean and variance of the truncated expansion at a grid time.

    mean = x_0(t); variance = sum of x_a(t)^2 over non-zero indices.  An
    overflowed mean or variance raises ``NonFiniteValue``.
    """
    row = sol.coeffs_at(t)
    mean = float(row[0])  # the zero index is ordinal 0
    with np.errstate(over="ignore", invalid="ignore"):  # the raise below reports it
        variance = float(row @ row - mean * mean)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise NonFiniteValue("mean or variance is not finite", time=t)
    return mean, max(variance, 0.0)


def moment_columns(coeffs: np.ndarray) -> np.ndarray:
    """Mean and sum of squares of each row of a ``(rows, n)`` coefficient block.

    An ``observe`` function for ``solve``: a solution solved with it holds
    these two columns as its rows instead of the trajectory.
    """
    return np.column_stack((coeffs[:, 0], np.einsum("ij,ij->i", coeffs, coeffs)))


def moment_curves(sol: ChaosSolution) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance on the whole solution grid."""
    cols = sol.rows if sol.observe is moment_columns else moment_columns(sol.coeffs)
    means = cols[:, 0]
    return means, np.maximum(cols[:, 1] - means * means, 0.0)


def third_moment(sol: ChaosSolution, t: float) -> float:
    """E[(X^{p,k}_t)^3] = sum over index triples of x_a x_b x_c E[Psi^a Psi^b Psi^c].

    That sum is x . Q(x, x) for the Galerkin tensor Q of the index set,
    the tensor the quadratic coefficient system uses; it is built once per
    index set and shared.
    """
    x = sol.coeffs_at(t)
    q = galerkin_tensor(sol.index_set)
    return float(np.dot(q.weights * x[q.left] * x[q.right], x[q.targets]))


def gbm_variance_exact(mu: float, sigma: float, x0: float, t) -> np.ndarray | float:
    """Var(X_t) = x0^2 exp(2 mu t) (exp(sigma^2 t) - 1) for geometric BM."""
    t = np.asarray(t, dtype=float)
    out = x0 * x0 * np.exp(2.0 * mu * t) * (np.exp(sigma * sigma * t) - 1.0)
    return float(out) if out.ndim == 0 else out


def gbm_variance_order_limit(mu: float, sigma: float, x0: float, p: int, t) -> np.ndarray:
    """Variance of the order-p truncation with an exhausted basis (k -> inf).

    For geometric BM this is x0^2 exp(2 mu t) sum_{m=1..p} (sigma^2 t)^m / m!;
    the gap to the exact variance is the pure chaos-order truncation error,
    which is what remains at times the basis captures exactly.
    """
    t = np.asarray(t, dtype=float)
    s = sum((sigma * sigma * t) ** m / math.factorial(m) for m in range(1, p + 1))
    return x0 * x0 * np.exp(2.0 * mu * t) * s


def error_curve(sol: ChaosSolution, exact_var) -> ErrorCurve:
    """Pointwise |exact - approximated| variance over the solution grid.

    ``exact_var`` is a vectorized callable of time.  An overflowed moment,
    exact variance or error raises ``NonFiniteValue`` at its first grid time.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the raise below reports it
        # the exact variance's temporaries before the moments, the error in
        # place: at most six grid-length float64 columns are held at once
        exact = np.asarray(exact_var(sol.grid), dtype=float)
        means, approx = moment_curves(sol)
        values = np.subtract(exact, approx)
        np.abs(values, out=values)
    bad = ~(np.isfinite(means) & np.isfinite(values))
    if bad.any():
        raise NonFiniteValue("variance or its error is not finite",
                             time=float(sol.grid[bad.argmax()]))
    return ErrorCurve(values=values, exact_var=exact, approx_var=approx)


def bound_shape(basis: BasisSpec, p: int, k: int, t: float, x0: float) -> float:
    """Rate shape (1 + x0^2) (1/(p+1)! + tail_sum(k, t)) with unit constant.

    The true error bound carries a non-constructive constant, so this
    quantity is meaningful only through ratios and slopes, never as a
    certified bound.
    """
    if p < 0 or k < 1:
        raise ValueError("need p >= 0 and k >= 1")
    return (1.0 + x0 * x0) * (1.0 / math.factorial(p + 1) + tail_sum(basis, k, t))


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares fit of log(ys) against log(xs): slope, intercept, R^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(np.unique(xs)) < 3:
        raise ValueError("need at least 3 distinct x values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise NonPositiveValue("log-log fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2

