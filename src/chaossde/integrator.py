"""Adaptive embedded Runge-Kutta 5(4) integrator (Dormand-Prince pair).

Explicit DOPRI5 with the classical tableau, scaled-RMS error control and
the standard quartic dense-output interpolant.  A sorted list of known
discontinuity times can be supplied; steps are then forcibly split at
those times, and the right-endpoint stages of a step that lands on one are
evaluated one ulp to the left so each smooth piece is integrated as its
own smooth extension.  Without this, an adaptive step across a jump in
the right-hand side degrades to first order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceeded, StepSizeUnderflow

# Butcher tableau, Dormand & Prince (1980), 5(4) pair.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Fifth-order weights equal the last A row (FSAL pair); error weights are
# the difference against the embedded fourth-order solution.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Dense-output coefficients of the standard quartic interpolant.
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)
# The weights as columns against the (stages, n) block of stage values.
_A_COLS = tuple(np.array(row).reshape(-1, 1) for row in _A)
_E_COL, _D_COL = (np.array(w).reshape(-1, 1) for w in (_E, _D))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = 0.2
# Step attempts before integration gives up with MaxStepsExceeded.
MAX_STEPS = 10_000_000
# Dense output evaluates a step's grid points together, in blocks of at most
# this many cells (points times state size): unbounded, n = 20,349 ran slower.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class ToleranceSpec:
    """Error-control settings; the defaults are the CLI's ``--rtol``/``--atol``.

    They keep the solver's error far below the truncation errors ``table1`` reports,
    where scipy's 1e-3 / 1e-6 gave an apparent 6e-3 coefficient error on GBM."""

    rtol: float = 1e-6
    atol: float = 1e-9

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.rtol, self.atol)):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"rtol={self.rtol!r}, atol={self.atol!r}")


def _rms(v: np.ndarray) -> float:
    # what np.mean computes, without its Python wrapper
    return math.sqrt(np.add.reduce(v * v) / v.size) if v.size else 0.0


def _initial_step(rhs, t0, y0, f0, t_end, tol: ToleranceSpec) -> float:
    span = t_end - t0
    sc = tol.atol + tol.rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not 0.0 < h0 < math.inf:  # overflow or NaN in the first norms
        raise StepSizeUnderflow("initial step size is not finite and positive", time=t0)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, span)


def keep_states(rows: np.ndarray) -> np.ndarray:
    """The default ``observe``: the states, copied out of the stage as it flushes."""
    return rows


def integrate(rhs, y0, output_grid, tol: ToleranceSpec = ToleranceSpec(),
              breakpoints=(), observe=keep_states) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` and sample the dense output on a grid.

    Parameters
    ----------
    rhs : callable ``(t, y) -> dy/dt``
    y0 : initial state vector
    output_grid : strictly increasing times; integration runs from first to last
    tol : :class:`ToleranceSpec`
    breakpoints : times at which steps are forcibly split
    observe : row-wise map of a ``(rows, len(y0))`` block of states to
        ``(rows, m)``, run on a staging buffer of at least 2 rows as it fills

    Returns the observed rows, shape ``(len(output_grid), m)``: with the
    default ``keep_states``, the states themselves; any other ``observe``
    never holds all states.  Identical inputs produce bit-identical results:
    stage sums run ((0 + a_0 k_0) + a_1 k_1) + ... as ``sum()`` did, the
    error and r5 sums ((w_0 k_0 + w_2 k_2) + w_3 k_3) + ... (w_1 = 0 skipped).
    """
    grid = np.asarray(output_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("output grid must be strictly increasing")
    t0, t_end = float(grid[0]), float(grid[-1])

    y = np.array(y0, dtype=float).copy()
    n = y.size
    block = max(BLOCK_CELLS // max(n, 1), 2)
    stage = np.zeros((block, n))  # grid rows land here and flush through observe
    stage[0] = y
    out = np.empty((len(grid), *observe(stage).shape[1:]))
    base, gi = 0, 1  # grid index of stage row 0, and of the next row to fill

    def flush(filled: int) -> None:
        nonlocal base
        if filled in (base + block, len(grid)):  # a full stage, or the last rows
            # the whole stage, stale rows too: einsum sums 1-row blocks differently
            out[base:filled] = observe(stage)[:filled - base]
            base = filled

    stops = sorted({float(b) for b in np.asarray(breakpoints).ravel() if t0 < b < t_end})
    stops.append(t_end)
    si = 0

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed step is rejected
        t = t0
        f_now = np.asarray(rhs(t, y), dtype=float)
        h_prop = _initial_step(rhs, t0, y, f_now, t_end, tol)
        abs_y = np.abs(y)  # |y| of the step start, kept from the last accepted step

        k = np.empty((7, n))
        terms = np.empty((7, n))  # tableau weight times stage, row by row
        acc = np.empty(n)
        n_attempts = 0
        while t < t_end:
            while stops[si] <= t:
                si += 1
            target = stops[si]
            if n_attempts >= MAX_STEPS:
                raise MaxStepsExceeded("step budget exhausted", time=t)
            h = min(h_prop, target - t)
            if h < 1e-14 * max(abs(t), 1.0):
                raise StepSizeUnderflow("step size underflow", time=t)
            forced = h >= (target - t) * (1.0 - 1e-12)
            if forced:
                h = target - t
            t_new = target if forced else t + h
            inside = forced and si < len(stops) - 1  # keep right-end stages in this piece

            k[0] = f_now
            for s in range(1, 7):
                ts = math.nextafter(t_new, t) if inside and _C[s] == 1.0 else t + _C[s] * h
                np.multiply(k[:s], _A_COLS[s], out=terms[:s])
                np.add.reduce(terms[:s], axis=0, out=acc, initial=0.0)
                acc *= h
                ys = y + acc
                k[s] = rhs(ts, ys)
            y_new = ys  # FSAL: the last stage is evaluated at the fifth-order solution
            # h * (E0 k0 + E2 k2 + ... + E6 k6): row 0 takes row 1's (E1 = 0); -0.0 adds exactly
            np.multiply(k, _E_COL, out=terms)
            terms[1] = terms[0]
            np.add.reduce(terms[1:], axis=0, out=acc, initial=-0.0)
            acc *= h
            abs_new = np.abs(y_new)
            sc = tol.atol + tol.rtol * np.maximum(abs_y, abs_new)
            err = _rms(np.divide(acc, sc, out=acc))
            if not math.isfinite(err):
                err = math.inf  # overflow/nan in the rhs: force a strong shrink
            n_attempts += 1

            if err <= 1.0:
                stop = int(grid.searchsorted(t_new, side="right"))
                end = stop - 1 if grid[stop - 1] == t_new else stop
                if end > gi:
                    ydiff = y_new - y
                    bspl = h * k[0] - ydiff
                    r4 = ydiff - h * k[6] - bspl
                    np.multiply(k, _D_COL, out=terms)  # D1 = 0: summed as the error
                    terms[1] = terms[0]
                    r5 = np.add.reduce(terms[1:], axis=0, initial=-0.0)
                    r5 *= h
                    lo = gi
                    while lo < end:  # blocks end where the stage fills
                        hi = min(end, base + block)
                        theta = ((grid[lo:hi] - t) / h)[:, None]
                        theta1 = 1.0 - theta
                        # y + theta (ydiff + theta1 (bspl + theta (r4 + theta1 r5))), in place
                        rows = np.multiply(r5, theta1, out=stage[lo - base:hi - base])
                        for term, factor in ((r4, theta), (bspl, theta1), (ydiff, theta)):
                            rows += term
                            rows *= factor
                        rows += y
                        flush(hi)
                        lo = hi
                if stop > end:
                    stage[end - base] = y_new  # a point at the step end takes its end state
                    flush(stop)
                gi = stop
                t = t_new
                y, abs_y = y_new, abs_new
                if t < t_end:
                    # FSAL: the last stage already evaluated f at the step end (copied:
                    # a rejected attempt overwrites k[6]), except at a breakpoint.
                    f_now = np.asarray(rhs(t, y), dtype=float) if forced else k[6].copy()
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT))
                h_prop = h * factor
            else:
                h_prop = h * max(_MIN_FACTOR, min(1.0, _SAFETY * err ** -_EXPONENT))
    return out
