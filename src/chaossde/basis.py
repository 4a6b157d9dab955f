"""Orthonormal bases of L^2([0, T]) with closed-form antiderivatives.

Three families are provided, selected by token:

``trig``   e_1 = 1, e_{2j}(t) = sqrt(2) sin(2 pi j t),
           e_{2j+1}(t) = sqrt(2) cos(2 pi j t)  (full-period Fourier).
``haar``   e_1 = 1 plus the Haar wavelets, flat-indexed level by level.
``klcos``  e_l(t) = sqrt(2) cos((l - 1/2) pi t); its antiderivatives
           sqrt(2) sin((l - 1/2) pi t) / ((l - 1/2) pi) are the
           Karhunen-Loeve modes of Brownian motion, which makes this the
           basis behind the reference variance-error benchmark.

All formulas are stated on [0, 1]; for a general horizon T arguments are
rescaled t -> t/T and values scaled by 1/sqrt(T), which preserves
orthonormality.  Antiderivatives E_l(t) = int_0^t e_l(s) ds are closed
form throughout: the basis-truncation error analysis depends on them
exactly, so they are never obtained by quadrature.

Antiderivative formulas used (T = 1):
    trig:  E_1(t) = t,
           E_{2j}(t)   = (1 - cos(2 pi j t)) / (sqrt(2) pi j),
           E_{2j+1}(t) = sin(2 pi j t) / (sqrt(2) pi j)
           (direct integration of sqrt(2) cos(2 pi j t)).
    haar:  triangular hat of height 2^{-(n+1)/2} over the element support.
    klcos: E_l(t) = sqrt(2) sin((l - 1/2) pi t) / ((l - 1/2) pi).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfDomain

KINDS = ("trig", "haar", "klcos")
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BasisSpec:
    """Basis family plus time horizon."""

    kind: str
    horizon: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {KINDS}")
        if not 0 < self.horizon < float("inf"):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")


def make_basis(token: str, horizon: float = 1.0) -> BasisSpec:
    return BasisSpec(token, horizon)


@lru_cache(maxsize=None)
def _haar_geometry(k: int):
    """Support corners (L, M, R) and heights for flat indices 2..k on [0, 1]."""
    ls = np.arange(2, k + 1)
    ns = np.array([int(l - 1).bit_length() for l in ls], dtype=float)
    js = ls - 2 ** (ns.astype(int) - 1)
    left = 2.0 ** (-ns + 1) * (js - 1)
    mid = 2.0 ** (-ns) * (2 * js - 1)
    right = 2.0 ** (-ns + 1) * js
    height = 2.0 ** ((ns - 1) / 2.0)
    return left, mid, right, height


def _check_domain(spec: BasisSpec, t: float) -> float:
    if not 0.0 <= t <= spec.horizon:
        raise OutOfDomain(f"t={t!r} outside [0, {spec.horizon}]")
    return t / spec.horizon


def haar_cell(spec: BasisSpec, breaks: list[float], t: float) -> int:
    """Cell of ``t``: the number of ``breaks`` (``breakpoints`` as a list) at or before it."""
    _check_domain(spec, t)
    return bisect_right(breaks, t)


def element_values(spec: BasisSpec, k: int, t: float) -> np.ndarray:
    """Values (e_1(t), ..., e_k(t)) as a vector.

    Haar elements use the right-continuous convention at interior dyadic
    breakpoints; the final sub-interval reaching T is closed at T.
    """
    return element_evaluator(spec, k)(t)


@lru_cache(maxsize=16)
def element_evaluator(spec: BasisSpec, k: int):
    """The function ``t -> element_values(spec, k, t)``, its constants computed once.

    Haar elements are constant between their ``breakpoints``: their values
    are a per-cell sign table, indexed by ``haar_cell``, times the heights.
    The smooth families skip the scale on the unit horizon, where
    x * 1.0 == x bit for bit.
    """
    scale = spec.horizon ** -0.5
    if spec.kind == "klcos":
        w = (np.arange(1, k + 1) - 0.5) * np.pi

        def values(t: float) -> np.ndarray:
            out = SQRT2 * np.cos(w * _check_domain(spec, t))
            return out if scale == 1.0 else out * scale
    elif spec.kind == "trig":
        ls = np.arange(2, k + 1)
        freq = 2.0 * np.pi * (ls // 2)
        even = ls % 2 == 0

        def values(t: float) -> np.ndarray:
            arg = freq * _check_domain(spec, t)
            out = np.concatenate(([1.0], SQRT2 * np.where(even, np.sin(arg), np.cos(arg))))
            return out if scale == 1.0 else out * scale
    else:
        breaks = breakpoints(spec, k).tolist()
        cells = len(breaks) + 1
        left, mid, right, height = _haar_geometry(k)
        xc = (np.arange(cells) / cells)[:, None]
        signs = np.ones((cells, k), dtype=np.int8)
        signs[:, 1:] = ((xc >= left) & (xc < mid)).view(np.int8)  # rising half
        signs[:, 1:] -= ((xc >= mid) & (xc < right)).view(np.int8)  # falling half
        heights = np.concatenate(([1.0], height)) * scale

        def values(t: float) -> np.ndarray:
            return signs[haar_cell(spec, breaks, t)] * heights
    return values


def antiderivative_grid(spec: BasisSpec, k: int, ts: np.ndarray) -> np.ndarray:
    """Matrix E_l(t) with shape ``(len(ts), k)``, closed form per element."""
    if k < 1:
        raise ValueError(f"need k >= 1 basis elements, got {k}")
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() > spec.horizon):
        raise OutOfDomain("grid extends outside the basis horizon")
    x = ts / spec.horizon
    scale = spec.horizon ** 0.5
    out = np.empty((len(x), k))
    if spec.kind == "klcos":
        w = (np.arange(1, k + 1) - 0.5) * np.pi
        out[:] = np.sqrt(2.0) * np.sin(np.outer(x, w)) / w
    elif spec.kind == "trig":
        out[:, 0] = x
        if k > 1:
            ls = np.arange(2, k + 1)
            js = ls // 2
            arg = 2.0 * np.pi * np.outer(x, js)
            sin_part = (1.0 - np.cos(arg)) / (np.sqrt(2.0) * np.pi * js)
            cos_part = np.sin(arg) / (np.sqrt(2.0) * np.pi * js)
            out[:, 1:] = np.where(ls % 2 == 0, sin_part, cos_part)
    else:
        out[:, 0] = x
        if k > 1:
            left, mid, right, height = _haar_geometry(k)
            xc = x[:, None]
            rising = height * (xc - left)
            falling = height * (right - xc)
            out[:, 1:] = np.where((xc >= left) & (xc <= mid), rising,
                                  np.where((xc > mid) & (xc <= right), falling, 0.0))
    return out * scale


def kl_partial(spec: BasisSpec, k: int, t: float) -> float:
    """Partial sum  sum_{l<=k} E_l(t)^2.

    This is the variance of the k-term Karhunen-Loeve approximation of
    W_t in the chosen basis; it increases to E[W_t^2] = t as k grows.
    """
    _check_domain(spec, t)
    return float(kl_partial_grid(spec, k, np.array([t]))[0])


def kl_partial_grid(spec: BasisSpec, k: int, ts: np.ndarray) -> np.ndarray:
    E = antiderivative_grid(spec, k, ts)
    return np.einsum("ij,ij->i", E, E)


def composite_simpson(values: np.ndarray, xs: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an even panel count."""
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 3 or len(xs) % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of grid points (>= 3)")
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


# Points of the Simpson grid of ``tail_sum``, which holds a (TAIL_POINTS, k) float64 matrix.
TAIL_POINTS = 1025


def tail_sum(spec: BasisSpec, k: int, t: float) -> float:
    """Basis-truncation tail  sum_{l>k} (E_l(t)^2 + int_0^t E_l(tau)^2 dtau).

    By Parseval the full sum over l of E_l(tau)^2 equals tau exactly, so the
    tail is the complement tau - kl_partial(k, tau); the time integral is
    evaluated by composite Simpson on ``TAIL_POINTS`` equidistant points of [0, t].
    For the trigonometric family this tail decays like 1/k; for Haar with
    k = 2^n it halves per level.
    """
    _check_domain(spec, t)
    grid = np.linspace(0.0, t, TAIL_POINTS)
    point_part = max(t - kl_partial(spec, k, t), 0.0)
    integrand = np.maximum(grid - kl_partial_grid(spec, k, grid), 0.0)
    return point_part + composite_simpson(integrand, grid)


def breakpoints(spec: BasisSpec, k: int) -> np.ndarray:
    """Interior discontinuity times of e_1..e_k (forced integrator splits).

    Haar elements jump on the dyadic grid of their level; all interior
    multiples of the finest level's resolution are returned.  The smooth
    families have none.
    """
    if spec.kind != "haar" or k < 2:
        return np.empty(0)
    cells = 2 ** (k - 1).bit_length()  # the finest level L = ceil(log2 k)
    return spec.horizon * np.arange(1, cells) / cells
