"""Integrator, coefficient system and basis values against loop oracles.

The oracles are the code the buffered versions replaced: the DOPRI5 loop
with generator stage sums and per-point dense output, the right-hand side
that reads the SDE coefficients and the basis values afresh on every call,
over the system's ladder or the row-major one it replaced, and the
per-call basis formulas.  The operation order is unchanged, so
every trajectory, derivative and basis value must agree bit for bit, NaNs
and signed zeros included, and the integrator must call the right-hand
side exactly as often.  Moments streamed out of the dense output must equal
the moments of the whole trajectory bit for bit, too.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossde import integrator
from chaossde.analysis import moment_columns
from chaossde.basis import (BasisSpec, _check_domain, _haar_geometry, breakpoints,
                            element_evaluator, element_values)
from chaossde.errors import IntegratorFailure, MaxStepsExceeded, StepSizeUnderflow
from chaossde.integrator import _A, _C, _D, _E, ToleranceSpec, integrate
from chaossde.multiindex import FullTruncation, enumerate_indices
from chaossde.propagator import SdeModel, build_rhs, initial_state
from reference import bm_model, specs
from test_index_arrays import old_ladder


def old_element_values(spec, k, t):
    x = _check_domain(spec, t)
    scale = spec.horizon ** -0.5
    out = np.empty(k)
    if spec.kind == "klcos":
        w = (np.arange(1, k + 1) - 0.5) * np.pi
        out[:] = np.sqrt(2.0) * np.cos(w * x)
    elif spec.kind == "trig":
        out[0] = 1.0
        if k > 1:
            ls = np.arange(2, k + 1)
            js = ls // 2
            arg = 2.0 * np.pi * js * x
            out[1:] = np.sqrt(2.0) * np.where(ls % 2 == 0, np.sin(arg), np.cos(arg))
    else:
        out[0] = 1.0
        if k > 1:
            left, mid, right, height = _haar_geometry(k)
            vals = np.where((x >= left) & (x < mid), height,
                            np.where((x >= mid) & (x < right), -height, 0.0))
            if x == 1.0:
                vals = np.where(right == 1.0, -height, 0.0)
            out[1:] = vals
    return out * scale


def old_rhs(system, ladder=None):
    """``system``'s right-hand side, reading everything afresh per call.

    ``ladder`` is ``(rows, js, srcs, weights)``, by default the system's own
    with each entry's coordinate j spelt out.
    """
    if ladder is None:
        ladder = (system.ladder_rows, np.repeat(np.arange(system.k), system.ladder_counts),
                  system.ladder_srcs, system.ladder_weights)
    rows, js, srcs, weights = ladder

    def project(c0, c1, c2, y, quad):
        out = c1 * y if c1 != 0.0 else np.zeros_like(y)
        if c0 != 0.0:
            out = out + c0 * system._e0
        if c2 != 0.0:
            out = out + c2 * quad
        return out

    def rhs(t, y):
        b0, b1, b2 = system.model.drift
        g0, g1, g2 = system.model.diffusion
        quad = None
        if system.needs_quadratic and (b2 != 0.0 or g2 != 0.0):
            quad = np.bincount(
                system.quad_targets,
                weights=(system.quad_weights * np.repeat(y, system.quad_runs)
                         * y[system.quad_right]),
                minlength=system.n)
        out = project(b0, b1, b2, y, quad)
        sigma_coeffs = project(g0, g1, g2, y, quad)
        e_vals = old_element_values(system.basis, system.k, t)
        contrib = weights * e_vals[js] * sigma_coeffs[srcs]
        out += np.bincount(rows, weights=contrib, minlength=system.n)
        return out

    return rhs


def old_rms(v):
    return float(np.sqrt(np.mean(v * v))) if v.size else 0.0


def old_initial_step(rhs, t0, y0, f0, t_end, tol):
    span = t_end - t0
    sc = tol.atol + tol.rtol * np.abs(y0)
    d0 = old_rms(y0 / sc)
    d1 = old_rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = old_rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def old_integrate(rhs, y0, t_span, output_grid, tol=None, breakpoints=None):
    tol = tol or ToleranceSpec()
    t0, t_end = float(t_span[0]), float(t_span[1])
    grid = np.asarray(output_grid, dtype=float)
    y = np.array(y0, dtype=float).copy()
    n = y.size
    out = np.empty((len(grid), n))
    out[0] = y
    gi = 1
    stops = []
    if breakpoints is not None:
        stops = sorted({float(b) for b in np.asarray(breakpoints).ravel() if t0 < b < t_end})
    stops.append(t_end)
    si = 0
    t = t0
    f_now = np.asarray(rhs(t, y), dtype=float)
    h_prop = old_initial_step(rhs, t0, y, f_now, t_end, tol)
    k = np.empty((7, n))
    n_attempts = 0
    while t < t_end:
        while stops[si] <= t:
            si += 1
        target = stops[si]
        if n_attempts >= integrator.MAX_STEPS:
            raise MaxStepsExceeded("step budget exhausted", time=t)
        h = min(h_prop, target - t)
        if h < 1e-14 * max(abs(t), 1.0):
            raise StepSizeUnderflow("step size underflow", time=t)
        forced = h >= (target - t) * (1.0 - 1e-12)
        if forced:
            h = target - t
        t_new = target if forced else t + h
        k[0] = f_now
        for s in range(1, 7):
            ts = t + _C[s] * h
            if forced and _C[s] == 1.0 and si < len(stops) - 1:
                ts = math.nextafter(t_new, t)
            ys = y + h * sum(_A[s][m] * k[m] for m in range(s))
            k[s] = rhs(ts, ys)
        y_new = ys
        err_vec = h * (_E[0] * k[0] + _E[2] * k[2] + _E[3] * k[3]
                       + _E[4] * k[4] + _E[5] * k[5] + _E[6] * k[6])
        sc = tol.atol + tol.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = old_rms(err_vec / sc)
        if not math.isfinite(err):
            err = math.inf
        n_attempts += 1
        if err <= 1.0:
            rcont = None
            while gi < len(grid) and grid[gi] <= t_new:
                g = grid[gi]
                if g == t_new:
                    out[gi] = y_new
                else:
                    if rcont is None:
                        ydiff = y_new - y
                        bspl = h * k[0] - ydiff
                        r4 = ydiff - h * k[6] - bspl
                        r5 = h * (_D[0] * k[0] + _D[2] * k[2] + _D[3] * k[3]
                                  + _D[4] * k[4] + _D[5] * k[5] + _D[6] * k[6])
                        rcont = (ydiff, bspl, r4, r5)
                    ydiff, bspl, r4, r5 = rcont
                    theta = (g - t) / h
                    theta1 = 1.0 - theta
                    out[gi] = y + theta * (ydiff + theta1 * (bspl + theta * (r4 + theta1 * r5)))
                gi += 1
            t = t_new
            y = y_new
            if t < t_end:
                f_now = np.asarray(rhs(t, y), dtype=float) if forced else k[6].copy()
            factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
            h_prop = h * factor
        else:
            h_prop = h * max(0.2, min(1.0, 0.9 * err ** -0.2))
    return out


def outcome(run, rhs, *args, **kwargs):
    """(trajectory bytes or the failure, the times rhs was called at)."""
    times = []

    def counted(t, y):
        times.append(t)
        return rhs(t, y)

    try:
        result = run(counted, *args, **kwargs).tobytes()
    except IntegratorFailure as exc:
        result = (type(exc), exc.time)
    return result, times


MODELS = {
    "gbm": SdeModel.gbm(0.7, 1.3, 1.0),
    "bm": bm_model(-0.4, 0.9, 0.5),
    "logistic": SdeModel((0.0, 1.0, -1.0), (0.0, 0.5, 0.0), 0.5),
    # constant, linear and quadratic terms, so each branch of _project runs
    "mixed": SdeModel((0.3, -0.5, 0.0), (0.1, 0.8, 0.05), 1.0),
}
BASES = [BasisSpec(kind, horizon) for kind in ("klcos", "trig", "haar")
         for horizon in (1.0, 2.5)]


@st.composite
def problems(draw, max_p=3, max_k=9):
    """A model, a basis and a full or sparse set closed under lowering: only
    sparse sets drop Galerkin targets that fall outside them."""
    model = draw(st.sampled_from(sorted(MODELS)))
    basis = draw(st.sampled_from(BASES))
    spec = draw(specs(max_p=max_p, max_k=max_k, closed=True))
    return MODELS[model], basis, enumerate_indices(spec)


def solver_grid(draw, basis, k, step_ends):
    """Breakpoints, some times the solver stepped to, and random times."""
    T = basis.horizon
    picked = draw(st.lists(st.sampled_from(step_ends), max_size=8)) if step_ends else []
    free = draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                         max_size=40))
    return np.array(sorted({0.0, T, *breakpoints(basis, k), *picked, *free}))


class TestElementValues:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BASES), st.integers(1, 70), st.data())
    def test_matches_formula(self, basis, k, data):
        T = basis.horizon
        bps = breakpoints(basis, k).tolist()
        ts = [0.0, T, math.nextafter(T, 0.0), *bps,
              *(math.nextafter(b, 0.0) for b in bps),
              *data.draw(st.lists(st.floats(0.0, T), max_size=20))]
        for t in ts:
            assert element_values(basis, k, t).tobytes() == \
                old_element_values(basis, k, t).tobytes()

    def test_returns_a_fresh_array(self):
        basis = BasisSpec("haar", 2.5)
        first = element_values(basis, 8, 0.3)
        first[:] = 7.0
        assert element_values(basis, 8, 0.3).tobytes() == \
            old_element_values(basis, 8, 0.3).tobytes()

    def test_evaluator_is_built_once(self):
        assert element_evaluator(BasisSpec("klcos"), 5) is element_evaluator(BasisSpec("klcos"), 5)


class TestRhs:
    @settings(max_examples=150, deadline=None)
    @given(problems(), st.data())
    def test_matches_fresh_reads(self, problem, data):
        model, basis, index_set = problem
        system = build_rhs(model, index_set, basis)
        # moderate values too: at extremes a reordered product rounds or
        # overflows alike and goes unseen
        values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
            [0.0, -0.0, math.nan]) | st.floats(-1e3, 1e3)
        for _ in range(3):
            t = data.draw(st.floats(0.0, basis.horizon))
            y = np.array(data.draw(st.lists(values, min_size=len(index_set),
                                            max_size=len(index_set))))
            with np.errstate(all="ignore"):
                assert system(t, y).tobytes() == old_rhs(system)(t, y).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(problems(), st.data())
    def test_matches_the_row_major_ladder(self, problem, data):
        # by coordinate or by row, each bin adds the same values in the same order
        model, basis, index_set = problem
        system = build_rhs(model, index_set, basis)
        by_row = old_rhs(system, old_ladder(index_set))
        finite = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
        special = finite | st.sampled_from([math.nan, math.inf, -math.inf])
        times = st.sampled_from([0.0, *breakpoints(basis, index_set.k).tolist()])
        for _ in range(3):
            t = data.draw(times | st.floats(0.0, basis.horizon))
            # finite states take the Haar cell path, the others the full ladder
            for values in (finite, special):
                y = np.array(data.draw(st.lists(values, min_size=len(index_set),
                                                max_size=len(index_set))))
                with np.errstate(all="ignore"):
                    assert system(t, y).tobytes() == by_row(t, y).tobytes()


class TestIntegrate:
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.sampled_from([1e-3, 1e-7]), st.sampled_from([1, 3, 1 << 14]),
           st.data())
    def test_matches_loop(self, problem, rtol, block_cells, data):
        model, basis, index_set = problem
        system = build_rhs(model, index_set, basis)
        tol = ToleranceSpec(rtol=rtol, atol=rtol * 1e-3)
        y0 = initial_state(model, index_set)
        span = (0.0, basis.horizon)
        bps = breakpoints(basis, index_set.k)
        _, called = outcome(integrate, system, y0, [0.0, basis.horizon], tol, bps)
        grid = solver_grid(data.draw, basis, index_set.k, called)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "BLOCK_CELLS", block_cells)
            got = outcome(integrate, system, y0, grid, tol, bps)
        want = outcome(old_integrate, old_rhs(system), y0, span, grid, tol, bps)
        assert got == want

    def test_signed_zeros(self):
        # y0' = 2 y0 from -0.0 has -0.0 stages, but sum()'s integer start
        # makes the first stage sum +0.0, which y1' = sign(y0) shows
        def rhs(t, y):
            return np.array([2.0 * y[0], math.copysign(1.0, y[0])])

        y0 = np.array([-0.0, 0.0])
        grid = np.linspace(0.0, 1.0, 11)
        got = outcome(integrate, rhs, y0, grid)
        assert got == outcome(old_integrate, rhs, y0, (0.0, 1.0), grid)

    @pytest.mark.parametrize("threshold", [1.5, 3.0])
    def test_nan_rhs(self, threshold):
        # NaN wherever a too-long stage overshoots: rejected attempts, then
        # recovery; the last component turns NaN for good after t = 0.9
        def rhs(t, y):
            f = np.array([-40.0 * y[0], y[0] - y[1], 0.0 * y[2]])
            f[np.abs(y) > threshold] = math.nan
            if t > 0.9:
                f[2] = math.nan
            return f

        y0 = np.array([1.0, -0.0, 0.0])
        grid = np.linspace(0.0, 1.0, 41)
        got = outcome(integrate, rhs, y0, grid, ToleranceSpec(), [0.5])
        want = outcome(old_integrate, rhs, y0, (0.0, 1.0), grid, ToleranceSpec(), [0.5])
        assert got == want
        assert got[0][0] is StepSizeUnderflow


def streamed_and_whole(system, y0, grid, tol, bps):
    streamed = outcome(integrate, system, y0, grid, tol, bps, observe=moment_columns)
    whole = outcome(lambda *a: moment_columns(integrate(*a)), system, y0, grid, tol, bps)
    return streamed, whole


class TestStreamedMoments:
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.sampled_from([1, 3, 40, 1 << 14]), st.data())
    def test_match_the_whole_trajectory(self, problem, block_cells, data):
        # small BLOCK_CELLS flush the 2-row minimum stage many times, large
        # ones reduce a mostly stale stage once
        model, basis, index_set = problem
        system = build_rhs(model, index_set, basis)
        y0 = initial_state(model, index_set)
        bps = breakpoints(basis, index_set.k)
        tol = ToleranceSpec(rtol=1e-5, atol=1e-8)
        _, called = outcome(integrate, system, y0, [0.0, basis.horizon], tol, bps)
        grid = solver_grid(data.draw, basis, index_set.k, called)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "BLOCK_CELLS", block_cells)
            streamed, whole = streamed_and_whole(system, y0, grid, tol, bps)
        assert streamed == whole

    def test_match_above_the_single_row_threshold(self):
        # n = 20,349 > 8,192: einsum sums a 1-row block in another order than
        # a block of 2 or more rows, so the 2-row stage is what keeps the bits
        index_set = enumerate_indices(FullTruncation(p=5, k=16))
        basis = BasisSpec("klcos")
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        system = build_rhs(model, index_set, basis)
        grid = np.linspace(0.0, 1.0, 26)
        streamed, whole = streamed_and_whole(system, initial_state(model, index_set), grid,
                                             ToleranceSpec(rtol=1e-6, atol=1e-9), ())
        assert len(index_set) == 20349
        assert streamed == whole
