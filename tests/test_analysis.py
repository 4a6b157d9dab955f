import math
import tracemalloc

import numpy as np
import pytest

from chaossde.analysis import (bound_shape, error_curve, gbm_variance_exact,
                               gbm_variance_order_limit, loglog_fit, moment_columns,
                               moment_curves, moments, third_moment)
from chaossde.basis import kl_partial, make_basis, tail_sum
from chaossde.errors import NonPositiveValue, NotATrajectory, TimeNotOnGrid
from chaossde.integrator import ToleranceSpec
from chaossde.multiindex import FullTruncation
from chaossde.oracle import RngSpec, sample_expansion
from chaossde.propagator import SdeModel, solve
from reference import bm_model

GRID = np.linspace(0.0, 1.0, 101)
TIGHT = ToleranceSpec(rtol=1e-9, atol=1e-12)


def gbm_solution(p=2, k=4, token="trig", grid=GRID, tol=TIGHT):
    return solve(SdeModel.gbm(1.0, 1.0, 1.0), FullTruncation(p=p, k=k),
                 make_basis(token), grid, tol)


class TestMoments:
    def test_initial_time(self):
        sol = gbm_solution()
        mean, var = moments(sol, 0.0)
        assert mean == 1.0 and var == 0.0

    def test_bm_variance_is_kl_partial(self):
        basis = make_basis("trig")
        sol = solve(bm_model(0.0, 1.0, 0.0), FullTruncation(p=2, k=6),
                    basis, GRID, TIGHT)
        for t in (0.25, 0.5, 1.0):
            _, var = moments(sol, t)
            assert var == pytest.approx(kl_partial(basis, 6, t), abs=1e-9)

    def test_gbm_variance_approaches_exact(self):
        # order-5 truncation at t=1: the basis part is exhausted for trig
        sol = gbm_solution(p=5, k=4)
        _, var = moments(sol, 1.0)
        assert var == pytest.approx(gbm_variance_exact(1, 1, 1, 1.0), abs=0.02)

    def test_moment_curves_consistency(self):
        sol = gbm_solution()
        means, variances = moment_curves(sol)
        for m in (0, 13, 100):
            mm, vv = moments(sol, GRID[m])
            assert means[m] == pytest.approx(mm) and variances[m] == pytest.approx(vv)

    def test_off_grid_time_rejected(self):
        with pytest.raises(TimeNotOnGrid):
            moments(gbm_solution(), 0.123)


class TestThirdMoment:
    def test_initial_time_is_cubed_start(self):
        sol = gbm_solution(p=2, k=3)
        assert third_moment(sol, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_centered_bm_is_odd_free(self):
        sol = solve(bm_model(0.0, 1.0, 0.0), FullTruncation(p=2, k=4),
                    make_basis("trig"), GRID, TIGHT)
        assert third_moment(sol, 0.7) == pytest.approx(0.0, abs=1e-10)

    def test_against_monte_carlo(self):
        sol = gbm_solution(p=3, k=4)
        t = 0.25
        exact = third_moment(sol, t)
        stats = sample_expansion(sol, t, 1_000_000, RngSpec(seed=91))
        assert abs(stats.third - exact) <= 4 * stats.third_se

    @pytest.mark.parametrize("token,p,k,want", [("klcos", 3, 8, "0x1.fb1ee635aefe1p-2"),
                                                ("haar", 2, 16, "0x1.01fd1c10494eap-1")])
    def test_logistic_bits(self, token, p, k, want):
        # the galerkin benchmark's two cases at T = 1, bit for bit: the
        # solve's quadratic sums and the third moment keep one association
        sol = solve(SdeModel((0.0, 1.0, -1.0), (0.0, 0.5, 0.0), 0.5), FullTruncation(p=p, k=k),
                    make_basis(token), GRID, ToleranceSpec(rtol=1e-6, atol=1e-9))
        assert third_moment(sol, 1.0).hex() == want


class TestStreamedSolution:
    """A solution solved with ``observe`` holds moment columns, no coefficients."""

    def solutions(self):
        args = (SdeModel.gbm(1.0, 1.0, 1.0), FullTruncation(p=2, k=4), make_basis("klcos"),
                np.linspace(0.0, 1.0, 11), ToleranceSpec(rtol=1e-6, atol=1e-9))
        return solve(*args, observe=moment_columns), solve(*args)

    @pytest.mark.parametrize("read", [
        lambda sol: sol.coeffs,
        lambda sol: moments(sol, 1.0),
        lambda sol: third_moment(sol, 1.0),
        lambda sol: sample_expansion(sol, 1.0, 100, RngSpec(seed=0)),
    ], ids=["coeffs", "moments", "third_moment", "sample_expansion"])
    def test_coefficient_readers_raise(self, read):
        # the moment columns read as a coefficient row gave moments a variance
        # of 314.61 for the trajectory's 10.348, sampled a wrong expansion, and
        # sent third_moment out of bounds
        streamed, _ = self.solutions()
        with pytest.raises(NotATrajectory, match="holds no coefficients"):
            read(streamed)

    def test_moment_curves_match_the_trajectory(self):
        streamed, whole = self.solutions()
        for got, want in zip(moment_curves(streamed), moment_curves(whole)):
            assert got.tobytes() == want.tobytes()


class TestGbmExact:
    def test_values(self):
        assert gbm_variance_exact(1, 1, 1, 0.0) == 0.0
        assert gbm_variance_exact(1, 1, 1, 1.0) == pytest.approx(
            math.e ** 2 * (math.e - 1), rel=1e-14)
        assert gbm_variance_exact(1, 0, 1, 0.7) == 0.0

    @pytest.mark.parametrize("mu,sigma,x0", [(1.0, 1.0, 1.0), (0.3, 2.5, 0.7),
                                             (-1.2, 0.4, 3.0), (400.0, 1.0, 1.0)])
    def test_in_place_keeps_the_expression_bits(self, mu, sigma, x0):
        # two buffers of the grid's size, where the expression held three
        t = np.linspace(0.0, 1.0, 100_001)
        with np.errstate(over="ignore", invalid="ignore"):  # mu=400 overflows to inf
            want = x0 * x0 * np.exp(2.0 * mu * t) * (np.exp(sigma * sigma * t) - 1.0)
            tracemalloc.start()
            try:
                got = gbm_variance_exact(mu, sigma, x0, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            scalar = gbm_variance_exact(mu, sigma, x0, np.float64(0.5))
        assert got.tobytes() == want.tobytes()
        assert peak < 2.5 * t.nbytes
        assert type(scalar) is float

    def test_order_limit_monotone_to_exact(self):
        t = np.array([0.5, 1.0])
        prev = np.zeros(2)
        for p in range(1, 9):
            cur = gbm_variance_order_limit(1, 1, 1, p, t)
            assert np.all(cur >= prev)
            prev = cur
        assert np.abs(prev - gbm_variance_exact(1, 1, 1, t)).max() < 1e-3


class TestErrorCurve:
    def exact(self):
        return lambda t: gbm_variance_exact(1, 1, 1, t)

    def test_klcos_small_config(self):
        grid = np.linspace(0, 1, 1001)
        sol = gbm_solution(p=1, k=2, token="klcos", grid=grid,
                           tol=ToleranceSpec(rtol=1e-8, atol=1e-11))
        curve = error_curve(sol, self.exact())
        assert curve.error_at_T == pytest.approx(6.04, abs=0.01)
        assert curve.error_max == pytest.approx(6.04, abs=0.01)
        assert curve.values.argmax() == len(grid) - 1

    def test_haar_medium_config(self):
        grid = np.linspace(0, 1, 1001)
        sol = gbm_solution(p=3, k=8, token="haar", grid=grid,
                           tol=ToleranceSpec(rtol=1e-8, atol=1e-11))
        curve = error_curve(sol, self.exact())
        assert curve.error_at_T == pytest.approx(0.38, abs=0.01)
        assert curve.error_max == pytest.approx(0.76, abs=0.01)

    def test_haar_high_order_small_k(self):
        grid = np.linspace(0, 1, 1001)
        sol = gbm_solution(p=5, k=2, token="haar", grid=grid,
                           tol=ToleranceSpec(rtol=1e-8, atol=1e-11))
        curve = error_curve(sol, self.exact())
        assert curve.error_at_T == pytest.approx(0.01, abs=0.005)

    def test_variance_monotone_under_nesting(self):
        # sums of squares over a superset dominate the subset sums
        big = gbm_solution(p=3, k=4)
        small = gbm_solution(p=2, k=3)
        _, var_big = moment_curves(big)
        _, var_small = moment_curves(small)
        assert np.all(var_big >= var_small - 1e-12)

    def test_raising_order_shrinks_error_pointwise(self):
        # with nested variance sums the order-p curve sits below order p-1
        grid = np.linspace(0, 1, 201)
        curves = {}
        for p in (2, 3):
            sol = gbm_solution(p=p, k=4, token="klcos", grid=grid)
            curves[p] = error_curve(sol, self.exact()).values
        assert np.all(curves[3] <= curves[2] + 1e-12)

    def test_haar_error_at_final_time_is_level_insensitive(self):
        # for fixed p the Haar error at t=1 does not move with k
        grid = np.linspace(0, 1, 201)
        finals = []
        for k in (2, 4, 8):
            sol = gbm_solution(p=2, k=k, token="haar", grid=grid)
            finals.append(error_curve(sol, self.exact()).error_at_T)
        assert max(finals) - min(finals) < 1e-6
        assert finals[0] == pytest.approx(1.6129, abs=1e-3)


class TestBoundShape:
    def test_large_p_leaves_tail_only(self):
        basis = make_basis("trig")
        got = bound_shape(basis, 80, 16, 1.0, 1.0)
        assert got == pytest.approx(2.0 * tail_sum(basis, 16, 1.0), rel=1e-12)

    def test_trig_ratio_halves_when_k_doubles(self):
        basis = make_basis("trig")
        shapes = [bound_shape(basis, 6, k, 1.0, 1.0) for k in (8, 16, 32, 64)]
        for a, b in zip(shapes, shapes[1:]):
            assert 0.425 <= b / a <= 0.575

    def test_haar_ratio_halves_per_level(self):
        basis = make_basis("haar")
        shapes = [bound_shape(basis, 6, 2 ** n, 1.0, 1.0) for n in (3, 4, 5, 6)]
        for a, b in zip(shapes, shapes[1:]):
            assert 0.425 <= b / a <= 0.575

    @pytest.mark.parametrize("p, k", [(-1, 2), (1, 0)])
    def test_negative_order_or_no_elements_rejected(self, p, k):
        with pytest.raises(ValueError, match="need p >= 0 and k >= 1"):
            bound_shape(make_basis("trig"), p, k, 1.0, 1.0)


class TestRateFit:
    def test_exact_inverse_law(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        assert loglog_fit(xs, 3.0 / xs)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_exact_inverse_square(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        assert loglog_fit(xs, 0.7 * xs ** -2)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_trig_tail_slope(self):
        basis = make_basis("trig")
        ks = [8, 16, 32, 64, 128]
        slope = loglog_fit(ks, [tail_sum(basis, k, 1.0) for k in ks])[0]
        assert -1.15 <= slope <= -0.85

    def test_r_squared_reported(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        slope, _, r2 = loglog_fit(xs, 5.0 / xs)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveValue):
            loglog_fit([1.0, 2.0, 4.0], [1.0, -2.0, 3.0])

    @pytest.mark.parametrize("xs", [[4.0, 4.0, 4.0], [2.0, 4.0], [2.0, 4.0, 2.0, 4.0]])
    def test_rejects_fewer_than_three_distinct_x(self, xs):
        # a line through one or two distinct x values is not a rate
        with pytest.raises(ValueError, match="need at least 3 distinct x values"):
            loglog_fit(xs, [1.0 + i for i in range(len(xs))])
