import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from chaossde import oracle
from chaossde.analysis import moments
from chaossde.basis import kl_partial, make_basis
from chaossde.errors import NonFiniteValue
from chaossde.integrator import ToleranceSpec
from chaossde.multiindex import FullTruncation
from chaossde.oracle import (CHUNK, MAX_THREADS, RngSpec, SampleStats,
                             _chunk_generator, _thread_count, euler_maruyama,
                             normal_draws, pool_size, sample_expansion)
from chaossde.propagator import ChaosSolution, SdeModel, solve
from reference import bm_model, kl_path_check

GRID = np.linspace(0.0, 1.0, 101)
TIGHT = ToleranceSpec(rtol=1e-9, atol=1e-12)


def gbm_solution(p, k, token="trig"):
    return solve(SdeModel.gbm(1.0, 1.0, 1.0), FullTruncation(p=p, k=k),
                 make_basis(token), GRID, TIGHT)


class TestNormalDraws:
    def test_inverse_cdf_accuracy(self):
        # Phi(z(u)) must return u to well below the 1e-9 requirement
        from scipy.special import ndtri

        gen = _chunk_generator(RngSpec(seed=1), 0)
        u = np.linspace(1e-9, 1 - 1e-9, 10001)
        roundtrip = np.array([0.5 * math.erfc(-z / math.sqrt(2)) for z in ndtri(u)])
        assert np.abs(roundtrip - u).max() < 1e-12
        draws = normal_draws(gen, 1000)
        assert np.isfinite(draws).all()

    def test_moment_sanity(self):
        n = 1_000_000
        gen = _chunk_generator(RngSpec(seed=77), 0)
        z = normal_draws(gen, n)
        assert abs(z.mean()) <= 4 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 8 / math.sqrt(n)

    def test_substreams_are_disjoint_and_reproducible(self):
        spec = RngSpec(seed=42, stream=3)
        a = normal_draws(_chunk_generator(spec, 0), 64)
        b = normal_draws(_chunk_generator(spec, 1), 64)
        a2 = normal_draws(_chunk_generator(spec, 0), 64)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("rng", [RngSpec(seed=0), RngSpec(seed=20250807, stream=5),
                                     RngSpec(seed=2 ** 64 - 1, stream=2 ** 64 - 1)])
    def test_matches_the_integer_formula(self, rng):
        # the uniforms (i + 1/2) 2^-53 of the top 53 bits i, as integers() drew them;
        # successive calls continue one generator, as the sampler's blocks do
        from scipy.special import ndtri

        def old_normal_draws(gen, shape):
            u = np.add(gen.integers(0, 1 << 53, size=shape, dtype=np.uint64), 0.5)
            u *= 2.0 ** -53
            return ndtri(u, out=u)

        for chunk in (0, 1, 37):
            new, old = _chunk_generator(rng, chunk), _chunk_generator(rng, chunk)
            for shape in (1, 3, 7, (5, 3), (4097, 8), CHUNK):
                assert normal_draws(new, shape).tobytes() == \
                    old_normal_draws(old, shape).tobytes()

    def test_rng_spec_validation(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1)
        with pytest.raises(ValueError):
            RngSpec(seed=0, stream=2 ** 64)


class TestThreadCount:
    def test_default_is_usable_cores(self, monkeypatch):
        monkeypatch.delenv("CHAOS_THREADS", raising=False)
        assert _thread_count() == len(os.sched_getaffinity(0))

    def test_default_without_affinity_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CHAOS_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _thread_count() == min(os.cpu_count(), MAX_THREADS)

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_invalid_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv("CHAOS_THREADS", value)
        with pytest.raises(ValueError, match="CHAOS_THREADS"):
            _thread_count()
        # the samplers check it before any chunk runs
        with pytest.raises(ValueError, match="CHAOS_THREADS"):
            euler_maruyama(SdeModel.gbm(1.0, 1.0, 1.0), n_steps=2, n_paths=10,
                           rng=RngSpec(seed=0))

    @pytest.mark.parametrize("value", [str(MAX_THREADS + 1), "100000"])
    def test_above_cap_rejected(self, monkeypatch, value):
        # only the parsing runs: no pool is started
        monkeypatch.setenv("CHAOS_THREADS", value)
        with pytest.raises(ValueError, match=f"1 to {MAX_THREADS}"):
            _thread_count()

    def test_pool_never_exceeds_chunks(self, monkeypatch):
        monkeypatch.setenv("CHAOS_THREADS", str(MAX_THREADS))
        assert _thread_count() == MAX_THREADS
        assert pool_size(1) == 1
        assert pool_size(3 * CHUNK) == 3
        assert pool_size(3 * CHUNK + 1) == 4
        assert pool_size(1000 * CHUNK) == MAX_THREADS

    def test_successive_calls_run_on_the_same_threads(self, monkeypatch):
        # a kept pool keeps its threads, and with them their malloc arenas
        monkeypatch.setenv("CHAOS_THREADS", "2")
        seen = []

        def recording(gen, shape):
            seen.append(threading.current_thread())
            return normal_draws(gen, shape)

        monkeypatch.setattr(oracle, "normal_draws", recording)
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        euler_maruyama(model, 2, 4 * CHUNK, RngSpec(seed=0))
        first = set(seen)
        seen.clear()
        euler_maruyama(model, 2, 4 * CHUNK, RngSpec(seed=1))
        assert set(seen) <= first and threading.current_thread() not in first

    def test_callers_on_several_threads_share_the_pool(self, monkeypatch):
        # four callers submit their chunks to one kept two-worker pool at once;
        # each must still get exactly its own serial result
        monkeypatch.setenv("CHAOS_THREADS", "2")
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        runs = [(model, 4, 3 * CHUNK + 5, RngSpec(seed=s)) for s in range(4)]
        want = [euler_maruyama(*run) for run in runs]
        got = [None] * len(runs)

        def call(i):
            got[i] = euler_maruyama(*runs[i])

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want


class TestRunSizes:
    @pytest.mark.parametrize("n_paths", [0, -5])
    def test_paths_below_one_rejected(self, n_paths):
        sol = gbm_solution(p=1, k=2)
        with pytest.raises(ValueError, match="n_paths"):
            sample_expansion(sol, 1.0, n_paths, RngSpec(seed=0))
        with pytest.raises(ValueError, match="n_paths"):
            euler_maruyama(SdeModel.gbm(1.0, 1.0, 1.0), 4, n_paths, RngSpec(seed=0))

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_steps_below_one_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            euler_maruyama(SdeModel.gbm(1.0, 1.0, 1.0), n_steps, 10, RngSpec(seed=0))


class TestSampleExpansion:
    def test_order_zero_truncation_is_deterministic(self):
        sol = gbm_solution(p=0, k=2)
        stats = sample_expansion(sol, 1.0, 10_000, RngSpec(seed=5))
        assert stats.variance == pytest.approx(0.0, abs=1e-12)
        assert stats.mean == pytest.approx(math.e, rel=1e-7)

    def test_bm_variance_matches_kl_partial(self):
        basis = make_basis("trig")
        sol = solve(bm_model(0.0, 1.0, 0.0), FullTruncation(p=1, k=16),
                    basis, GRID, TIGHT)
        stats = sample_expansion(sol, 0.5, 200_000, RngSpec(seed=11))
        target = kl_partial(basis, 16, 0.5)
        assert abs(stats.variance - target) <= 3 * stats.variance_se

    def test_gbm_variance_matches_coefficient_sum(self):
        sol = gbm_solution(p=4, k=6)
        _, var = moments(sol, 1.0)
        stats = sample_expansion(sol, 1.0, 200_000, RngSpec(seed=12))
        assert abs(stats.variance - var) <= 4 * stats.variance_se

    def test_reproducible_and_thread_invariant(self, monkeypatch):
        sol = gbm_solution(p=2, k=4)
        spec = RngSpec(seed=2024, stream=1)
        monkeypatch.setenv("CHAOS_THREADS", "1")
        a = sample_expansion(sol, 1.0, 150_000, spec)
        monkeypatch.setenv("CHAOS_THREADS", "4")
        b = sample_expansion(sol, 1.0, 150_000, spec)
        assert a == b  # bit-identical statistics regardless of parallelism


class TestEulerMaruyama:
    def test_drift_only_is_compound_growth(self):
        model = SdeModel.gbm(1.0, 0.0, 1.0)
        stats = euler_maruyama(model, n_steps=64, n_paths=100, rng=RngSpec(seed=3))
        assert stats.mean == pytest.approx((1 + 1 / 64) ** 64, rel=1e-12)
        assert stats.variance == pytest.approx(0.0, abs=1e-12)

    def test_single_step_unit_variance(self):
        model = SdeModel.gbm(0.0, 1.0, 1.0)
        stats = euler_maruyama(model, n_steps=1, n_paths=400_000, rng=RngSpec(seed=8))
        assert abs(stats.variance - 1.0) <= 4 * stats.variance_se

    def test_gbm_variance_matches_chain_recursion(self):
        # the scheme's second moment obeys the exact one-step recursion
        # E[X_{i+1}^2] = E[X_i^2] ((1 + mu dt)^2 + sigma^2 dt), so the
        # discretized variance is known in closed form
        n = 1024
        dt = 1.0 / n
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        stats = euler_maruyama(model, n_steps=n, n_paths=300_000, rng=RngSpec(seed=31))
        chain_var = ((1 + dt) ** 2 + dt) ** n - (1 + dt) ** (2 * n)
        assert abs(stats.variance - chain_var) <= 4 * stats.variance_se
        # and the discretization sits within its O(dt) bias band of the SDE
        # (the constant is ~63 for these parameters)
        exact = math.e ** 2 * (math.e - 1)
        assert abs(chain_var - exact) < 100 * dt

    def test_additive_noise_is_exact_in_law(self):
        # constant coefficients: every Euler step adds b dt + sigma sqrt(dt) Z,
        # so X_T is N(x0 + b T, sigma^2 T) at any step count
        b, sigma, x0, t_end = 0.7, 1.3, 0.5, 2.0
        stats = euler_maruyama(bm_model(b, sigma, x0), n_steps=16, n_paths=200_000,
                               rng=RngSpec(seed=0), t_end=t_end)
        assert abs(stats.mean - (x0 + b * t_end)) <= 4 * stats.mean_se
        assert abs(stats.variance - sigma ** 2 * t_end) <= 4 * stats.variance_se

    def test_drift_only_logistic_is_the_scalar_recursion(self):
        model = SdeModel((0.0, 1.0, -1.0), (0.0, 0.0, 0.0), 0.5)
        stats = euler_maruyama(model, n_steps=64, n_paths=100, rng=RngSpec(seed=3))
        x = 0.5
        for _ in range(64):
            x += x * (1 - x) / 64
        assert stats.mean == pytest.approx(x, rel=1e-12)
        assert stats.variance == pytest.approx(0.0, abs=1e-12)

    def test_single_step_quadratic_diffusion_variance(self):
        # X_1 = x0 + c2 x0^2 sqrt(dt) Z for one step of size dt
        c2, x0, t_end = 0.8, 1.5, 0.25
        model = SdeModel((0.0, 0.0, 0.0), (0.0, 0.0, c2), x0)
        stats = euler_maruyama(model, n_steps=1, n_paths=400_000, rng=RngSpec(seed=8),
                               t_end=t_end)
        assert stats.mean == pytest.approx(x0, abs=4 * stats.mean_se)
        assert abs(stats.variance - c2 ** 2 * x0 ** 4 * t_end) <= 4 * stats.variance_se

    def test_time_dependent_drift(self):
        # b(t, x) = 2t with zero noise integrates to x0 + t^2 exactly on the grid
        model = SdeModel((lambda t: 2.0 * t, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5)
        stats = euler_maruyama(model, n_steps=256, n_paths=10, rng=RngSpec(seed=4))
        left_riemann = 0.5 + sum(2.0 * (i / 256) / 256 for i in range(256))
        assert stats.mean == pytest.approx(left_riemann, rel=1e-12)

    def test_reproducible(self):
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        a = euler_maruyama(model, 32, 70_000, RngSpec(seed=9))
        b = euler_maruyama(model, 32, 70_000, RngSpec(seed=9))
        assert a == b
        assert isinstance(a, SampleStats)

    def test_cross_oracle_mean_agreement(self):
        # expansion sampling and the Euler scheme see the same mean
        sol = gbm_solution(p=4, k=8, token="haar")
        s_exp = sample_expansion(sol, 1.0, 200_000, RngSpec(seed=21))
        s_eul = euler_maruyama(SdeModel.gbm(1.0, 1.0, 1.0), 1024, 200_000,
                               RngSpec(seed=22))
        combined = math.hypot(s_exp.mean_se, s_eul.mean_se)
        assert abs(s_exp.mean - s_eul.mean) <= 4 * combined + math.e / 2048


class TestNonFiniteStatistics:
    """An overflow in either sampler raises instead of reporting inf or NaN."""

    def test_overflowed_expansion_samples_raise(self):
        # x = 1e200 xi_1: every sampled square overflows
        sol = gbm_solution(p=1, k=2)
        coeffs = np.zeros_like(sol.coeffs)
        coeffs[:, 1] = 1e200
        huge = ChaosSolution(sol.index_set, sol.grid, coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and without numpy's warnings
            with pytest.raises(NonFiniteValue, match=r"sample statistic .* \(t=0\.5\)"):
                sample_expansion(huge, 0.5, 1000, RngSpec(seed=1))

    def test_overflowed_euler_paths_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"\(t=1\.0\)"):
                euler_maruyama(SdeModel.gbm(1e100, 1.0, 1.0), 8, 100, RngSpec(seed=1))


class TestKlPathCheck:
    def test_first_element_variance(self):
        basis = make_basis("trig")
        worst = kl_path_check(basis, 1, np.array([0.3, 0.7, 1.0]), 100_000,
                              RngSpec(seed=14))
        assert worst <= 4.0

    def test_trig_many_elements(self):
        worst = kl_path_check(make_basis("trig"), 64, np.linspace(0.1, 1.0, 7),
                              100_000, RngSpec(seed=15))
        assert worst <= 4.0

    def test_haar_exact_at_horizon(self):
        # only the constant element survives at t = 1
        basis = make_basis("haar")
        worst = kl_path_check(basis, 64, np.array([1.0]), 50_000, RngSpec(seed=16))
        assert worst <= 4.0
        assert kl_partial(basis, 64, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_thread_count_invariant(self, monkeypatch):
        # 70,000 paths are two chunks, summed in chunk order on any pool
        args = (make_basis("klcos"), 8, np.linspace(0.1, 1.0, 4), 70_000,
                RngSpec(seed=17))
        monkeypatch.setenv("CHAOS_THREADS", "1")
        serial = kl_path_check(*args)
        monkeypatch.setenv("CHAOS_THREADS", "2")
        assert kl_path_check(*args).hex() == serial.hex()
