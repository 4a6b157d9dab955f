import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaossde.basis import antiderivative_grid, element_values, make_basis
from chaossde.errors import NotGbm, TimeNotOnGrid
from chaossde.integrator import ToleranceSpec
from chaossde.multiindex import FullTruncation, IndexSet, enumerate_indices
from chaossde.oracle import RngSpec, euler_maruyama
from chaossde.propagator import (ChaosSolution, SdeModel, build_rhs, gbm_parameters,
                                 initial_state, solve)
from reference import NotBm, bm_model, closed_form_bm, closed_form_gbm_grid

TIGHT = ToleranceSpec(rtol=1e-10, atol=1e-12)
GRID = np.linspace(0.0, 1.0, 101)


LOGISTIC = SdeModel((0.0, 1.0, -1.0), (0.0, 0.5, 0.0), 0.5)


def gbm():
    return SdeModel.gbm(1.0, 1.0, 1.0)


def gbm_coefficient(model, row, basis, t):
    """One GBM coefficient at one time, from a one-index set."""
    return closed_form_gbm_grid(model, IndexSet(np.array([row])), basis, [t])[0, 0]


class TestModelCoefficients:
    def test_callable_coefficient_is_refused(self):
        with pytest.raises(TypeError):
            SdeModel((lambda t: t, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0)

    @pytest.mark.parametrize("drift, diffusion, x0", [
        (("0", "1", "0"), (0, 1), 1.0), (("0", "1", "0"), (0, 1, 0), 1.0),
        ((0, 1, 0), (0, 1j, 0), 1.0), ((0, 1, 0), (0, 1, 0), "1"),
        ((0, 1, 0), (0, 1, 0), None), ((0, 1, 0), (0, 1, 0), lambda: 1.0),
        (1.0, (0, 1, 0), 1.0)], ids=repr)
    def test_anything_but_real_numbers_is_refused(self, drift, diffusion, x0):
        with pytest.raises(TypeError):
            SdeModel(drift, diffusion, x0)

    @pytest.mark.parametrize("drift, diffusion", [
        ((0, 1, 0), (0, 1)), ((0, 1, 0, 0), (0, 1, 0)), ((), (0, 1, 0))], ids=repr)
    def test_a_triple_of_another_length_is_refused(self, drift, diffusion):
        with pytest.raises(ValueError, match="needs three coefficients"):
            SdeModel(drift, diffusion, 1.0)

    def test_int_coefficients_are_stored_as_floats(self):
        ints = SdeModel((0, 1, -1), (0, 1, 0), np.int64(1))
        floats = SdeModel((0.0, 1.0, -1.0), (0.0, 1.0, 0.0), 1.0)
        assert [type(c) for c in (*ints.drift, *ints.diffusion, ints.x0)] == [float] * 7
        spec, basis = FullTruncation(p=2, k=3), make_basis("klcos")
        got, want = (solve(m, spec, basis, GRID, TIGHT).coeffs for m in (ints, floats))
        assert got.tobytes() == want.tobytes()
        got, want = (euler_maruyama(m, 16, 100, RngSpec(seed=5)) for m in (ints, floats))
        assert got == want

    @given(st.lists(st.sampled_from([0.0, -0.0, math.nan, 1.5]), min_size=6, max_size=6))
    def test_signed_zero_is_zero_and_nan_is_not(self, values):
        def zero(c):
            return str(c) in ("0.0", "-0.0")

        drift, diffusion = values[:3], values[3:]
        model = SdeModel(drift, diffusion, 1.0)
        assert model.is_affine == (zero(drift[2]) and zero(diffusion[2]))
        if all(map(zero, (drift[0], drift[2], diffusion[0], diffusion[2]))):
            assert np.array_equal(gbm_parameters(model), (drift[1], diffusion[1]),
                                  equal_nan=True)
        else:
            with pytest.raises(NotGbm):
                gbm_parameters(model)


class TestAssembledSystem:
    def test_gbm_zero_index_equation(self):
        indices = enumerate_indices(FullTruncation(p=1, k=2))
        system = build_rhs(gbm(), indices, make_basis("trig"))
        y = np.array([2.0, 0.3, -0.4])
        dy = system(0.3, y)
        assert dy[0] == pytest.approx(1.0 * y[0])

    def test_gbm_unit_index_equation(self):
        basis = make_basis("trig")
        indices = enumerate_indices(FullTruncation(p=1, k=2))
        system = build_rhs(gbm(), indices, basis)
        y = np.array([2.0, 0.3, -0.4])
        t = 0.3
        dy = system(t, y)
        for coord, row in ((1, (1, 0)), (2, (0, 1))):
            (n,) = indices.positions(np.array([row]))
            expected = y[n] + element_values(basis, coord, t)[coord - 1] * y[0]
            assert dy[n] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_drift_only(self):
        # b(x) = 2, sigma = 0: only the mean coefficient evolves
        model = SdeModel((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5)
        sol = solve(model, FullTruncation(p=2, k=3), make_basis("trig"), GRID, TIGHT)
        zero = 0  # the zero index is ordinal 0
        assert np.abs(sol.coeffs[:, zero] - (0.5 + 2.0 * GRID)).max() < 1e-9
        others = np.delete(sol.coeffs, zero, axis=1)
        assert np.abs(others).max() == 0.0

    def test_lower_triangular_ladder(self):
        indices = enumerate_indices(FullTruncation(p=3, k=4))
        system = build_rhs(gbm(), indices, make_basis("trig"))
        orders = indices.dense.sum(axis=1)
        # every ladder source has order exactly one below its target
        assert np.all(orders[system.ladder_srcs] == orders[system.ladder_rows] - 1)

    def test_initial_state(self):
        indices = enumerate_indices(FullTruncation(p=2, k=2))
        y0 = initial_state(gbm(), indices)
        assert not indices.dense[0].any()  # the zero index is ordinal 0
        assert y0[0] == 1.0
        assert np.count_nonzero(y0) == 1


class TestHeldSpec:
    def test_repeated_solves_match_a_fresh_spec(self):
        # one spec held across models and bases, as a sweep holds it: its
        # set, ladder and tensor are reused, and no solve sees another's
        spec = FullTruncation(p=2, k=4)
        for model, token in itertools.product((gbm(), LOGISTIC), ("klcos", "haar")):
            basis = make_basis(token)
            held = [solve(model, spec, basis, GRID, TIGHT) for _ in range(2)]
            fresh = solve(model, FullTruncation(p=2, k=4), basis, GRID, TIGHT)
            assert held[0].index_set is held[1].index_set is not fresh.index_set
            for sol in held:
                assert sol.coeffs.tobytes() == fresh.coeffs.tobytes()


class TestDefaultTolerance:
    @pytest.mark.parametrize("model", [gbm(), LOGISTIC], ids=["gbm", "logistic"])
    @pytest.mark.parametrize("token", ["klcos", "haar"])
    def test_is_the_cli_tolerance(self, model, token):
        # a script that leaves out the tolerance solves as tightly as the CLI
        basis = make_basis(token)
        spec = FullTruncation(p=2, k=4)
        default = solve(model, spec, basis, GRID)
        explicit = solve(model, spec, basis, GRID, ToleranceSpec(rtol=1e-6, atol=1e-9))
        assert default.coeffs.tobytes() == explicit.coeffs.tobytes()


class TestSolveAgainstClosedForms:
    def test_gbm_mean_coefficient(self):
        sol = solve(gbm(), FullTruncation(p=1, k=2), make_basis("trig"), GRID,
                    ToleranceSpec(rtol=1e-9, atol=1e-12))
        zero = 0  # the zero index is ordinal 0
        assert abs(sol.coeffs[-1, zero] - math.e) < 1e-6

    @pytest.mark.parametrize("token", ["trig", "haar", "klcos"])
    def test_gbm_all_coefficients(self, token):
        basis = make_basis(token)
        sol = solve(gbm(), FullTruncation(p=2, k=4), basis, GRID,
                    ToleranceSpec(rtol=1e-9, atol=1e-12))
        exact = closed_form_gbm_grid(gbm(), sol.index_set, basis, GRID)
        assert np.abs(sol.coeffs - exact).max() < 1e-6

    @pytest.mark.parametrize("token", ["trig", "haar"])
    def test_bm_terminates_at_order_one(self, token):
        basis = make_basis(token)
        model = bm_model(1.0, 1.0, 0.0)
        sol = solve(model, FullTruncation(p=3, k=4), basis, GRID, TIGHT)
        expected = closed_form_bm(model, sol.index_set, basis, GRID)
        assert np.abs(sol.coeffs - expected).max() < 1e-9

    def test_initial_row_matches_invariant(self):
        sol = solve(gbm(), FullTruncation(p=2, k=2), make_basis("haar"), GRID, TIGHT)
        zero = 0  # the zero index is ordinal 0
        assert sol.coeffs[0, zero] == 1.0
        assert np.count_nonzero(sol.coeffs[0]) == 1


class TestClosedForms:
    def test_gbm_zero_index(self):
        model = SdeModel.gbm(0.7, 1.3, 2.0)
        for t in (0.0, 0.4, 1.0):
            got = gbm_coefficient(model, (0,), make_basis("trig"), t)
            assert got == pytest.approx(2.0 * math.exp(0.7 * t), rel=1e-14)

    def test_gbm_double_index_constant_element(self):
        # alpha = (2,) on the constant trig element: x0 sigma^2 e^{mu t} t^2/sqrt(2)
        model = SdeModel.gbm(1.0, 0.5, 1.5)
        t = 0.8
        got = gbm_coefficient(model, (2,), make_basis("trig"), t)
        assert got == pytest.approx(
            1.5 * 0.25 * math.exp(t) * t ** 2 / math.sqrt(2), rel=1e-12)

    def test_gbm_vanishes_at_zero_for_positive_order(self):
        model = gbm()
        for row in ((1,), (0, 2), (1, 0, 1)):
            assert gbm_coefficient(model, row, make_basis("haar"), 0.0) == 0.0

    def test_bm_unit_coefficients(self):
        model = bm_model(0.4, 2.0, 0.3)
        basis = make_basis("trig")
        index_set = IndexSet(np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]]))
        (got,) = closed_form_bm(model, index_set, basis, [0.9])
        e3 = antiderivative_grid(basis, 3, [0.9])[0, 2]
        assert got == pytest.approx([0.3 + 0.4 * 0.9, 2.0 * e3, 2.0 * 0.9])

    def test_bm_higher_orders_vanish(self):
        model = bm_model(1.0, 1.0, 0.0)
        index_set = IndexSet(np.array([[0, 2, 0], [1, 1, 0], [2, 0, 0], [0, 0, 3]]))
        assert not closed_form_bm(model, index_set, make_basis("haar"), [0.5]).any()
        zeroed = bm_model(0.0, 0.0, 0.0)
        assert closed_form_bm(zeroed, IndexSet(np.zeros((1, 1))), make_basis("trig"),
                              [1.0]) == 0.0

    def test_preset_guards(self):
        # the closed forms read their parameters from the coefficients, so a
        # replaced drift moves them too, and any other shape is refused
        basis = make_basis("klcos")
        faster = dataclasses.replace(gbm(), drift=(0.0, 2.0, 0.0))
        sol = solve(faster, FullTruncation(p=1, k=2), basis, GRID, TIGHT)
        exact = closed_form_gbm_grid(faster, sol.index_set, basis, [1.0])
        assert exact[0, 0] == pytest.approx(math.exp(2.0), rel=1e-12)
        assert sol.coeffs[-1, 0] == pytest.approx(math.exp(2.0), rel=1e-8)
        not_gbm = [bm_model(1, 1, 1), SdeModel((0.5, 1.0, 0.0), (0.0, 1.0, 0.0), 1.0),
                   SdeModel((0.0, 1.0, 0.0), (0.5, 1.0, 0.0), 1.0),
                   SdeModel((0.0, 1.0, -1.0), (0.0, 1.0, 0.0), 1.0)]
        for model in not_gbm:
            with pytest.raises(NotGbm):
                gbm_coefficient(model, (0,), make_basis("trig"), 0.5)
        not_bm = [gbm(), SdeModel((1.0, 0.0, 0.0), (1.0, 0.2, 0.0), 1.0),
                  SdeModel((1.0, 0.0, 0.0), (1.0, 0.0, 0.2), 1.0)]
        for model in not_bm:
            with pytest.raises(NotBm):
                closed_form_bm(model, IndexSet(np.zeros((1, 1))), make_basis("trig"), [0.5])


class TestStructuralInvariants:
    def test_nesting_in_basis_count(self):
        # affine systems do not couple across unused basis elements
        big = solve(gbm(), FullTruncation(p=2, k=3), make_basis("trig"), GRID, TIGHT)
        small = solve(gbm(), FullTruncation(p=2, k=2), make_basis("trig"), GRID, TIGHT)
        padded = np.pad(small.index_set.dense, ((0, 0), (0, 1)))
        cols = big.index_set.positions(padded)
        assert np.all(cols >= 0)
        assert np.abs(big.coeffs[:, cols] - small.coeffs).max() < 1e-8

    def test_quadratic_drift_deterministic_oracle(self):
        # x' = x^2, x(0) = 1/2 has the explicit solution 1/(2 - t); with zero
        # noise the Galerkin projection must reproduce it through T(0,0,0)
        model = SdeModel((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 0.5)
        sol = solve(model, FullTruncation(p=2, k=2), make_basis("trig"), GRID, TIGHT)
        zero = 0  # the zero index is ordinal 0
        assert np.abs(sol.coeffs[:, zero] - 1.0 / (2.0 - GRID)).max() < 1e-8
        assert np.abs(np.delete(sol.coeffs, zero, axis=1)).max() == 0.0

    def test_tiny_quadratic_perturbation_is_linear_response(self):
        full = FullTruncation(p=3, k=4)
        basis = make_basis("trig")
        affine = solve(gbm(), full, basis, GRID, TIGHT)

        def perturbed(eps):
            model = SdeModel((0.0, 1.0, eps), (0.0, 1.0, 0.0), 1.0)
            return solve(model, full, basis, GRID, TIGHT)

        gap6 = np.abs(perturbed(1e-6).coeffs - affine.coeffs).max()
        gap7 = np.abs(perturbed(1e-7).coeffs - affine.coeffs).max()
        assert gap6 < 5e-5
        assert gap7 == pytest.approx(gap6 / 10.0, rel=0.2)

    def test_grid_position_guard(self):
        sol = solve(gbm(), FullTruncation(p=1, k=2), make_basis("trig"), GRID, TIGHT)
        assert isinstance(sol, ChaosSolution)
        assert sol.coeffs_at(0.37).tobytes() == sol.coeffs[37].tobytes()
        with pytest.raises(TimeNotOnGrid):
            sol.coeffs_at(0.375)

    def test_grid_must_span_horizon(self):
        # solve owns the rule, exactly: a grid 1e-13 past the horizon is refused
        for grid in (np.linspace(0.0, 0.5, 11), [0.0, 0.5, 1.0 + 1e-13]):
            with pytest.raises(ValueError, match="grid must run from 0 to the basis horizon"):
                solve(gbm(), FullTruncation(p=1, k=2), make_basis("trig"), grid, TIGHT)

    def test_mean_reverting_additive_noise_against_independent_formula(self):
        # dX = -theta X dt + sigma dW is Gaussian with
        # Var(t) = sigma^2 (1 - e^{-2 theta t}) / (2 theta); the expansion
        # terminates at order one and its variance must approach that value
        # at the 1/k basis-truncation rate
        from chaossde.analysis import moment_curves

        theta, sigma, x0 = 0.8, 0.5, 1.0
        model = SdeModel((0.0, -theta, 0.0), (sigma, 0.0, 0.0), x0)
        exact_var = sigma ** 2 * (1 - np.exp(-2 * theta * GRID)) / (2 * theta)
        deficits = []
        for k in (16, 32, 64):
            sol = solve(model, FullTruncation(p=1, k=k), make_basis("trig"),
                        GRID, ToleranceSpec(rtol=1e-9, atol=1e-12))
            means, variances = moment_curves(sol)
            assert np.abs(means - x0 * np.exp(-theta * GRID)).max() < 1e-9
            deficits.append(np.abs(variances - exact_var).max())
        assert deficits[-1] < 2e-3
        for a, b in zip(deficits, deficits[1:]):
            assert 0.4 <= b / a <= 0.6

    @pytest.mark.parametrize("token", ["trig", "haar", "klcos"])
    def test_non_unit_horizon(self, token):
        # rescaled bases keep the closed forms valid on [0, T]
        basis = make_basis(token, 2.0)
        grid = np.linspace(0.0, 2.0, 81)
        model = SdeModel.gbm(0.5, 0.8, 1.2)
        sol = solve(model, FullTruncation(p=2, k=4), basis, grid,
                    ToleranceSpec(rtol=1e-9, atol=1e-12))
        exact = closed_form_gbm_grid(model, sol.index_set, basis, grid)
        assert np.abs(sol.coeffs - exact).max() < 1e-6
