import math
import warnings

import numpy as np
import pytest

from chaossde.basis import make_basis
from chaossde.errors import MaxStepsExceeded, StepSizeUnderflow
from chaossde import integrator
from chaossde.integrator import ToleranceSpec, integrate
from chaossde.multiindex import FullTruncation
from chaossde.propagator import SdeModel, solve


def test_zero_rhs_is_constant():
    grid = np.linspace(0, 10, 21)
    traj = integrate(lambda t, y: np.zeros_like(y), np.array([3.0, -1.5]), grid)
    assert np.all(traj == np.array([3.0, -1.5]))


def test_exponential_default_tolerances():
    grid = np.linspace(0, 1, 11)
    traj = integrate(lambda t, y: y, np.array([1.0]), grid)
    assert abs(traj[-1, 0] - math.e) / math.e < 5e-4


def test_harmonic_oscillator_returns_home():
    # ~1.5e-3 after one period at scipy's default tolerances, which is exactly
    # what the ecosystem reference RK45 produces with the same controller settings
    from scipy.integrate import solve_ivp

    grid = np.linspace(0, 2 * math.pi, 41)
    traj = integrate(lambda t, y: np.array([-y[1], y[0]]), np.array([1.0, 0.0]), grid,
                     ToleranceSpec(rtol=1e-3, atol=1e-6))
    assert np.abs(traj[-1] - np.array([1.0, 0.0])).max() < 2e-3
    ref = solve_ivp(lambda t, y: [-y[1], y[0]], (0, 2 * math.pi), [1.0, 0.0],
                    method="RK45", rtol=1e-3, atol=1e-6)
    assert np.abs(traj[-1] - ref.y[:, -1]).max() < 1e-6

    tight = integrate(lambda t, y: np.array([-y[1], y[0]]), np.array([1.0, 0.0]), grid,
                      ToleranceSpec(rtol=1e-6, atol=1e-9))
    assert np.abs(tight[-1] - np.array([1.0, 0.0])).max() < 1e-5


def test_dense_output_accuracy():
    grid = np.linspace(0, 1, 257)
    traj = integrate(lambda t, y: y, np.array([1.0]), grid,
                     ToleranceSpec(rtol=1e-10, atol=1e-12))
    rel = np.abs(traj[:, 0] / np.exp(grid) - 1.0)
    assert rel.max() < 1e-9


def test_tolerance_sweep_shows_high_order():
    # each 10x tolerance reduction must cut the global error at least 4x
    errors = []
    grid = np.array([0.0, 1.0])
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        traj = integrate(lambda t, y: y, np.array([1.0]), grid,
                         ToleranceSpec(rtol=tol, atol=tol * 1e-3))
        errors.append(abs(traj[-1, 0] - math.e))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert np.exp(np.mean(np.log(ratios))) >= 4.0
    assert all(r > 1.0 for r in ratios)


def test_determinism_bit_identical():
    grid = np.linspace(0, 2, 101)

    def rhs(t, y):
        return np.array([math.sin(3 * t) * y[0] - 0.1 * y[1], y[0]])

    a = integrate(rhs, np.array([1.0, 0.0]), grid)
    b = integrate(rhs, np.array([1.0, 0.0]), grid)
    assert np.array_equal(a, b)


def test_output_grid_does_not_steer_steps():
    # grid values at shared points agree bit-for-bit between coarse and fine
    # output grids because stepping is independent of the requested output
    fine = np.linspace(0, 1, 101)
    coarse = fine[::20]
    a = integrate(lambda t, y: np.array([-2.0 * t * y[0]]), np.array([1.0]), fine)
    b = integrate(lambda t, y: np.array([-2.0 * t * y[0]]), np.array([1.0]), coarse)
    assert np.array_equal(a[::20], b)


def test_forced_breakpoint_matches_separate_integrations():
    # a run split at t = 0.5 reproduces integrating [0, 0.5] directly,
    # because the forced stop makes the step histories identical
    def rhs(t, y):
        return np.array([y[0] * math.cos(t)])

    grid = np.array([0.0, 0.5, 1.0])
    split = integrate(rhs, np.array([1.0]), grid, breakpoints=[0.5])
    half = integrate(rhs, np.array([1.0]), np.array([0.0, 0.5]))
    assert np.array_equal(split[1], half[-1])


def test_breakpoints_make_piecewise_constant_rhs_exact():
    # y' jumps at 0.5; forced splitting integrates both halves exactly
    def rhs(t, y):
        return np.array([2.0 if t < 0.5 else -4.0])

    grid = np.linspace(0, 1, 21)
    traj = integrate(rhs, np.array([0.0]), grid, breakpoints=[0.5])
    exact = np.where(grid < 0.5, 2.0 * grid, 1.0 - 4.0 * (grid - 0.5))
    assert np.abs(traj[:, 0] - exact).max() < 1e-12


def test_breakpoint_right_endpoint_stages_stay_in_piece():
    # without the one-ulp shift the final stages would see the next piece;
    # the dense output inside the first piece must stay exact
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else 100.0])

    grid = np.linspace(0, 0.5, 51)
    full_grid = np.concatenate([grid, [1.0]])
    traj = integrate(rhs, np.array([0.0]), full_grid, breakpoints=[0.5])
    assert np.abs(traj[:51, 0] - grid).max() < 1e-12
    assert traj[-1, 0] == pytest.approx(0.5 + 50.0, rel=1e-12)


def test_max_steps_exceeded(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 10)
    with pytest.raises(MaxStepsExceeded) as exc:
        integrate(lambda t, y: np.array([-y[1] * 50, y[0] * 50]),
                  np.array([1.0, 0.0]), np.array([0.0, 100.0]),
                  ToleranceSpec(rtol=1e-10, atol=1e-12))
    assert 0 <= exc.value.time < 100


def test_step_size_underflow_near_singularity():
    # y' = y / (1 - t) blows up at t = 1; the controller must give up
    def rhs(t, y):
        return y / (1.0 - t) if t < 1.0 else y * 1e308

    with pytest.raises(StepSizeUnderflow) as exc:
        integrate(rhs, np.array([1.0]), np.array([0.0, 1.0]),
                  ToleranceSpec(rtol=1e-10, atol=1e-12))
    assert 0.9 < exc.value.time <= 1.0


def test_nan_rhs_terminates_with_underflow():
    def rhs(t, y):
        return y * (math.nan if t > 0.5 else 1.0)

    with pytest.raises(StepSizeUnderflow) as exc:
        integrate(rhs, np.array([1.0]), np.array([0.0, 1.0]))
    assert exc.value.time <= 1.0


def test_overflowing_stages_underflow_without_warnings():
    # GBM at mu = 720 overflows the stages near t = 1: the rejected steps end
    # in a step size underflow, and numpy warns of none of the overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow) as exc:
            solve(SdeModel.gbm(720.0, 0.1, 1.0), FullTruncation(p=1, k=2),
                  make_basis("klcos", 1.0), np.linspace(0.0, 1.0, 3),
                  ToleranceSpec(rtol=1e-6, atol=1e-9))
    assert 0.9 < exc.value.time < 1.0


@pytest.mark.parametrize("y0, scale", [([1.0], 1e300), ([math.inf], 1.0),
                                       ([math.nan], 1.0)])
def test_unusable_initial_step_is_underflow_at_t0(y0, scale):
    # an overflowing first derivative norm gives h0 = 0, a non-finite state
    # h0 = NaN: both stop before the trial step instead of dividing by h0
    calls = []

    def rhs(t, y):
        calls.append(t)
        return y * scale

    with np.errstate(all="ignore"), pytest.raises(StepSizeUnderflow) as exc:
        integrate(rhs, np.array(y0), np.array([0.25, 1.0]))
    assert exc.value.time == 0.25
    assert calls == [0.25]


def test_grid_validation():
    with pytest.raises(ValueError):
        integrate(lambda t, y: y, np.array([1.0]),
                  np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(ValueError):
        integrate(lambda t, y: y, np.array([1.0]), np.array([0.0, math.nan]))


@pytest.mark.parametrize("rtol, atol", [(-1.0, 1e-6), (1e-3, 0.0), (math.nan, 1e-6),
                                        (1e-3, math.inf)])
def test_tolerances_must_be_finite_and_positive(rtol, atol):
    with pytest.raises(ValueError, match="rtol=.*atol="):
        ToleranceSpec(rtol=rtol, atol=atol)
