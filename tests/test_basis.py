import math

import numpy as np
import pytest

from chaossde.analysis import loglog_fit
from chaossde.basis import (breakpoints, antiderivative_grid, element_values,
                            kl_partial, make_basis, tail_sum)
from chaossde.errors import OutOfDomain

TRIG = make_basis("trig")
HAAR = make_basis("haar")
KLCOS = make_basis("klcos")
ALL = (TRIG, HAAR, KLCOS)


def eval_e(spec, l, t):
    """Value of the l-th basis element at time t."""
    return float(element_values(spec, l, t)[l - 1])


def eval_E(spec, l, t):
    """Antiderivative E_l(t), closed form."""
    return float(antiderivative_grid(spec, l, np.array([t]))[0, l - 1])


class TestEvalE:
    def test_trig_constant_element(self):
        for t in (0.0, 0.31, 1.0):
            assert eval_e(TRIG, 1, t) == pytest.approx(1.0)

    def test_trig_first_sine(self):
        assert eval_e(TRIG, 2, 0.25) == pytest.approx(math.sqrt(2))

    def test_trig_first_cosine(self):
        assert eval_e(TRIG, 3, 0.5) == pytest.approx(-math.sqrt(2))

    def test_haar_first_wavelet(self):
        assert eval_e(HAAR, 2, 0.1) == pytest.approx(1.0)
        assert eval_e(HAAR, 2, 0.7) == pytest.approx(-1.0)

    def test_haar_right_continuous_at_flip(self):
        assert eval_e(HAAR, 2, 0.5) == pytest.approx(-1.0)
        # level 2, first shift: support [0, 1/2], flip at 1/4
        assert eval_e(HAAR, 3, 0.25) == pytest.approx(-math.sqrt(2))
        assert eval_e(HAAR, 3, 0.5) == pytest.approx(0.0)

    def test_haar_closed_at_horizon(self):
        assert eval_e(HAAR, 2, 1.0) == pytest.approx(-1.0)
        assert eval_e(HAAR, 4, 1.0) == pytest.approx(-math.sqrt(2))
        assert eval_e(HAAR, 3, 1.0) == pytest.approx(0.0)

    def test_klcos_values(self):
        assert eval_e(KLCOS, 1, 0.0) == pytest.approx(math.sqrt(2))
        assert eval_e(KLCOS, 1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_domain(self):
        for spec in ALL:
            with pytest.raises(OutOfDomain):
                eval_e(spec, 1, 1.5)
            with pytest.raises(OutOfDomain):
                eval_e(spec, 1, -0.1)


class TestEvalAntiderivative:
    def test_zero_at_origin(self):
        for spec in ALL:
            for l in (1, 2, 5, 8):
                assert eval_E(spec, l, 0.0) == 0.0

    def test_trig_first_sine_square(self):
        # E_2(t)^2 = (1 - cos(2 pi t))^2 / (2 pi^2) -> 2/pi^2 at t = 1/2
        assert eval_E(TRIG, 2, 0.5) ** 2 == pytest.approx(2 / math.pi ** 2)

    def test_trig_constant_antiderivative(self):
        assert eval_E(TRIG, 1, 0.73) == pytest.approx(0.73)

    def test_haar_hat_peak(self):
        # max over t of E^2 at level n is 2^{-(n+1)}
        for n in (1, 2, 3):
            for j in range(1, 2 ** (n - 1) + 1):
                l = 2 ** (n - 1) + j
                ts = np.linspace(0, 1, 4097)
                peak = np.max(antiderivative_grid(HAAR, l, ts)[:, l - 1] ** 2)
                assert peak == pytest.approx(2.0 ** -(n + 1), rel=1e-12)

    def test_differentiates_back_to_element(self):
        rng = np.random.default_rng(11)
        h = 1e-7
        for spec in ALL:
            count = 0
            while count < 100:
                t = rng.uniform(0.01, 0.99)
                if spec.kind == "haar" and abs(t * 64 - round(t * 64)) < 1e-3:
                    continue  # skip near dyadic breakpoints
                for l in (1, 2, 3, 7, 12):
                    fd = (eval_E(spec, l, t + h) - eval_E(spec, l, t - h)) / (2 * h)
                    e = eval_e(spec, l, t)
                    assert fd == pytest.approx(e, rel=1e-5, abs=1e-5)
                count += 1


class TestOrthonormality:
    @pytest.mark.parametrize("spec", [TRIG, KLCOS], ids=["trig", "klcos"])
    def test_smooth_bases(self, spec):
        k = 32
        xs = np.linspace(0.0, 1.0, 2 ** 14 + 1)
        vals = np.stack([element_values(spec, k, x) for x in xs]).T
        h = xs[1] - xs[0]
        w = np.ones(len(xs))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        gram = (vals * (w * h / 3.0)) @ vals.T
        assert np.abs(gram - np.eye(k)).max() < 1e-6

    def test_haar_exact_on_dyadic_pieces(self):
        # Haar products are piecewise constant, so composite Simpson applied
        # cell by cell (with in-cell values at the cell's right endpoint)
        # integrates them exactly
        k = 32
        cells = np.linspace(0.0, 1.0, 33)
        pts = 2 ** 14 // 32 + 1
        gram = np.zeros((k, k))
        for lo, hi in zip(cells[:-1], cells[1:]):
            xs = np.linspace(lo, hi, pts)
            xs_eval = xs.copy()
            xs_eval[-1] = np.nextafter(hi, lo)
            vals = np.stack([element_values(HAAR, k, x) for x in xs_eval]).T
            h = xs[1] - xs[0]
            w = np.ones(pts)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            gram += (vals * (w * h / 3.0)) @ vals.T
        assert np.abs(gram - np.eye(k)).max() < 1e-6


class TestKlPartial:
    def test_first_trig_term(self):
        assert kl_partial(TRIG, 1, 0.7) == pytest.approx(0.49)

    def test_haar_full_level_at_horizon(self):
        for n in (1, 3, 6):
            assert kl_partial(HAAR, 2 ** n, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_trig_partial_converges(self):
        assert abs(kl_partial(TRIG, 65, 0.5) - 0.5) < 0.01

    def test_non_decreasing_in_k_and_bounded_by_t(self):
        for spec in ALL:
            for t in (0.2, 0.55, 0.9):
                vals = [kl_partial(spec, k, t) for k in range(1, 40)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                assert all(v <= t + 1e-9 for v in vals)


class TestTailSum:
    def test_zero_time(self):
        for spec in ALL:
            assert tail_sum(spec, 8, 0.0) == pytest.approx(0.0)

    def test_trig_rate(self):
        ks = [8, 16, 32, 64, 128]
        tails = [tail_sum(TRIG, k, 1.0) for k in ks]
        slope = loglog_fit(ks, tails)[0]
        assert -1.1 <= slope <= -0.9

    def test_klcos_rate(self):
        ks = [8, 16, 32, 64, 128]
        slope = loglog_fit(ks, [tail_sum(KLCOS, k, 1.0) for k in ks])[0]
        assert -1.1 <= slope <= -0.9

    def test_haar_halves_per_level(self):
        tails = [tail_sum(HAAR, 2 ** n, 1.0) for n in range(3, 10)]
        for a, b in zip(tails, tails[1:]):
            assert 0.42 <= b / a <= 0.58


class TestHaarIndexing:
    def test_levels_fill_powers_of_two(self):
        # flat indices 2^(n-1) + 1 .. 2^n are level n: shift j is supported
        # on the j-th of 2^(n-1) equal cells, so the level tiles [0, 1]
        ts = (np.arange(1024) + 0.5) / 1024
        for n in range(1, 6):
            vals = np.stack([element_values(HAAR, 2 ** n, t) for t in ts])
            support = vals[:, 2 ** (n - 1):] != 0.0
            cell = (ts * 2 ** (n - 1)).astype(int)
            assert np.array_equal(support, cell[:, None] == np.arange(2 ** (n - 1)))

    def test_breakpoints(self):
        assert np.allclose(breakpoints(HAAR, 8), np.arange(1, 8) / 8)
        assert breakpoints(TRIG, 8).size == 0
        assert breakpoints(KLCOS, 64).size == 0
        assert breakpoints(HAAR, 1).size == 0


class TestHorizonRescaling:
    def test_constant_element_scaling(self):
        spec = make_basis("trig", 4.0)
        assert eval_e(spec, 1, 3.0) == pytest.approx(0.5)  # 1/sqrt(T)
        assert eval_E(spec, 1, 3.0) == pytest.approx(1.5)  # t/sqrt(T)

    def test_kl_partial_converges_to_t(self):
        for kind in ("trig", "haar", "klcos"):
            spec = make_basis(kind, 2.0)
            assert kl_partial(spec, 256, 1.5) == pytest.approx(1.5, abs=0.01)

    def test_element_values_match_eval(self):
        for spec in ALL:
            vals = element_values(spec, 10, 0.37)
            for l in range(1, 11):
                assert vals[l - 1] == pytest.approx(eval_e(spec, l, 0.37), rel=1e-14)
