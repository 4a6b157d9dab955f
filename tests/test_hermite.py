import itertools
import math

import numpy as np
import pytest

from chaossde.errors import OrderTooLarge
from chaossde.hermite import hermite_table, product_expansion, triple_scalar
from reference import hermite_n, triple_multi


def gauss_hermite_expect(f, nodes=64):
    """E[f(xi)] for standard normal xi via Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return float(np.sum(w * f(x)) / np.sqrt(2.0 * np.pi))


class TestHermiteValues:
    def test_order_zero(self):
        for x in (-3.0, 0.0, 1.7):
            assert hermite_n(0, x) == 1.0

    def test_order_one_is_identity(self):
        assert hermite_n(1, 2.5) == 2.5

    def test_order_two_root(self):
        assert hermite_n(2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_cap(self):
        hermite_n(64, 0.3)
        with pytest.raises(OrderTooLarge):
            hermite_n(65, 0.3)

    @pytest.mark.parametrize("n,poly", [
        (2, lambda x: (x ** 2 - 1) / math.sqrt(2)),
        (3, lambda x: (x ** 3 - 3 * x) / math.sqrt(6)),
        (4, lambda x: (x ** 4 - 6 * x ** 2 + 3) / math.sqrt(24)),
    ])
    def test_low_orders_match_explicit_polynomials(self, n, poly):
        for x in np.linspace(-3, 3, 13):
            assert hermite_n(n, x) == pytest.approx(poly(x), rel=1e-12, abs=1e-12)

    def test_table_matches_scalar(self):
        xs = np.linspace(-2, 2, 7)
        table = hermite_table(6, xs)
        for n in range(7):
            for i, x in enumerate(xs):
                assert table[n, i] == pytest.approx(hermite_n(n, x), rel=1e-14)

    def test_table_is_the_scalar_recurrence_bit_for_bit(self):
        # row 0 holds the table's subtrahend, which the scalar recurrence forms
        # in a temporary; operands and order are the same, so are the bits,
        # whether the table is new, filled into a buffer whose row 1 already
        # holds x, or copied from a strided view
        x = np.random.default_rng(3).normal(scale=3.0, size=(4, 25))
        want = np.array([[[hermite_n(n, v) for v in row] for row in x] for n in range(65)])
        for n_max in (0, 1, 2, 3, 64):
            assert hermite_table(n_max, x).tobytes() == want[:n_max + 1].tobytes()
            out = np.full((n_max + 1,) + x.shape, np.nan)
            if n_max:
                out[1] = x
            assert hermite_table(n_max, out[min(n_max, 1)], out=out) is out
            assert out.tobytes() == want[:n_max + 1].tobytes()
        assert hermite_table(64, x.T).tobytes() == want.transpose(0, 2, 1).tobytes()


class TestOrthonormality:
    def test_quadrature_orthonormality_up_to_20(self):
        x, w = np.polynomial.hermite_e.hermegauss(64)
        w = w / np.sqrt(2.0 * np.pi)
        table = hermite_table(20, x)
        gram = (table * w) @ table.T
        assert np.abs(gram - np.eye(21)).max() < 1e-9

    def test_derivative_identity(self):
        # H'_n = sqrt(n) H_{n-1}, checked by central differences
        rng = np.random.default_rng(7)
        h = 1e-6
        for n in range(1, 11):
            for x in rng.uniform(-2.5, 2.5, 50):
                fd = (hermite_n(n, x + h) - hermite_n(n, x - h)) / (2 * h)
                target = math.sqrt(n) * hermite_n(n - 1, x)
                assert fd == pytest.approx(target, rel=1e-5, abs=1e-7)


class TestTripleScalar:
    def test_orthonormality_case(self):
        assert triple_scalar(1, 1, 0) == pytest.approx(1.0, rel=1e-14)

    def test_one_one_two_is_sqrt2(self):
        assert triple_scalar(1, 1, 2) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_odd_parity_vanishes(self):
        assert triple_scalar(1, 1, 1) == 0.0

    def test_triangle_violation_vanishes(self):
        assert triple_scalar(1, 2, 5) == 0.0

    def test_against_quadrature(self):
        for a, b, c in [(1, 1, 2), (2, 2, 2), (3, 1, 2), (4, 2, 2), (5, 3, 4),
                        (0, 0, 0), (6, 6, 6), (10, 8, 2)]:
            target = gauss_hermite_expect(
                lambda x: np.vectorize(hermite_n)(a, x)
                * np.vectorize(hermite_n)(b, x) * np.vectorize(hermite_n)(c, x))
            assert triple_scalar(a, b, c) == pytest.approx(target, abs=1e-9)

    def test_symmetry(self):
        for a, b, c in [(1, 1, 2), (3, 5, 4), (2, 6, 4)]:
            vals = {triple_scalar(*perm) for perm in itertools.permutations((a, b, c))}
            assert len(vals) == 1


class TestTripleMulti:
    def test_gamma_zero_gives_orthonormality(self):
        a = (1, 2)
        b = (2, 1)
        zero = (0, 0)
        assert triple_multi(a, a, zero) == pytest.approx(1.0, rel=1e-12)
        assert triple_multi(a, b, zero) == 0.0

    def test_single_coordinate(self):
        one = (1,)
        two = (2,)
        assert triple_multi(one, one, two) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_cross_coordinates(self):
        a = (1, 0)
        b = (0, 1)
        c = (1, 1)
        assert triple_multi(a, b, c) == pytest.approx(1.0, rel=1e-12)

    def test_product_expansion_consistency(self):
        b = (2, 1)
        c = (1, 2)
        terms = dict(product_expansion(b, c))
        for alpha, w in terms.items():
            assert w == pytest.approx(triple_multi(b, c, alpha), rel=1e-12)
        # quadrature cross-check of one specific weight
        assert terms[(1, 1)] == pytest.approx(2.0, rel=1e-12)

    def test_rows_of_different_length_rejected(self):
        with pytest.raises(ValueError):
            triple_multi((1, 0), (1,), (0, 0))
        with pytest.raises(ValueError):
            list(product_expansion((1, 0), (1,)))
