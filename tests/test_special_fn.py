import math
from fractions import Fraction

import numpy as np
import pytest

from bml import BMLParams, barnes_ml, gamma_pos, mittag_leffler_2p, truncation_order
from oracles import brute_series_sum, brute_tail, gamma_stirling


class TestGamma:
    def test_integer_values(self):
        assert gamma_pos(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_pos(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half_is_sqrt_pi(self):
        # independent oracle agrees and the value is sqrt(pi)
        assert gamma_stirling(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_pos(0.5) == pytest.approx(1.7724538509055160, rel=1e-12)

    def test_against_libm_over_range(self):
        xs = np.minimum(np.logspace(np.log10(0.1), np.log10(170.0), 700), 170.0)
        for x in xs:
            assert gamma_pos(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_against_stirling_oracle(self):
        for x in np.minimum(np.logspace(np.log10(0.1), np.log10(170.0), 150), 170.0):
            assert gamma_pos(float(x)) == pytest.approx(gamma_stirling(float(x)), rel=5e-12)

    def test_recurrence_property(self):
        for x in np.logspace(np.log10(0.1), np.log10(50.0), 200):
            x = float(x)
            defect = abs(gamma_pos(x + 1.0) - x * gamma_pos(x)) / gamma_pos(x + 1.0)
            assert defect <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            gamma_pos(bad)

    def test_range_error(self):
        with pytest.raises(OverflowError):
            gamma_pos(171.0)

    def test_integers_are_factorials(self):
        for n in range(1, 171):
            exact = math.factorial(n - 1)
            assert abs(Fraction(gamma_pos(n)) - exact) <= Fraction(1e-15) * exact, n

    def test_tiny_argument_overflows_by_name(self):
        # Gamma(x) ~ 1/x leaves the float range: an error, not inf
        with pytest.raises(OverflowError, match=r"gamma_pos\(1e-310\)"):
            gamma_pos(1e-310)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert mittag_leffler_2p(1.0, 1.0, 1.0) == pytest.approx(2.718281828459045, abs=1e-12)

    def test_zero_argument(self, rng):
        for theta in rng.uniform(0.2, 5.0, size=10):
            v = mittag_leffler_2p(1.3, float(theta), 0.0)
            assert v == pytest.approx(1.0 / gamma_pos(float(theta)), rel=1e-14)

    def test_cosh_case(self):
        oracle = brute_series_sum(2.0, 1.0, 1.0, 0.0, 1.0)
        assert abs(oracle - math.cosh(1.0)) < 1e-14
        assert mittag_leffler_2p(2.0, 1.0, 1.0) == pytest.approx(1.5430806348152437, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler_2p(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler_2p(1.0, -1.0, 1.0)


class TestBarnes:
    def test_s_zero_reduction(self, rng):
        grid = [complex(x, y) for x in np.linspace(-2, 2, 10) for y in np.linspace(-2, 2, 10)]
        for _ in range(20):
            K = float(rng.uniform(0.5, 3.0))
            theta = float(rng.uniform(0.3, 4.0))
            a = float(rng.uniform(0.3, 5.0))
            params = BMLParams(K, theta, a, 0.0)
            for z in grid[:: len(grid) // 10]:
                assert abs(barnes_ml(params, z) - mittag_leffler_2p(K, theta, z)) <= 1e-12

    def test_at_origin(self, rng):
        for _ in range(10):
            params = BMLParams(
                float(rng.uniform(0.5, 3)),
                float(rng.uniform(0.3, 4)),
                float(rng.uniform(0.3, 5)),
                float(rng.uniform(0, 3)),
            )
            expected = 1.0 / (gamma_pos(params.theta) * params.a**params.s)
            assert barnes_ml(params, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_telescoping_value(self):
        # sum of 1/(n! (n+2)) telescopes to 1
        params = BMLParams(1.0, 1.0, 2.0, 1.0)
        oracle = brute_series_sum(1.0, 1.0, 2.0, 1.0, 1.0)
        assert abs(oracle - 1.0) < 1e-14
        assert barnes_ml(params, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_summation(self, rng):
        for _ in range(25):
            params = BMLParams(
                float(rng.uniform(0.5, 2.5)),
                float(rng.uniform(0.3, 3)),
                float(rng.uniform(0.3, 4)),
                float(rng.uniform(0, 2)),
            )
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            oracle = brute_series_sum(params.K, params.theta, params.a, params.s, z)
            assert abs(barnes_ml(params, z) - oracle) <= 1e-12

    def test_stagnation(self, rng):
        for _ in range(100):
            params = BMLParams(
                float(rng.uniform(0.5, 2.5)),
                float(rng.uniform(0.3, 3)),
                float(rng.uniform(0.3, 4)),
                float(rng.uniform(0, 2)),
            )
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            radius = max(abs(z), 1e-30)
            n = truncation_order(params, radius, 1e-14)
            tail = brute_tail(params.K, params.theta, params.a, params.s, radius, n + 1)
            assert tail < 1e-14


class TestTruncationOrder:
    def test_factorial_case(self, unit_params):
        assert truncation_order(unit_params, 1.0, 1e-16) == 19

    def test_tiny_radius(self, rng):
        for _ in range(5):
            params = BMLParams(
                float(rng.uniform(0.5, 3)), float(rng.uniform(0.3, 3)), float(rng.uniform(0.3, 3))
            )
            assert truncation_order(params, 1e-12, 1e-8) == 1

    def test_radius_two(self, unit_params):
        expected = next(n for n in range(1, 200) if 2.0**n / math.factorial(n) < 1e-12)
        assert truncation_order(unit_params, 2.0, 1e-12) == expected

    def test_monotone_in_tol(self, unit_params):
        orders = [truncation_order(unit_params, 1.5, 10.0**-k) for k in range(2, 15)]
        assert orders == sorted(orders)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0])
    def test_tol_domain(self, unit_params, tol):
        with pytest.raises(ValueError):
            truncation_order(unit_params, 1.0, tol)

    def test_radius_power_overflow_is_diagnosed(self, unit_params):
        # 200^134 leaves the float range before the tail is certified
        with pytest.raises(OverflowError, match=r"K=1\.0, theta=1\.0, radius=200\.0, tol=1e-14"):
            truncation_order(unit_params, 200.0, 1e-14)
        with pytest.raises(OverflowError, match="float range"):
            mittag_leffler_2p(1.0, 1.0, 200.0)

    def test_radius_domain(self, unit_params):
        with pytest.raises(ValueError):
            truncation_order(unit_params, 0.0, 1e-8)


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            {"K": 0.0, "theta": 1, "a": 1},
            {"K": -1, "theta": 1, "a": 1},
            {"K": 1, "theta": 0, "a": 1},
            {"K": 1, "theta": 1, "a": 0},
            {"K": 1, "theta": 1, "a": 1, "s": -0.5},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            BMLParams(**kw)
