import math
from fractions import Fraction

import numpy as np
import pytest

from bml import (
    BMLParams,
    OperatorKernel,
    SigmaSeries,
    apply_operator,
    barnes_ml,
    build_kernel,
    coefficient_h,
    evaluate,
    gamma_pos,
    hadamard,
    invert_operator,
    max_kernel_order,
)


def _random_params(rng, k_lo=0.3, k_hi=3.0):
    return BMLParams(
        float(rng.uniform(k_lo, k_hi)),
        float(rng.uniform(0.3, 4.0)),
        float(rng.uniform(0.3, 5.0)),
        float(rng.uniform(0.0, 3.0)),
    )


class TestCoefficientH:
    def test_first_weight_is_one(self, rng):
        for _ in range(100):
            assert abs(coefficient_h(1, _random_params(rng)) - 1.0) <= 1e-14

    def test_unit_params_values(self, unit_params):
        assert coefficient_h(2, unit_params) == pytest.approx(1.0, rel=1e-12)
        assert coefficient_h(3, unit_params) == pytest.approx(0.5, rel=1e-12)

    def test_unit_params_factorial(self, unit_params):
        for n in range(1, 11):
            expected = 1.0 / math.factorial(n - 1)
            assert coefficient_h(n, unit_params) == pytest.approx(expected, rel=1e-12)

    def test_positive(self, rng):
        for _ in range(20):
            params = _random_params(rng)
            assert all(coefficient_h(n, params) > 0 for n in range(1, 30))

    def test_monotone_decay(self, rng):
        # decreasing once the Gamma argument clears its interior minimum
        for _ in range(20):
            params = BMLParams(
                float(rng.uniform(1.0, 3.0)),
                float(rng.uniform(0.3, 4.0)),
                float(rng.uniform(1.0, 5.0)),
                float(rng.uniform(0.0, 3.0)),
            )
            h = [coefficient_h(n, params) for n in range(1, 40)]
            for n in range(1, len(h)):
                # guard: the pair (h_n, h_{n+1}) compares Gamma above its minimum
                if params.K * n + params.theta - params.K >= 2.0:
                    assert h[n] <= h[n - 1]

    def test_index_validation(self, unit_params):
        with pytest.raises(ValueError):
            coefficient_h(0, unit_params)

    def test_range_error_propagates(self):
        with pytest.raises(OverflowError):
            coefficient_h(100, BMLParams(3.0, 1.0, 1.0, 0.0))


class TestBuildKernel:
    def test_unit_example(self, unit_params):
        k = build_kernel(unit_params, 3)
        assert np.allclose(k.h, [1.0, 1.0, 0.5], rtol=1e-12, atol=0)

    def test_single_weight(self, rng):
        k = build_kernel(_random_params(rng), 1)
        assert k.h.shape == (1,)
        assert k.h[0] == pytest.approx(1.0, rel=1e-14)

    def test_series_packaging(self, unit_params):
        k = build_kernel(unit_params, 8)
        assert k.series.principal == 1.0
        assert np.array_equal(k.series.tail.real, k.h)

    def test_series_matches_direct_summation(self, rng):
        # evaluate(kernel.series, z) telescopes to 1/z + a^s Gamma(theta) * series value
        for _ in range(10):
            params = _random_params(rng, k_hi=2.0)
            k = build_kernel(params, 48)
            scale = params.a**params.s * gamma_pos(params.theta)
            for _ in range(5):
                z = complex(rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform()))
                expected = 1.0 / z + scale * barnes_ml(params, z)
                assert abs(evaluate(k.series, z) - expected) < 1e-11

    def test_order_validation(self, unit_params):
        with pytest.raises(ValueError):
            build_kernel(unit_params, 0)

    def test_weights_are_coefficient_h_bit_for_bit(self, rng, unit_params):
        for params in [unit_params] + [_random_params(rng, k_lo=1.0) for _ in range(10)]:
            order = min(100, max_kernel_order(params))
            h = build_kernel(params, order).h
            assert h[0] == 1.0
            assert np.array_equal(h, [coefficient_h(n, params) for n in range(1, order + 1)])

    def test_unit_weights_are_inverse_factorials(self, unit_params):
        # h_n = 1/(n-1)! exactly: Gamma's error at n plus one division
        h = build_kernel(unit_params, max_kernel_order(unit_params)).h
        for n, weight in enumerate(h, 1):
            exact = Fraction(1, math.factorial(n - 1))
            assert abs(Fraction(weight) - exact) <= Fraction(1e-15) * exact, n

    def test_max_order_guard(self):
        params = BMLParams(3.0, 1.0, 1.0, 0.0)
        n = max_kernel_order(params)
        build_kernel(params, n)
        with pytest.raises(OverflowError):
            build_kernel(params, n + 1)


class TestApplyInvert:
    def test_pure_pole_fixed(self, unit_params):
        k = build_kernel(unit_params, 4)
        out = apply_operator(SigmaSeries(1.0, []), k)
        assert out.principal == 1.0
        assert out.order == 0

    def test_unit_example(self, unit_params):
        k = build_kernel(unit_params, 3)
        out = apply_operator(SigmaSeries(1.0, [0.0, 1.0, 1.0]), k)
        assert np.allclose(out.tail, [0.0, 1.0, 0.5], rtol=1e-12, atol=1e-15)

    def test_s_zero_ignores_barnes_shift(self, rng):
        f = SigmaSeries(1.0, rng.normal(size=10) + 1j * rng.normal(size=10))
        k1 = build_kernel(BMLParams(1.3, 0.8, 1.0, 0.0), 10)
        k2 = build_kernel(BMLParams(1.3, 0.8, 7.5, 0.0), 10)
        a = apply_operator(f, k1)
        b = apply_operator(f, k2)
        assert np.array_equal(a.tail, b.tail)

    def test_invert_example(self, unit_params):
        k = build_kernel(unit_params, 3)
        g = SigmaSeries(1.0, [0.0, 0.0, 0.5])
        f = invert_operator(g, k)
        assert np.allclose(f.tail, [0.0, 0.0, 1.0], rtol=1e-12, atol=0)
        assert invert_operator(SigmaSeries(1.0, []), k).order == 0

    def test_roundtrip_one_rounding(self, rng):
        for _ in range(25):
            params = _random_params(rng)
            k = build_kernel(params, 24)
            tail = rng.normal(size=24) + 1j * rng.normal(size=24)
            f = SigmaSeries(1.0, tail)
            back = invert_operator(apply_operator(f, k), k)
            assert np.allclose(back.tail, tail, rtol=5e-16, atol=0)
            fwd = apply_operator(invert_operator(f, k), k)
            assert np.allclose(fwd.tail, tail, rtol=5e-16, atol=0)

    def test_hand_built_kernel_roundtrip(self, unit_params):
        # the series is built from h, so there is no second copy to disagree
        k = OperatorKernel(unit_params, [1.0, 0.5])
        assert np.array_equal(k.series.tail, [1.0, 0.5])
        f = SigmaSeries(1.0, [0.2, 0.4])
        assert np.array_equal(apply_operator(f, k).tail, [0.2, 0.2])
        longer = SigmaSeries(1.0, [0.2, 0.4, 0.6])  # the image keeps the shorter tail
        assert np.array_equal(apply_operator(longer, k).tail, [0.2, 0.2])
        assert np.array_equal(invert_operator(apply_operator(f, k), k).tail, f.tail)
        with pytest.raises(TypeError):
            OperatorKernel(unit_params, [1.0, 0.5], SigmaSeries(1.0, [1.0, 3.0]))

    def test_apply_is_the_hadamard_product_with_the_kernel_series(self, rng):
        # random weights and built kernels, shorter than f, as long, and longer
        for order, n in [(6, 12), (12, 12), (12, 6), (1, 9), (9, 1)]:
            for k in (
                OperatorKernel(_random_params(rng), rng.uniform(1e-3, 2.0, size=order)),
                build_kernel(_random_params(rng), order),
            ):
                tail = rng.normal(size=n) + 1j * rng.normal(size=n)
                f = SigmaSeries(complex(rng.normal(), rng.normal()), tail)
                got, want = apply_operator(f, k), hadamard(k.series, f)
                assert got.principal == want.principal and got.order == want.order == min(order, n)
                assert np.array_equal(got.tail, want.tail)

    def test_apply_linear(self, rng, unit_params):
        k = build_kernel(unit_params, 8)
        f = SigmaSeries(1.0, rng.normal(size=8))
        g = SigmaSeries(1.0, rng.normal(size=8))
        lhs = apply_operator(f + g, k)
        rhs = apply_operator(f, k) + apply_operator(g, k)
        assert np.allclose(lhs.tail, rhs.tail, rtol=1e-15, atol=0)
