import cmath
import math

import numpy as np
import pytest

from bml import (
    BMLParams,
    ClassSpec,
    JanowskiTheta,
    LogObstructionError,
    OperatorKernel,
    PoleError,
    PolynomialTheta,
    SchwarzSpec,
    alexander,
    apply_operator,
    bml_from_schwarz,
    build_kernel,
    check_direct,
    closed_form_janowski,
    evaluate,
    integrand,
    reconstruct_f,
)
from oracles import exact_image_coefficients, reconstruct_reference


def _spec(lam=0.0, A=1.0, B=-1.0, params=None):
    return ClassSpec(lam, JanowskiTheta(A, B), "spirallike", params or BMLParams(1, 1, 1, 0))


def _scaled_schwarz(rng, degree, bound):
    co = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    t = 2.0 * np.pi * np.arange(1024) / 1024
    zb = 0.999 * np.exp(1j * t)
    acc = np.zeros_like(zb)
    for c in co[::-1]:
        acc = acc * zb + c
    co = bound * co / np.abs(acc * zb).max()
    return SchwarzSpec(tuple(co))


class TestSchwarzSpec:
    def test_zero_map(self):
        om = SchwarzSpec(())
        assert om.value(0.5) == 0.0
        assert om.linear_coefficient == 0.0

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            SchwarzSpec((1.2,))
        SchwarzSpec((0.9,))

    def test_origin_fixed(self):
        om = SchwarzSpec((0.3, 0.2))
        assert om.value(0.0) == 0.0


class TestIntegrand:
    def test_zero_schwarz(self):
        spec = _spec()
        assert integrand(spec, SchwarzSpec(()), 0.3 + 0.2j) == 0.0

    def test_origin_limit(self):
        spec = _spec(0.0, 1.0, -1.0)
        assert integrand(spec, SchwarzSpec((1.0,)), 0.0) == pytest.approx(2.0, abs=1e-14)
        # series oracle nearby: (Theta(xi) - 1)/xi = 2/(1 - xi)
        assert integrand(spec, SchwarzSpec((1.0,)), 1e-7) == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_schwarz(self):
        spec = _spec(0.0, 0.7, 0.0)
        om = SchwarzSpec((0.0, 1.0))
        for xi in (0.4, -0.3 + 0.2j):
            assert integrand(spec, om, xi) == pytest.approx(0.7 * xi, abs=1e-14)

    @pytest.mark.parametrize("theta", [JanowskiTheta(0.8, -0.6), PolynomialTheta((1.0, 0.4, 0.1))])
    def test_arrays_match_points(self, theta):
        spec = ClassSpec(0.3, theta, "spirallike", BMLParams(1, 1, 1, 0))
        om = SchwarzSpec((0.5, 0.2))
        xs = np.array([[0.0, 0.4], [-0.3 + 0.2j, 1e-9]])
        values = integrand(spec, om, xs)
        assert values.shape == (2, 2)
        points = np.array([[integrand(spec, om, x) for x in row] for row in xs])
        assert np.abs(values - points).max() <= 1e-15
        # the origin's value is the limit cos(lam) Theta'(0) w'(0)
        assert values[0, 0] == pytest.approx(values[1, 1], abs=1e-6)

    def test_pole_on_the_path(self):
        # Theta = (1 + z)/(1 - z) and w(xi) = xi: a pole at xi = 1
        with pytest.raises(PoleError):
            integrand(_spec(0.0, 1.0, -1.0), SchwarzSpec((1.0,)), np.array([0.5, 1.0]))


class TestQuadrature:
    def test_zero_schwarz_is_pole(self, rng):
        spec = _spec()
        om = SchwarzSpec(())
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert bml_from_schwarz(spec, om, z) == pytest.approx(1.0 / z, abs=1e-14)

    def test_identity_schwarz_square_case(self):
        spec = _spec(0.0, 1.0, -1.0)
        v = bml_from_schwarz(spec, SchwarzSpec((1.0,)), 0.5)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_closed_form(self, rng):
        spec = _spec(0.0, 0.7, 0.0)
        om = SchwarzSpec((0.0, 1.0))
        for _ in range(10):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            expected = cmath.exp(-0.7 * z * z / 2.0) / z
            assert abs(bml_from_schwarz(spec, om, z) - expected) < 1e-12

    def test_against_closed_form(self, rng):
        om = SchwarzSpec((1.0,))
        for _ in range(30):
            lam = float(rng.uniform(-1.2, 1.2))
            B = float(rng.uniform(-1.0, 0.9))
            A = float(rng.uniform(B + 0.05, 1.0))
            spec = _spec(lam, A, B)
            z = complex(rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert abs(bml_from_schwarz(spec, om, z) - closed_form_janowski(spec, z)) <= 1e-10

    def test_node_doubling_converges(self, rng):
        spec = _spec(0.5, 0.8, -0.6)
        om = _scaled_schwarz(rng, 4, 0.8)
        for _ in range(10):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            d = abs(bml_from_schwarz(spec, om, z, 64) - bml_from_schwarz(spec, om, z, 128))
            assert d < 1e-12

    def test_pole_and_node_validation(self):
        spec = _spec()
        with pytest.raises(PoleError):
            bml_from_schwarz(spec, SchwarzSpec(()), 0.0)
        with pytest.raises(ValueError):
            bml_from_schwarz(spec, SchwarzSpec(()), 0.5, nodes=4)
        with pytest.raises(PoleError):
            closed_form_janowski(spec, 0.0)

    def test_closed_form_values(self):
        spec = _spec(0.0, 1.0, -1.0)
        assert closed_form_janowski(spec, 0.5) == pytest.approx(0.5, abs=1e-14)
        spec0 = _spec(0.0, 1.0, 0.0)
        assert closed_form_janowski(spec0, 0.5) == pytest.approx(
            2.0 * math.exp(-0.5), abs=1e-14
        )


def _unit_weights(spec, order):
    """A kernel of unit weights: the member's tail is its image's tail."""
    return OperatorKernel(spec.params, np.ones(order))


_EXACT_CASES = {
    "disc": (JanowskiTheta(0.3, -0.95), (0.3, -0.25)),
    "half-plane": (JanowskiTheta(1.0, -1.0), (0.5, 0.3)),
    "polynomial": (PolynomialTheta((1.0, 0.4, 0.1)), (0.6, -0.2)),
}


class TestExpRecurrence:
    @pytest.mark.parametrize("case", sorted(_EXACT_CASES))
    def test_matches_exact_rationals(self, case):
        # componentwise: formal composition and exponentiation in floats
        # lost every digit of the small coefficients of the disc case
        theta, om = _EXACT_CASES[case]
        order = 128
        spec = ClassSpec(0.0, theta, "spirallike", BMLParams(1, 1, 1, 0))
        f = reconstruct_f(spec, SchwarzSpec(om), _unit_weights(spec, order), order, "spirallike")
        exact = np.array([num / den for num, den in exact_image_coefficients(theta, om, order)])
        nonzero = exact[1:] != 0
        assert nonzero.sum() >= order - 1
        rel = np.abs(f.tail - exact[1:])[nonzero] / np.abs(exact[1:])[nonzero]
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_compose_then_exp_reference(self, seed):
        rng = np.random.default_rng(seed)
        order = 256
        for target in ("disc", "polynomial"):
            lam = float(rng.uniform(-1.2, 1.2))
            if target == "disc":
                b = float(rng.uniform(-1.0, 0.5))
                theta = JanowskiTheta(float(rng.uniform(b + 0.1, 1.0)), b)
            else:
                theta = PolynomialTheta((1.0, *(rng.normal(size=3) * [0.4, 0.1, 0.03])))
            om = _scaled_schwarz(rng, 3, 0.9)
            spec = ClassSpec(lam, theta, "spirallike", BMLParams(1, 1, 1, 0))
            f = reconstruct_f(spec, om, _unit_weights(spec, order), order, "spirallike")
            ref = reconstruct_reference(lam, theta, om.coefficients, order)
            assert abs(ref.imag).max() > 0.0  # complex data
            assert np.abs(f.tail - ref[1:]).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("theta", [JanowskiTheta(0.8, -0.6), PolynomialTheta((1.0, 0.4, 0.1))])
    def test_image_matches_pointwise_exponential(self, rng, theta):
        # z times the image is exp(-e^{-i lam} integral), from quadrature
        spec = ClassSpec(0.5, theta, "spirallike", BMLParams(1, 1, 1, 0))
        om = _scaled_schwarz(rng, 3, 0.8)
        f = reconstruct_f(spec, om, _unit_weights(spec, 160), 160, "spirallike")
        for _ in range(10):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert abs(z * evaluate(f, z) - z * bml_from_schwarz(spec, om, z)) < 1e-11


class TestReconstruct:
    def test_zero_schwarz_both_kinds(self, unit_params):
        kern = build_kernel(unit_params, 8)
        poly = ClassSpec(0.7, PolynomialTheta((1.0, 0.5, 2.0)), "spirallike", unit_params)
        for spec in (_spec(), poly):
            for kind in ("spirallike", "convex"):
                f = reconstruct_f(spec, SchwarzSpec(()), kern, 8, kind)
                assert f.principal == 1.0
                assert np.allclose(f.tail, 0.0, atol=1e-15)

    def test_identity_schwarz_square_case(self, unit_params):
        kern = build_kernel(unit_params, 12)
        spec = _spec(0.0, 1.0, -1.0)
        f = reconstruct_f(spec, SchwarzSpec((1.0,)), kern, 12, "spirallike")
        assert np.allclose(f.tail[:3], [-2.0, 1.0, 0.0], atol=1e-13)

    def test_log_obstruction_reported(self, unit_params):
        kern = build_kernel(unit_params, 12)
        spec = _spec(0.0, 1.0, -1.0)
        with pytest.raises(LogObstructionError) as err:
            reconstruct_f(spec, SchwarzSpec((1.0,)), kern, 12, "convex")
        assert err.value.coefficient == pytest.approx(-2.0, abs=1e-13)

    def test_convex_gate_and_alexander_crosscheck(self, rng):
        params = BMLParams(1.2, 0.8, 2.0, 1.0)
        kern = build_kernel(params, 48)
        spec = _spec(0.4, 0.8, -0.3, params=params)
        om = SchwarzSpec((0.0, 0.55, 0.2))  # zero linear coefficient
        f_c = reconstruct_f(spec, om, kern, 48, "convex")
        f_s = reconstruct_f(spec, om, kern, 48, "spirallike")
        lhs = alexander(apply_operator(f_c, kern))
        rhs = apply_operator(f_s, kern)
        assert abs(lhs.principal - rhs.principal) <= 1e-14
        assert np.allclose(lhs.tail, rhs.tail, rtol=0, atol=1e-14)

    def test_roundtrip_matches_quadrature(self, rng):
        for params in (BMLParams(1, 1, 1, 0), BMLParams(1.2, 0.8, 2.0, 1.0)):
            kern = build_kernel(params, 128)
            for _ in range(3):
                om = _scaled_schwarz(rng, int(rng.integers(1, 4)), 0.8)
                lam = float(rng.uniform(-1.0, 1.0))
                B = float(rng.uniform(-1.0, 0.9))
                A = float(rng.uniform(B + 0.1, 1.0))
                spec = _spec(lam, A, B, params=params)
                f = reconstruct_f(spec, om, kern, 128, "spirallike")
                g = apply_operator(f, kern)
                for _ in range(15):
                    z = complex(rng.uniform(0.05, 0.85) * np.exp(2j * np.pi * rng.uniform()))
                    assert abs(evaluate(g, z) - bml_from_schwarz(spec, om, z)) <= 1e-8

    def test_membership_closure(self, rng, fast_grid):
        params = BMLParams(1, 1, 1, 0)
        kern = build_kernel(params, 96)
        spec = _spec(0.3, 0.8, -0.5, params=params)
        om = _scaled_schwarz(rng, 3, 0.8)
        f = reconstruct_f(spec, om, kern, 96, "spirallike")
        assert check_direct(f, spec, fast_grid).is_member

    def test_kind_validation(self, unit_params):
        kern = build_kernel(unit_params, 4)
        with pytest.raises(ValueError):
            reconstruct_f(_spec(), SchwarzSpec(()), kern, 4, "starlike")
        with pytest.raises(ValueError):
            reconstruct_f(_spec(), SchwarzSpec(()), kern, 0, "convex")

    def test_short_kernel_refused(self, unit_params):
        # a kernel of 16 weights cannot carry an order-40 member
        kern = build_kernel(unit_params, 16)
        with pytest.raises(ValueError, match="16 weights, fewer than order 40"):
            reconstruct_f(_spec(), SchwarzSpec((0.5,)), kern, 40, "spirallike")
        assert reconstruct_f(_spec(), SchwarzSpec((0.5,)), kern, 16, "spirallike").order == 16
