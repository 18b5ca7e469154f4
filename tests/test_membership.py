import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bml import (
    BMLParams,
    ClassSpec,
    ConstructionError,
    DegenerateDirectionError,
    GridSpec,
    InconclusiveError,
    JanowskiTheta,
    PoleError,
    PolynomialTheta,
    SchwarzSpec,
    SigmaSeries,
    SingularPointError,
    alexander,
    apply_operator,
    build_kernel,
    check_alexander,
    check_convolution,
    check_direct,
    construct_nonmember,
    convolution_value,
    epsilon_t1,
    evaluate,
    evaluate_grid,
    extremal_function,
    hadamard,
    kernel_series,
    phase_ratio,
    reconstruct_f,
    target_region_contains,
    target_value,
    z_fprime,
)
import bml.membership as membership
from bml.cli import main
from bml.solvers import _NEWTON_STEPS, secant_zeros
from bml.membership import (
    _SCAN_BLOCK,
    _kept_rows,
    _preimage_roots,
    _scan_minimum,
)
from oracles import (
    bisect_reference,
    central_derivative,
    dense_scan_minimum,
    grid_convolution_reference,
    pattern_search_reference,
    preimage_roots_reference,
)


def _spec(lam=0.0, A=1.0, B=-1.0, kind="spirallike", params=None):
    return ClassSpec(lam, JanowskiTheta(A, B), kind, params or BMLParams(1.0, 1.0, 1.0, 0.0))


def _random_specs(rng, count, kind="spirallike"):
    out = []
    for _ in range(count):
        lam = float(rng.uniform(-1.3, 1.3))
        B = float(rng.uniform(-1.0, 0.9))
        A = float(rng.uniform(B + 0.05, 1.0))
        out.append(_spec(lam, A, B, kind))
    return out


def _assert_margins_match_polyline(spec):
    """Margins at r = 0.999 and 1.001 match the signed distance, within 1e-6,
    to a 16,384-point polyline through the boundary image."""
    dense = np.array(
        [target_value(spec, x) for x in np.exp(2j * np.pi * np.arange(16384) / 16384)]
    )
    seg = np.roll(dense, -1) - dense
    seg2 = np.abs(seg) ** 2
    xs = np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
    for r, sign in ((0.999, 1.0), (1.001, -1.0)):
        pts = np.array([target_value(spec, r * x) for x in xs])
        for lo in range(0, 512, 128):
            p = pts[lo : lo + 128, None]
            d = p - dense[None, :]
            t = np.clip((d * seg.conj()[None, :]).real / seg2[None, :], 0.0, 1.0)
            dist = np.abs(d - t * seg[None, :]).min(axis=1)
            margins = np.array([target_region_contains(spec, complex(w))[1] for w in p[:, 0]])
            assert np.all(np.abs(margins - sign * dist) <= 1e-6)


class TestTargetValue:
    def test_anchor_at_origin(self, rng):
        for spec in _random_specs(rng, 20):
            assert abs(target_value(spec, 0.0) + 1.0) <= 1e-15
        poly = ClassSpec(
            0.4, PolynomialTheta((1.0, 0.3, 0.2j)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        assert abs(target_value(poly, 0.0) + 1.0) <= 1e-15

    def test_halfplane_value(self):
        assert target_value(_spec(0.0, 1.0, -1.0), 0.5) == pytest.approx(-3.0, abs=1e-14)

    def test_spiral_angle_origin(self):
        assert target_value(_spec(math.pi / 4, 1.0, 0.0), 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_pole_on_boundary(self):
        with pytest.raises(PoleError):
            target_value(_spec(0.0, 1.0, -1.0), 1.0)


class TestTargetRegion:
    def test_minus_one_always_inside(self, rng):
        for spec in _random_specs(rng, 20):
            inside, margin = target_region_contains(spec, -1.0)
            assert inside and margin > 0

    def test_halfplane_margins(self):
        spec = _spec(0.0, 0.0, -1.0)
        inside, margin = target_region_contains(spec, -0.4)
        assert not inside and margin == pytest.approx(-0.1, abs=1e-12)
        inside, margin = target_region_contains(spec, -0.6)
        assert inside and margin == pytest.approx(0.1, abs=1e-12)

    def test_boundary_bracketing_mobius(self, rng):
        # points just inside / outside the boundary curve get margins of the
        # right sign with near-equal magnitudes
        for spec in _random_specs(rng, 6):
            if spec.theta.B == -1.0 or abs(spec.theta.B) > 0.8:
                spec = _spec(spec.lam, 0.75, -0.25)
            xs = np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
            for x in xs[::8]:
                w_in = target_value(spec, 0.999 * x)
                w_out = target_value(spec, 1.001 * x)
                in1, m_in = target_region_contains(spec, w_in)
                in2, m_out = target_region_contains(spec, w_out)
                assert in1 and not in2
                assert abs(m_in + m_out) <= 1e-5

    def test_margin_matches_geometric_oracle(self):
        # closed-form margins agree with distances to a densely sampled
        # boundary polyline
        for lam, A, B in [(0.0, 0.75, -0.25), (0.5, 0.6, 0.3), (-0.8, 0.9, -0.5)]:
            _assert_margins_match_polyline(_spec(lam, A, B))

    def test_polynomial_margin_matches_geometric_oracle(self):
        # the first-order preimage margin cos(lam)|Theta'(x)|(1 - |x|) agrees
        # with the polyline distance just inside and just outside the boundary
        for lam, coefficients in [(0.0, (1.0, 0.4, 0.1)), (0.5, (1.0, 0.5 + 0.2j, 0.05, -0.03j))]:
            theta = PolynomialTheta(coefficients)
            spec = ClassSpec(lam, theta, "spirallike", BMLParams(1, 1, 1, 0))
            _assert_margins_match_polyline(spec)

    def test_polynomial_winding_fallback(self):
        spec = ClassSpec(
            0.0, PolynomialTheta((1.0, 0.3, 0.1)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        inside, margin = target_region_contains(spec, -1.0)
        assert inside and margin > 0
        outside, margin = target_region_contains(spec, -10.0)
        assert not outside and margin < 0


def _same_roots(a, b, tol, relative=False):
    """Root multisets agree: some pairing of a and b is within tol everywhere
    (within tol * max(1, |y|) for each reference root y if `relative`)."""

    def err(x, y):
        return abs(x - y) / (max(1.0, abs(y)) if relative else 1.0)

    return len(a) == len(b) and min(
        max(err(x, y) for x, y in zip(a, perm)) for perm in itertools.permutations(b)
    ) <= tol


# degrees 1, 2 and 3: the targets of the closed forms
_CLOSED_FORM_TARGETS = [(1.0, 0.4), (1.0, 0.4, 0.1), (1.0, 0.5 + 0.2j, 0.05, -0.03j)]


class TestPreimage:
    def test_matches_per_point_roots(self, rng):
        for degree in (1, 2, 3, 4):
            for _ in range(3):
                tail = 0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
                coefficients = (1.0,) + tuple(tail)
                t = 2.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
                roots = _preimage_roots(PolynomialTheta(coefficients), t)
                assert roots.shape == (40, degree)
                reference = preimage_roots_reference(coefficients, t)
                for got, ref in zip(roots, reference):
                    assert _same_roots(got, ref, 1e-10)

    def test_trailing_zero_lowers_degree(self, rng):
        coefficients = (1.0, 0.4, 0.0)
        t = rng.normal(size=20) + 1j * rng.normal(size=20)
        roots = _preimage_roots(PolynomialTheta(coefficients), t)
        assert roots.shape == (20, 1)
        for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
            assert _same_roots(got, ref, 1e-10)

    def test_t0_gives_root_at_origin(self):
        for coefficients in _CLOSED_FORM_TARGETS:
            roots = _preimage_roots(PolynomialTheta(coefficients), [1.0])
            (ref,) = preimage_roots_reference(coefficients, [1.0])
            assert _same_roots(roots[0], ref, 1e-10)
            assert np.min(np.abs(roots[0])) <= 1e-10

    def test_nonfinite_t_rows_are_inf(self):
        t = np.array([0.5, np.inf, complex(np.nan, 0.0), complex(1.0, -np.inf), 2.0j])
        for coefficients in _CLOSED_FORM_TARGETS + [(1.0, 0.3, 0.1j, 0.02, 0.01)]:
            roots = _preimage_roots(PolynomialTheta(coefficients), t)
            assert roots.shape == (5, len(coefficients) - 1)
            assert np.all(np.isinf(roots[1:4]))
            assert np.all(np.isfinite(roots[[0, 4]]))

    def test_overflowing_modulus_rows_are_inf(self):
        # each part of the constant term -(1 - t)/t_M is finite, its modulus is not
        for coefficients in _CLOSED_FORM_TARGETS + [(1.0, 0.3, 0.1j, 0.02, 0.01)]:
            t = np.array([-coefficients[-1] * 1.5e308 * (1.0 + 1.0j), 0.5])
            roots = _preimage_roots(PolynomialTheta(coefficients), t)
            assert np.all(np.isinf(roots[0])) and np.all(np.isfinite(roots[1]))

    # degrees 1-3 are solved in closed form, degree 4 by companion eigenvalues

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_huge_t_gives_finite_roots(self, rng, degree):
        coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree)))
        for scale in (1e100, 1e300):
            t = scale * np.exp(2j * np.pi * rng.uniform(size=8))
            roots = _preimage_roots(PolynomialTheta(coefficients), t)
            assert np.all(np.isfinite(roots))
            for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
                assert _same_roots(got, ref, 1e-10, relative=True)

    def test_closed_forms_are_backward_stable(self, rng):
        # |Theta(x) - t| relative to sum |t_k x^k| + |t| stays at a few
        # roundings (companion eigenvalues reach 3.1e-15 on these targets,
        # Cardano without its Newton step 5.7e-15)
        for degree in (2, 3):
            worst = 0.0
            for _ in range(200):
                coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree)))
                t = 2.0 * (rng.normal(size=50) + 1j * rng.normal(size=50))
                x = _preimage_roots(PolynomialTheta(coefficients), t)
                poly = np.array(coefficients[::-1])
                scale = np.polyval(np.abs(poly), np.abs(x)) + np.abs(t)[:, None]
                worst = max(worst, np.max(np.abs(np.polyval(poly, x) - t[:, None]) / scale))
            assert worst <= 2e-15

    def test_tiny_leading_coefficient(self, rng):
        coefficients = (1.0, 0.4, 1e-12)  # one root near -2.5, one near -4e11
        t = rng.normal(size=20) + 1j * rng.normal(size=20)
        roots = _preimage_roots(PolynomialTheta(coefficients), t)
        for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
            assert _same_roots(got, ref, 1e-10, relative=True)

    @pytest.mark.parametrize("coefficients", _CLOSED_FORM_TARGETS[1:])
    def test_near_critical_value(self, coefficients):
        # 1e-9 away from Theta(zeta) with Theta'(zeta) = 0 two roots nearly
        # coincide, and both methods lose digits to the conditioning
        poly = np.array(coefficients[::-1], dtype=complex)
        for zeta in np.roots(np.polyder(poly)):
            t = np.polyval(poly, zeta) + 1e-9 * np.exp(2j * np.pi * np.arange(8) / 8)
            roots = _preimage_roots(PolynomialTheta(coefficients), t)
            for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
                assert _same_roots(got, ref, 1e-8, relative=True)

    def test_degree_four_is_the_companion_eigenvalue_solve(self, rng):
        coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4)))
        t = 2.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
        roots = _preimage_roots(PolynomialTheta(coefficients), t)
        for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
            assert np.array_equal(got, ref)  # same matrices, same LAPACK call


class TestPhaseRatio:
    def test_pure_pole_is_minus_one(self, rng):
        f = SigmaSeries(1.0, [])
        for spec in _random_specs(rng, 3) + _random_specs(rng, 3, kind="convex"):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert phase_ratio(f, spec, z) == pytest.approx(-1.0, abs=1e-14)

    def test_square_example(self):
        f = SigmaSeries(1.0, [-2.0, 1.0])  # (1-z)^2 / z
        assert phase_ratio(f, _spec(), 0.5) == pytest.approx(-3.0, abs=1e-12)
        assert phase_ratio(f, _spec(kind="convex"), 0.5) == pytest.approx(-5.0 / 3.0, abs=1e-12)

    def test_matches_numeric_derivatives(self, rng):
        params = BMLParams(1.2, 0.7, 2.0, 1.0)
        f = SigmaSeries(1.0, 0.3 * (rng.normal(size=10) + 1j * rng.normal(size=10)))
        g = apply_operator(f, build_kernel(params, 10))
        spec = _spec(0.2, 0.5, -0.5, params=params)
        for _ in range(5):
            z = complex(rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.uniform()))
            num = z * central_derivative(lambda w: evaluate(g, w), z) / evaluate(g, z)
            assert abs(phase_ratio(f, spec, z) - num) < 1e-6

    def test_singular_point(self):
        f = SigmaSeries(1.0, [-2.0])  # image vanishes at z = 0.5
        with pytest.raises(SingularPointError):
            phase_ratio(f, _spec(), 0.5)


class TestCheckDirect:
    def test_pole_member_everywhere(self, rng, fast_grid):
        f = SigmaSeries(1.0, [])
        for spec in _random_specs(rng, 5) + _random_specs(rng, 2, kind="convex"):
            rep = check_direct(f, spec, fast_grid)
            assert rep.is_member and rep.method == "direct"

    def test_extremal_half_order(self, fast_grid):
        rep = check_direct(extremal_function(0.5, 0.0, 32), _spec(0.0, 0.0, -1.0), fast_grid)
        assert rep.is_member and rep.margin > 0

    def test_requires_sigma_normalization(self, fast_grid):
        with pytest.raises(ValueError):
            check_direct(SigmaSeries(2.0, [1.0]), _spec(), fast_grid)

    def test_witness_reproduces_margin(self, rng, fast_grid):
        f = extremal_function(0.25, 0.4, 64)
        spec = _spec(0.4, 0.5, -1.0, params=BMLParams(1e-8, 1.0, 1.0, 0.0))
        rep = check_direct(f, spec, fast_grid)
        q = phase_ratio(f, spec, rep.witness_z)
        _, margin = target_region_contains(spec, q)
        assert margin == pytest.approx(rep.margin, abs=1e-10)

    def test_inconclusive_when_threshold_swallows_grid(self, fast_grid):
        grid = GridSpec(
            radii=fast_grid.radii,
            angles=fast_grid.angles,
            boundary_x=fast_grid.boundary_x,
            min_modulus=1.5,
        )
        with pytest.raises(InconclusiveError):
            check_direct(SigmaSeries(1.0, []), _spec(), grid)

    def test_polynomial_target_route(self, fast_grid):
        spec = ClassSpec(
            0.0, PolynomialTheta((1.0, 0.4, 0.1)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        assert check_direct(SigmaSeries(1.0, []), spec, fast_grid).is_member
        pushed = SigmaSeries(1.0, [80.0, 0.0])
        assert not check_direct(pushed, spec, fast_grid).is_member


class TestEpsilon:
    def test_mobius_at_i(self):
        eps = epsilon_t1(1j, _spec(0.0, 1.0, -1.0))
        assert eps == pytest.approx((3.0 + 1.0j) / 2.0, abs=1e-14)

    def test_substitutions(self):
        spec = _spec(0.0, 0.0, -1.0)
        x = -1.0  # Theta(-1) = (1+0)/(1+1) = 1/2 -> E = 1/2, eps = 3
        assert epsilon_t1(x, spec) == pytest.approx(3.0, abs=1e-14)
        # E = 0: Theta(-1) = 0 for A = 1 -> eps = 2
        assert epsilon_t1(-1.0, _spec(0.0, 1.0, -0.5)) == pytest.approx(2.0, abs=1e-14)
        # E = -1: a polynomial target reaching Theta(-1) = -1 -> eps = 3/2
        poly_spec = ClassSpec(
            0.0, PolynomialTheta((1.0, 2.0)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        assert epsilon_t1(-1.0, poly_spec) == pytest.approx(1.5, abs=1e-14)

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            epsilon_t1(0.5, _spec())

    def test_degenerate_direction(self):
        # Theta(-1) = 1 makes E = 1 at lam = 0
        spec = ClassSpec(
            0.0, PolynomialTheta((1.0, 0.3, 0.3)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        with pytest.raises(DegenerateDirectionError):
            epsilon_t1(-1.0, spec)
        with pytest.raises(DegenerateDirectionError):
            kernel_series(-1.0, spec, 8, "t2")


class TestKernelSeries:
    def test_t1_tail_formula(self, rng):
        spec = _spec(0.3, 0.6, -0.4)
        x = cmath.exp(1.1j)
        eps = epsilon_t1(x, spec)
        k = kernel_series(x, spec, 6, "t1")
        n = np.arange(1, 7)
        assert k.principal == 1.0
        assert np.allclose(k.tail, (n + 1) - eps * n, rtol=0, atol=1e-14)

    def test_t1_eps_two_tail(self):
        # eps = 2 gives tail 1 - n: (0, -1, -2, ...)
        k = kernel_series(-1.0, _spec(0.0, 1.0, -0.5), 5, "t1")
        assert np.allclose(k.tail, [0.0, -1.0, -2.0, -3.0, -4.0], atol=1e-13)

    def test_t1_identity_pointwise(self, rng):
        # (E - 1)(image * k_t1)(z) = z image'(z) + E image(z)
        params = BMLParams(1.1, 0.9, 1.5, 0.5)
        spec = _spec(0.25, 0.7, -0.6, params=params)
        f = SigmaSeries(1.0, rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        g = apply_operator(f, build_kernel(params, 20))
        for _ in range(20):
            z = complex(rng.uniform(0.05, 0.99) * np.exp(2j * np.pi * rng.uniform()))
            x = cmath.exp(2j * np.pi * rng.uniform())
            e = -target_value(spec, x)
            k = kernel_series(x, spec, 20, "t1")
            lhs = (e - 1.0) * evaluate(hadamard(g, k), z)
            rhs = evaluate(z_fprime(g), z) + e * evaluate(g, z)
            assert abs(lhs - rhs) <= 1e-10

    def test_t2_identity_coefficientwise(self, rng):
        params = BMLParams(0.8, 1.4, 2.0, 1.0)
        spec = _spec(-0.4, 0.3, -0.8, params=params)
        f = SigmaSeries(1.0, rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16))
        g = apply_operator(f, build_kernel(params, 16))
        for _ in range(10):
            x = cmath.exp(2j * np.pi * rng.uniform())
            e = -target_value(spec, x)
            conv = hadamard(f, kernel_series(x, spec, 16, "t2"))
            expected = z_fprime(g) + e * g
            assert abs(conv.principal - expected.principal) <= 4e-16 * abs(expected.principal)
            # two roundings of O(n + |E|)-sized intermediates
            bound = 4e-16 * (np.arange(1, 17) + abs(e)) * np.abs(g.tail) + 1e-30
            assert np.all(np.abs(conv.tail - expected.tail) <= bound)

    def test_scan_value_matches_literal_convolution(self, rng):
        params = BMLParams(1.0, 1.0, 1.0, 0.0)
        spec = _spec(0.2, 0.8, -0.7, params=params)
        f = SigmaSeries(1.0, rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
        g = apply_operator(f, build_kernel(params, 12))
        for which in ("t1", "t2"):
            for _ in range(10):
                z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
                x = cmath.exp(2j * np.pi * rng.uniform())
                scan = convolution_value(f, spec, z, x, which)
                operand = g if which == "t1" else f
                literal = evaluate(hadamard(operand, kernel_series(x, spec, 12, which)), z)
                assert abs(scan - literal) <= 1e-12 * max(1.0, abs(literal))


class TestCheckConvolution:
    def test_pole_min_modulus(self, fast_grid):
        rep = check_convolution(SigmaSeries(1.0, []), _spec(0.0, 0.0, -1.0), fast_grid, "t1")
        assert rep.is_member
        assert rep.margin == pytest.approx(1.0 / fast_grid.r_max, rel=1e-6)

    def test_methods_agree_member_and_nonmember(self, fast_grid):
        spec = _spec(0.0, 0.0, -1.0)
        f = extremal_function(0.5, 0.0, 32)
        verdicts = [
            check_direct(f, spec, fast_grid).verdict,
            check_convolution(f, spec, fast_grid, "t1").verdict,
            check_convolution(f, spec, fast_grid, "t2").verdict,
        ]
        assert verdicts == ["member"] * 3
        bad = construct_nonmember(f, spec, fast_grid)
        verdicts = [
            check_direct(bad, spec, fast_grid).verdict,
            check_convolution(bad, spec, fast_grid, "t1").verdict,
            check_convolution(bad, spec, fast_grid, "t2").verdict,
        ]
        assert verdicts == ["non-member"] * 3

    def test_witness_reproduces_margin(self, fast_grid):
        f = extremal_function(0.4, 0.1, 48)
        # near-identity operator keeps the extremal a member
        spec = ClassSpec(0.1, JanowskiTheta(0.2, -1.0), "spirallike", BMLParams(1e-8, 1, 1, 0))
        for which in ("t1", "t2"):
            rep = check_convolution(f, spec, fast_grid, which)
            val = convolution_value(f, spec, rep.witness_z, rep.witness_x, which)
            assert abs(val) == pytest.approx(rep.margin, abs=1e-10)

    def test_which_validation(self, fast_grid):
        with pytest.raises(ValueError):
            check_convolution(SigmaSeries(1.0, []), _spec(), fast_grid, "t3")

    def test_convolution_value_refuses_bad_which_and_direction(self):
        f, spec = SigmaSeries(1.0, [0.1, 0.05]), _spec(0.2, 0.5, -0.3)
        with pytest.raises(ValueError, match="which must be"):
            convolution_value(f, spec, 0.5, 1j, "bogus")
        for which in ("t1", "t2"):
            with pytest.raises(ValueError, match="unit circle"):
                convolution_value(f, spec, 0.5, 3.0, which)
            # the same 1e-6 tolerance as epsilon_t1
            near = convolution_value(f, spec, 0.5, 1j * (1.0 + 1e-7), which)
            assert abs(near - convolution_value(f, spec, 0.5, 1j, which)) < 1e-5
        with pytest.raises(ValueError, match="unit circle"):
            epsilon_t1(3.0, spec)

    def test_nonmember_witness_reproduces_margin(self, fast_grid):
        spec = _spec(0.0, 0.0, -1.0)
        bad = construct_nonmember(extremal_function(0.5, 0.0, 16), spec, fast_grid)
        for which in ("t1", "t2"):
            rep = check_convolution(bad, spec, fast_grid, which)
            assert not rep.is_member
            val = convolution_value(bad, spec, rep.witness_z, rep.witness_x, which)
            assert abs(val) == pytest.approx(rep.margin, abs=1e-10)

    def test_polynomial_target_agreement(self, fast_grid):
        spec = ClassSpec(
            0.1, PolynomialTheta((1.0, 0.4, 0.1)), "spirallike", BMLParams(1, 1, 1, 0)
        )
        member = SigmaSeries(1.0, [0.05, 0.02])
        for f, expected in [(member, "member")]:
            assert check_direct(f, spec, fast_grid).verdict == expected
            assert check_convolution(f, spec, fast_grid, "t1").verdict == expected
            assert check_convolution(f, spec, fast_grid, "t2").verdict == expected
        bad = construct_nonmember(member, spec, fast_grid)
        assert check_direct(bad, spec, fast_grid).verdict == "non-member"
        assert check_convolution(bad, spec, fast_grid, "t1").verdict == "non-member"
        assert check_convolution(bad, spec, fast_grid, "t2").verdict == "non-member"

    def test_convex_kind_scans_transform(self, fast_grid):
        params = BMLParams(1.0, 1.0, 1.0, 0.0)
        spec = _spec(0.2, 0.6, -0.4, kind="convex", params=params)
        tail = np.zeros(10, dtype=complex)
        tail[1] = 0.04
        tail[2] = 0.02j
        f = SigmaSeries(1.0, tail)
        d = check_direct(f, spec, fast_grid)
        t1 = check_convolution(f, spec, fast_grid, "t1")
        t2 = check_convolution(f, spec, fast_grid, "t2")
        assert d.verdict == t1.verdict == t2.verdict == "member"
        bad = construct_nonmember(f, spec, fast_grid)
        assert check_direct(bad, spec, fast_grid).verdict == "non-member"
        assert check_convolution(bad, spec, fast_grid, "t1").verdict == "non-member"
        assert check_convolution(bad, spec, fast_grid, "t2").verdict == "non-member"


class TestProvenZero:
    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "tail,slope", [([-2.0], 2.2), ([0.0, -4.0], 5.0)], ids=["one-zero", "two-zeros"]
    )
    def test_zero_of_the_image_inside_an_inside_circle(self, which, tail, slope):
        # G = 1/z - 2 vanishes at z = 1/2 (G = 1/z + c z at two points
        # whose mean is 0), yet every annulling value on |z| = r_max lies
        # inside the target region: only the winding of G about 0 (not -1)
        # proves the zeros, and its contour moments find them
        f = SigmaSeries(1.0, tail)
        spec = ClassSpec(0.0, PolynomialTheta((1.0, slope)), "spirallike", BMLParams(1, 1, 1, 0))
        grid = GridSpec()
        s_base, s_dir = membership._scan_series(f, spec, which)
        zs = grid.circle_points()
        base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
        assert np.all(membership._inside_indicator(spec, base, dirv, which) < 0.0)
        rep = check_convolution(f, spec, grid, which)
        assert rep.verdict == "non-member"
        assert abs(rep.witness_z) <= grid.r_max
        assert abs(convolution_value(f, spec, rep.witness_z, rep.witness_x, which)) < grid.min_modulus

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_zero_inside_the_innermost_radius(self, which):
        # every annulling value on |z| = r_max lies outside the disc target,
        # and F vanishes near |z| = 0.05, inside the innermost of the 12
        # radii, where no interior grid sees it; the direct check agrees
        f = SigmaSeries(1.0, [-2.0])
        spec = ClassSpec(-1.2, JanowskiTheta(0.5, 0.3), "spirallike", BMLParams(1, 1, 1, 0))
        grid = GridSpec()
        rep = check_convolution(f, spec, grid, which)
        assert rep.verdict == "non-member" and abs(rep.witness_z) < grid.radii[0]
        assert abs(convolution_value(f, spec, rep.witness_z, rep.witness_x, which)) < grid.min_modulus
        assert check_direct(f, spec, grid).verdict == "non-member"

    def test_zero_proven_but_not_located_is_inconclusive(self, monkeypatch, capsys, tmp_path):
        def ends(fn, za, zb, fa):
            return np.asarray(zb, dtype=complex)

        monkeypatch.setattr(membership, "secant_zeros", ends)
        with pytest.raises(InconclusiveError, match="none was located"):
            check_convolution(SigmaSeries(1.0, [0.0, 40.0]), _spec(0.0, 0.0, -1.0), GridSpec())
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 2 40 0\n")
        assert main(["check", str(src), "--A", "0", "--B", "-1", "--method", "conv-t2"]) == 2
        assert "none was located" in capsys.readouterr().err


_JET_THETAS = [
    JanowskiTheta(0.5, -0.3),
    JanowskiTheta(0.0, -1.0),
    PolynomialTheta((1.0, 0.4, 0.1)),
    PolynomialTheta((1.0, 0.6j, 0.05, 0.02)),
]


def _member_classes():
    """Twelve member classes with their members: six targets, both kinds."""
    params = BMLParams(1.2, 0.8, 2.0, 1.0)
    out = []
    for lam, theta in zip((0.3, 0.1, 0.5, -0.2, -0.7, 1.0), _JET_THETAS + _JET_THETAS[:2]):
        for kind, omega in (("spirallike", (0.3, 0.2j)), ("convex", (0.0, 0.25, -0.1))):
            spec = ClassSpec(lam, theta, kind, params)
            f = reconstruct_f(spec, SchwarzSpec(omega), build_kernel(params, 16), 16, kind)
            out.append((spec, f))
    return out


class TestPolishMinimum:
    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("theta", _JET_THETAS)
    def test_torus_jet_matches_central_differences(self, theta, which):
        spec = ClassSpec(0.3, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        f = SigmaSeries(1.0, [0.05, 0.02 + 0.01j, -0.01, 0.003j])
        series = [
            s for pair in membership._scan_series(f, spec, which)
            for s in (pair, z_fprime(pair), z_fprime(z_fprime(pair)))
        ]

        def jet(phi, t):
            return membership._torus_jet(series, spec, which, 0.9, np.array([phi, t]))

        def value(phi, t):
            return jet(phi, t)[0]

        for phi, t in ((0.4, 1.1), (2.5, -2.0), (-1.3, 0.2)):
            _, (fp, ft), ((fpp, fpt), (ftp, ftt)), scale = jet(phi, t)
            assert fpt == ftp
            h = 1e-4
            mixed = (
                value(phi + h, t + h) - value(phi + h, t - h)
                - value(phi - h, t + h) + value(phi - h, t - h)
            ) / (4.0 * h * h)
            pairs = [
                (fp, central_derivative(lambda p: value(p.real, t), phi)),
                (ft, central_derivative(lambda q: value(phi, q.real), t)),
                (fpp, central_derivative(lambda p: value(p.real, t), phi, h, order=2)),
                (ftt, central_derivative(lambda q: value(phi, q.real), t, h, order=2)),
                (fpt, mixed),
            ]
            for analytic, numeric in pairs:
                assert abs(analytic - numeric) <= 1e-6 * max(scale, abs(analytic))

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_member_minimum_on_outer_torus(self, monkeypatch, which):
        grid = GridSpec()
        polish, steps = membership._polish_minimum, []

        def counted(*args):
            out = polish(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(membership, "_polish_minimum", counted)
        for spec, f in _member_classes():
            rep = check_convolution(f, spec, grid, which)
            assert rep.is_member
            assert abs(rep.witness_z) == pytest.approx(grid.r_max, rel=1e-15)
            s_base, s_dir = membership._scan_series(f, spec, which)

            def modulus(zs, ts):
                ws, skip = membership._direction_weights(spec, np.exp(1j * ts), which)
                vals = np.abs(evaluate_grid(s_base, zs) + ws * evaluate_grid(s_dir, zs))
                return np.where(skip, np.inf, vals)

            # the pattern search the polish replaced, from the scan's argmin
            zs, xs = grid.z_points(), grid.x_points()
            ws, skip = membership._direction_weights(spec, xs, which)
            base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
            scan, i, j = dense_scan_minimum(base, dirv, ws, skip)
            step_z = max(np.diff(grid.radii).max(), abs(zs[i]) * 2.0 * np.pi / grid.angles)
            pattern = pattern_search_reference(
                modulus, zs[i], np.angle(xs[j]), step_z, 2.0 * np.pi / grid.boundary_x,
                grid.r_max, grid.min_modulus,
            )[0]
            assert rep.margin <= min(scan, pattern) * (1.0 + 1e-12)
            # a dense 512 x 512 sample of the torus around the witness
            h = np.linspace(-0.02, 0.02, 512)
            phis, ts = np.angle(rep.witness_z) + h, np.angle(rep.witness_x) + h
            local = modulus(
                np.repeat(grid.r_max * np.exp(1j * phis), 512), np.tile(ts, 512)
            )
            assert rep.margin <= local.min() * (1.0 + 1e-13)
        assert len(steps) == 12 and max(steps) < _NEWTON_STEPS


class TestSecantZeros:
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))]
    )
    def test_matches_80_step_bisection_in_few_calls(self, fast_grid, theta):
        spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        s_base, s_dir = membership._scan_series(SigmaSeries(1.0, [0.0, 4.0]), spec, "t1")
        zs = fast_grid.circle_points()
        base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
        # a non-member: the radii [0, z_k] of its outside samples bracket a zero
        zb = zs[~(membership._inside_indicator(spec, base, dirv, "t1") < 0.0)]
        za, fa = np.zeros(len(zb), dtype=complex), np.full(len(zb), -1.0)
        assert len(zb) > 0
        calls = []

        def at(mid):
            calls.append(1)
            return membership._inside_indicator(
                spec, *membership._eval_series((s_base, s_dir), mid), "t1"
            )

        ref = bisect_reference(at, za, zb, fa)
        calls.clear()
        got = secant_zeros(at, za, zb, fa)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(zb - za))
        assert len(calls) <= 20

    @staticmethod
    def _run(fn, za, zb):
        """Secant and 80-step bisection on segments of the real line, and
        the number of calls the secant made."""
        calls = []

        def counted(z):
            calls.append(1)
            return fn(z.real)

        za, zb = np.array(za, dtype=complex), np.array(zb, dtype=complex)
        with np.errstate(invalid="ignore"):
            ref = bisect_reference(lambda z: fn(z.real), za, zb, fn(za.real))
            got = secant_zeros(counted, za, zb, fn(za.real))
        return got, ref, len(calls)

    def test_exact_zero_at_the_first_point(self):
        # the false-position point of [1, 3] under z - 2 is the midpoint 2
        got, ref, calls = self._run(lambda x: x - 2.0, [1.0], [3.0])
        assert got[0] == 2.0 == ref[0] and calls == 2

    def test_nonfinite_value_counts_as_plus_one(self):
        def fn(x):
            # x - 1.1 up to 1.3, nan on (1.3, 1.99), then 0.01: the first
            # false-position point, 1.909, lands in the nan
            return np.where(x <= 1.3, x - 1.1, np.where(x < 1.99, np.nan, 0.01))

        got, ref, _ = self._run(fn, [1.0], [2.0])
        assert abs(got[0] - 1.1) <= 4e-16 and abs(ref[0] - 1.1) <= 4e-16

    def test_zero_next_to_an_end_closes_at_once(self):
        # the zero, 1 + 1e-17, rounds to the left end: the false-position
        # point would too, so the search steps 2 ulp off that end instead
        got, ref, calls = self._run(lambda x: np.sinh(x - 1.0) - 1e-17, [1.0], [2.0])
        assert got[0] == 1.0 and abs(ref[0] - 1.0) <= 2.3e-16 and calls == 2

    def test_segments_finish_independently(self):
        # segment k is [2k + 1, 2k + 2], with its own zero roots[k]
        roots = np.array([1.25, 3.5, 5.75, 7.999])

        def fn(x):
            return np.sinh(4.0 * (x - roots[((x - 1.0) // 2.0).astype(int)]))

        got, ref, _ = self._run(fn, 2.0 * np.arange(4) + 1.0, 2.0 * np.arange(4) + 2.0)
        assert np.all(np.abs(got.real - roots) <= 4e-15) and np.all(got.imag == 0.0)
        assert np.all(np.abs(got - ref) <= 1e-12)


class TestScanMinimum:
    @staticmethod
    def _arrays(rng, n_points, n_dirs):
        def cplx(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        return cplx(n_points), cplx(n_points), cplx(n_dirs), np.zeros(n_dirs, dtype=bool)

    def test_several_blocks_and_partial_last(self, rng):
        n_dirs = 96
        rows = _SCAN_BLOCK // n_dirs
        for n_points in (1, rows - 1, rows, 3 * rows + 17):
            base, dirv, ws, skip = self._arrays(rng, n_points, n_dirs)
            assert _scan_minimum(base, dirv, ws, skip) == dense_scan_minimum(base, dirv, ws, skip)

    def test_one_row_per_block_when_directions_exceed_block(self, rng):
        base, dirv, ws, skip = self._arrays(rng, 5, _SCAN_BLOCK + 3)
        assert _scan_minimum(base, dirv, ws, skip) == dense_scan_minimum(base, dirv, ws, skip)

    def test_skip_mask(self, rng):
        base, dirv, ws, _ = self._arrays(rng, 3000, 64)
        plain = dense_scan_minimum(base, dirv, ws, np.zeros(64, dtype=bool))
        skip = rng.random(64) < 0.3
        skip[plain[2]] = True  # the unmasked minimum must drop out
        got = _scan_minimum(base, dirv, ws, skip)
        assert got == dense_scan_minimum(base, dirv, ws, skip)
        assert not skip[got[2]] and got[0] > plain[0]

    def test_ties_across_blocks_first_wins(self):
        n_dirs = 64
        rows = _SCAN_BLOCK // n_dirs
        n_points = 3 * rows
        ws = np.full(n_dirs, 1.0 + 0j)
        ws[[5, 40]] = 0.25  # a tie inside each row as well
        base = np.full(n_points, 3.0 + 0j)
        dirv = np.ones(n_points, dtype=complex)
        late = [rows + 7, 2 * rows + 1]  # the same minimum in blocks 1 and 2
        base[late] = 0.0
        skip = np.zeros(n_dirs, dtype=bool)
        expected = dense_scan_minimum(base, dirv, ws, skip)
        assert expected == (0.25, late[0], 5)
        assert _scan_minimum(base, dirv, ws, skip) == expected

    def test_nan_in_later_block_wins(self, rng):
        n_dirs = 64
        rows = _SCAN_BLOCK // n_dirs
        base, dirv, ws, skip = self._arrays(rng, 3 * rows, n_dirs)
        base[3] = -dirv[3] * ws[9]  # an exact zero in block 0
        dirv[2 * rows + 4] = complex(math.nan, 0.0)
        value, i, j = _scan_minimum(base, dirv, ws, skip)
        ref_value, ref_i, ref_j = dense_scan_minimum(base, dirv, ws, skip)
        assert math.isnan(value) and math.isnan(ref_value)
        assert (i, j) == (ref_i, ref_j) == (2 * rows + 4, 0)

    @staticmethod
    def _curve_inputs(theta, which, grid, tail=(0.05, 0.02)):
        """Scan inputs of a real check: base, direction and weight curves."""
        spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        s_base, s_dir = membership._scan_series(SigmaSeries(1.0, list(tail)), spec, which)
        zs = grid.z_points()
        ws, skip = membership._direction_weights(spec, grid.x_points(), which)
        return evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs), ws, skip

    @staticmethod
    def _assert_same(got, ref):
        """Equal (value, i, j), a NaN value matching a NaN."""
        assert got[1:] == ref[1:]
        assert got[0] == ref[0] or (math.isnan(got[0]) and math.isnan(ref[0]))

    @staticmethod
    def _kept(base, dirv, ws, skip):
        size = max(_SCAN_BLOCK, len(ws))
        return _kept_rows(base, dirv, ws, skip, np.empty(size, dtype=complex), np.empty(size))

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "theta",
        [JanowskiTheta(0.5, -0.3), JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))],
        ids=["disc", "half-plane", "polynomial"],
    )
    @pytest.mark.parametrize(
        "grid",
        # two radii keep the dense reference of the 1024 x 1024 grid near 100 MB
        [GridSpec(), GridSpec(radii=(0.495, 0.99), angles=1024, boundary_x=1024)],
        ids=["default", "1024x1024"],
    )
    @pytest.mark.parametrize("tail", [(0.05, 0.02), (0.0, 40.0)], ids=["member", "non-member"])
    def test_real_weight_curves_match_dense(self, which, theta, grid, tail):
        base, dirv, ws, skip = self._curve_inputs(theta, which, grid, tail)
        assert _scan_minimum(base, dirv, ws, skip) == dense_scan_minimum(base, dirv, ws, skip)

    @pytest.mark.parametrize("last", [0.5, np.nextafter(0.5, 0.0)], ids=["tie", "one-ulp-lower"])
    def test_one_ulp_apart_and_tied_rows_across_kept_blocks(self, rng, last):
        base, dirv, ws, skip = self._curve_inputs(JanowskiTheta(0.5, -0.3), "t1", GridSpec())
        n_rows = 1000
        base = 20.0 + rng.normal(size=n_rows) + 1j * rng.normal(size=n_rows)
        dirv = rng.normal(size=n_rows) + 1j * rng.normal(size=n_rows)
        skip[:3] = True
        # 400 constant rows 1 to 3 ulp above 0.5 stay within the rounding
        # allowance, so the kept rows fill several blocks of the full scan
        flat = np.arange(100, 900, 2)
        dirv[flat] = 0.0
        base[flat] = 0.5 + (1 + flat % 3) * np.spacing(0.5)
        base[[301, 777]] = 0.5, last
        dirv[[301, 777]] = 0.0
        kept = self._kept(base, dirv, ws, skip)
        assert np.isin([301, 777], kept).all() and len(kept) > 2 * (_SCAN_BLOCK // len(ws))
        expected = dense_scan_minimum(base, dirv, ws, skip)
        assert expected == ((last, 777, 3) if last < 0.5 else (0.5, 301, 3))
        assert _scan_minimum(base, dirv, ws, skip) == expected

    def test_rounding_allowance_keeps_row_whose_bound_overshoots_by_one_ulp(self):
        # Row 0's cluster bound (b + w1) - |w1 - w0| rounds to 1 ulp above its
        # minimum b + w0; row 1 ties that minimum at a cluster centre.  Only
        # the rounding allowance keeps row 0, whose minimum comes first.
        b, w0, w1 = 0.41432055203525664, -0.19460692976183436, 0.038336888078551824
        x = b + w0
        assert (b + w1) - abs(w1 - w0) == np.nextafter(x, 1.0)
        base = np.array([b, x], dtype=complex)
        dirv = np.array([1.0, 0.0], dtype=complex)
        ws = np.array([w0, w1], dtype=complex)
        skip = np.zeros(2, dtype=bool)
        assert dense_scan_minimum(base, dirv, ws, skip) == (x, 0, 0)
        assert _scan_minimum(base, dirv, ws, skip) == (x, 0, 0)

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, math.nan)]
    )
    @pytest.mark.parametrize("where", ["base", "dirv"])
    def test_nonfinite_row_that_bounds_would_drop(self, rng, bad, where):
        base, dirv, ws, skip = self._curve_inputs(JanowskiTheta(0.5, -0.3), "t1", GridSpec())
        row = 2000
        base[row] = 50.0  # far above the minimum: dropped while finite
        assert row not in self._kept(base, dirv, ws, skip)
        {"base": base, "dirv": dirv}[where][row] = bad
        assert row in self._kept(base, dirv, ws, skip)
        self._assert_same(_scan_minimum(base, dirv, ws, skip), dense_scan_minimum(base, dirv, ws, skip))

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 1.0)])
    def test_nonfinite_weight_in_live_column(self, bad):
        base, dirv, ws, skip = self._curve_inputs(JanowskiTheta(0.5, -0.3), "t1", GridSpec())
        ws[100] = bad
        self._assert_same(_scan_minimum(base, dirv, ws, skip), dense_scan_minimum(base, dirv, ws, skip))

    def test_cluster_of_skipped_columns_and_single_live_column(self, rng):
        base, dirv, ws, skip = self._curve_inputs(PolynomialTheta((1.0, 0.4, 0.1)), "t2", GridSpec())
        skip[40:140] = True  # more than three clusters' worth of directions
        assert _scan_minimum(base, dirv, ws, skip) == dense_scan_minimum(base, dirv, ws, skip)
        for live in (0, 77, len(ws) - 1):
            only = np.ones(len(ws), dtype=bool)
            only[live] = False
            assert _scan_minimum(base, dirv, ws, only) == dense_scan_minimum(base, dirv, ws, only)

    # One direction is left out: numpy computes a one-element complex
    # product without the fused multiply-add of its vector loop, so a
    # one-row block then differs from the dense matrix in the last bit.
    @pytest.mark.parametrize("n_dirs", [2, 3, 7, 100, 1000])
    def test_direction_counts_not_multiple_of_cluster(self, rng, n_dirs):
        base, dirv, ws, skip = self._arrays(rng, 2000, n_dirs)
        assert _scan_minimum(base, dirv, ws, skip) == dense_scan_minimum(base, dirv, ws, skip)
        # five live directions: one cluster, shorter than the cluster length
        few = np.ones(n_dirs, dtype=bool)
        few[rng.permutation(n_dirs)[:5]] = False
        assert _scan_minimum(base, dirv, ws, few) == dense_scan_minimum(base, dirv, ws, few)

    def test_member_check_scans_few_rows(self, monkeypatch):
        # the 12 x 256 disc samples of a member, the input the bound pass was
        # written for; on the 256 points of |z| = r_max alone, where |F| of
        # this near-constant f barely moves, it keeps 20-38 % of them
        fractions = []

        def counting(base, *args):
            kept = _kept_rows(base, *args)
            fractions.append(len(kept) / len(base))
            return kept

        monkeypatch.setattr(membership, "_kept_rows", counting)
        grid = GridSpec()
        for theta in (JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))):
            for which in ("t1", "t2"):
                base, dirv, ws, skip = self._curve_inputs(theta, which, grid, (0.05, 0.02))
                assert _scan_minimum(base, dirv, ws, skip)[0] >= grid.min_modulus
        assert len(fractions) == 4 and max(fractions) < 0.1

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))]
    )
    @pytest.mark.parametrize("tail,verdict", [([0.05, 0.02], "member"), ([0.0, 40.0], "non-member")])
    def test_reports_match_dense_scan(self, monkeypatch, which, theta, tail, verdict):
        spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        f = SigmaSeries(1.0, tail)
        grid = GridSpec()  # 3,072 samples x 512 directions: 24 blocks
        streamed = check_convolution(f, spec, grid, which)
        assert streamed.verdict == verdict
        monkeypatch.setattr(membership, "_scan_minimum", dense_scan_minimum)
        assert check_convolution(f, spec, grid, which) == streamed

    def test_memory_bounded_on_big_grid(self):
        spec = _spec(0.0, 0.0, -1.0, params=BMLParams(1.2, 0.8, 2.0, 1.0))
        f = extremal_function(0.5, 0.0, 64)
        grid = GridSpec(angles=1024, boundary_x=1024)  # 12,288 x 1,024 pairs
        tracemalloc.start()
        try:
            rep = check_convolution(f, spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.is_member
        assert peak < 16 * 2**20  # the dense matrix alone was 192 MiB


class TestAlexanderRoute:
    def test_requires_convex(self, fast_grid):
        with pytest.raises(ValueError):
            check_alexander(SigmaSeries(1.0, []), _spec(), fast_grid)

    def test_agrees_with_direct_convex(self, rng, fast_grid):
        params = BMLParams(1.0, 1.0, 1.0, 0.0)
        for _ in range(5):
            tail = 0.25 * (rng.normal(size=10) + 1j * rng.normal(size=10))
            tail[0] = 0.0
            f = SigmaSeries(1.0, tail)
            spec = _spec(0.2, 0.6, -0.3, kind="convex", params=params)
            a = check_direct(f, spec, fast_grid)
            b = check_alexander(f, spec, fast_grid)
            assert a.verdict == b.verdict
            assert a.margin == pytest.approx(b.margin, abs=1e-10)
            assert b.method == "alexander"

    def test_alexander_ratio_identity(self, rng):
        # convex phase ratio of f equals spirallike phase ratio of -z f'
        params = BMLParams(1.3, 0.8, 2.0, 1.5)
        spec_c = _spec(-0.3, 0.4, -0.9, kind="convex", params=params)
        spec_s = _spec(-0.3, 0.4, -0.9, kind="spirallike", params=params)
        f = SigmaSeries(1.0, 0.2 * (rng.normal(size=12) + 1j * rng.normal(size=12)))
        for _ in range(10):
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert phase_ratio(f, spec_c, z) == pytest.approx(
                phase_ratio(alexander(f), spec_s, z), abs=1e-11
            )


class TestExtremal:
    def test_alpha_zero(self):
        f = extremal_function(0.0, 0.0, 8)
        assert np.allclose(f.tail[:3], [-2.0, 1.0, 0.0], atol=1e-15)

    def test_alpha_half(self):
        f = extremal_function(0.5, 0.0, 8)
        assert np.allclose(f.tail, [-1.0] + [0.0] * 7, atol=1e-15)

    def test_exponent_orientation(self):
        # the exponent tau = (1 - alpha) e^{-i lam} cos(lam); the first tail
        # coefficient is -2 tau
        lam = math.pi / 4
        f = extremal_function(0.0, lam, 4)
        tau = -f.tail[0] / 2.0
        assert tau == pytest.approx((1.0) * cmath.exp(-1j * lam) * math.cos(lam), abs=1e-14)

    def test_phase_ratio_equals_target(self, rng):
        # the extremal's phase ratio is the target map itself
        lam, alpha = 0.6, 0.3
        spec = ClassSpec(
            lam, JanowskiTheta(1 - 2 * alpha, -1.0), "spirallike", BMLParams(1e-8, 1, 1, 0)
        )
        f = extremal_function(alpha, lam, 512)
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform()))
            assert phase_ratio(f, spec, z) == pytest.approx(target_value(spec, z), abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            extremal_function(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            extremal_function(0.2, math.pi / 2, 8)


class TestConstructNonmember:
    def test_idempotent_verdict(self, fast_grid):
        spec = _spec(0.0, 0.0, -1.0)
        f = extremal_function(0.5, 0.0, 16)
        bad = construct_nonmember(f, spec, fast_grid)
        assert not check_direct(bad, spec, fast_grid).is_member
        assert not check_direct(bad, spec, fast_grid).is_member

    def test_rejects_nonmember_input(self, fast_grid):
        spec = _spec(0.0, 0.0, -1.0)
        bad = SigmaSeries(1.0, [0.0, 40.0])
        with pytest.raises(ValueError):
            construct_nonmember(bad, spec, fast_grid)

    def test_no_scalable_coefficient(self, fast_grid):
        with pytest.raises(ConstructionError):
            construct_nonmember(SigmaSeries(1.0, []), _spec(), fast_grid)


class TestUnivalenceGate:
    def test_critical_point_in_disc_is_refused(self, fast_grid):
        theta = PolynomialTheta((1.0, 1.0, 1.0))  # Theta'(-1/2) = 0
        f = SigmaSeries(1.0, [0.05, 0.02])
        for kind in ("spirallike", "convex"):
            spec = ClassSpec(0.0, theta, kind, BMLParams(1, 1, 1, 0))
            checks = [
                check_direct,
                construct_nonmember,
                lambda f, spec, grid: check_convolution(f, spec, grid, "t1"),
                lambda f, spec, grid: check_convolution(f, spec, grid, "t2"),
            ] + ([check_alexander] if kind == "convex" else [])
            for check in checks:
                with pytest.raises(ValueError, match=r"zeta = \(-0\.5\+0j\)"):
                    check(f, spec, fast_grid)


def _univalent_polynomial(rng, degree):
    """1 + t_1 z + ... + t_M z^M with sum_{k>=2} k |t_k| < |t_1|: then
    Re(Theta'/t_1) > 0 on the disc, so Theta is univalent there
    (Noshiro-Warschawski)."""
    t1 = rng.uniform(0.4, 1.0) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
    weights = rng.uniform(0.2, 1.0, size=degree - 1)
    moduli = rng.uniform(0.2, 0.8) * abs(t1) * weights / weights.sum() / np.arange(2, degree + 1)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=degree - 1))
    return (1.0, t1) + tuple(moduli * phases)


@pytest.fixture(scope="module")
def univalent_polynomial_classes():
    """Sixteen classes on univalent polynomial targets of degrees 2-4 (4
    takes the eigenvalue solve), as (i, degree, spec, member, non-member):
    members rebuilt from a Schwarz function, non-members constructed."""
    rng = np.random.default_rng(4)
    grid = GridSpec()
    nonmember_grid = GridSpec(radii=grid.radii[-1:], angles=16)  # samples of `grid`
    out = []
    for i in range(16):
        kind, degree = ("spirallike", "convex")[i % 2], 2 + (i // 2) % 3
        params = BMLParams(
            rng.uniform(0.8, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        )
        theta = PolynomialTheta(_univalent_polynomial(rng, degree))
        spec = ClassSpec(rng.uniform(-1.2, 1.2), theta, kind, params)
        # a Schwarz function with coefficient moduli summing to rho < 1;
        # convex members need a zero linear coefficient
        weights = rng.uniform(0.2, 1.0, size=2)
        omega = rng.uniform(0.3, 0.7) * weights / weights.sum()
        omega = omega * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        omega = SchwarzSpec(((0.0,) if kind == "convex" else ()) + tuple(omega))
        member = reconstruct_f(spec, omega, build_kernel(params, 64), 64, kind)
        out.append((i, degree, spec, member, construct_nonmember(member, spec, nonmember_grid)))
    return out


def test_methods_agree_on_univalent_polynomial_classes(univalent_polynomial_classes):
    """Direct, t1, t2 and (convex) Alexander verdicts agree with the label."""
    grid = GridSpec()
    disagreements = []
    for i, degree, spec, member, nonmember in univalent_polynomial_classes:
        checks = {
            "direct": check_direct,
            "t1": lambda f, s, g: check_convolution(f, s, g, "t1"),
            "t2": lambda f, s, g: check_convolution(f, s, g, "t2"),
        }
        if spec.kind == "convex":
            checks["alexander"] = check_alexander
        for f, label in ((member, "member"), (nonmember, "non-member")):
            for name, check in checks.items():
                verdict = check(f, spec, grid).verdict
                if verdict != label:
                    disagreements.append((i, degree, spec.kind, label, name, verdict))
    assert disagreements == []


def _grid_reference(f, spec, grid, which):
    """The convolution verdict decided over the whole polar grid of `grid`."""
    s_base, s_dir = membership._scan_series(f, spec, which)

    def values(zs):
        return evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)

    return grid_convolution_reference(
        grid.z_points(), grid.x_points(), len(grid.radii), values,
        lambda xs: membership._direction_weights(spec, xs, which),
        lambda zs: membership._inside_indicator(spec, *values(zs), which),
        lambda zs: membership._nearest_circle_direction(spec, *values(zs), which),
        grid.r_max, grid.min_modulus,
    )


def test_circle_decision_matches_grid_reference(univalent_polynomial_classes):
    """The verdict on |z| = r_max is the interior grid's, and a member margin
    is no higher than the grid's scan and pattern search find."""
    grid = GridSpec()
    for _, _, spec, member, nonmember in univalent_polynomial_classes:
        for f in (member, nonmember):
            for which in ("t1", "t2"):
                rep = check_convolution(f, spec, grid, which)
                verdict, margin, _, _ = _grid_reference(f, spec, grid, which)
                assert rep.verdict == verdict
                if verdict == "member":
                    assert rep.margin <= margin * (1.0 + 1e-12)
                else:
                    assert abs(rep.witness_z) <= grid.r_max * (1.0 + 1e-15)
                    val = convolution_value(f, spec, rep.witness_z, rep.witness_x, which)
                    assert abs(val) < grid.min_modulus
