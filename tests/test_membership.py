import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from bml.solvers import (
    _ANGLE_STEPS,
    _MAX_STEP,
    _NEWTON_STEPS,
    _SECANT_STEPS,
    _ZERO_STEPS,
    newton_angle_minima,
    secant_zero,
)
from bml.membership import _preimage_roots
from oracles import (
    bisect_reference,
    central_derivative,
    dense_scan_minimum,
    grid_convolution_reference,
    grid_direct_reference,
    newton_zeros_reference,
    pattern_search_reference,
    preimage_roots_reference,
)


def _directions(n):
    """n unit-circle samples, offset half a step so x = 1 is never hit exactly."""
    return np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)


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

    def test_arrays_match_points(self, rng):
        zs = 0.9 * np.exp(2j * np.pi * rng.uniform(size=7))
        poly = ClassSpec(0.4, PolynomialTheta((1.0, 0.3, 0.2j)), "convex", BMLParams(1, 1, 1, 0))
        for spec in (_spec(0.6, 0.8, -0.5), poly):
            values = target_value(spec, zs.reshape(7, 1))
            assert values.shape == (7, 1)
            points = np.array([target_value(spec, z) for z in zs])
            assert np.abs(values[:, 0] - points).max() <= 1e-15 * np.abs(points).max()
        with pytest.raises(PoleError, match=r"z = \(1\+0j\)"):
            target_value(_spec(0.0, 1.0, -1.0), np.array([0.5, 1.0, -1.0]))


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


# degrees 1, 2 and 3: the targets of the closed forms
_CLOSED_FORM_TARGETS = [(1.0, 0.4), (1.0, 0.4, 0.1), (1.0, 0.5 + 0.2j, 0.05, -0.03j)]


def _nearest(got, reference, tol, relative=False):
    """Each entry of `got` is within tol of a root of its `reference` row
    (within tol * max(1, |y|) if `relative`) whose modulus is the row's
    least within that tolerance."""
    for x, ref in zip(np.asarray(got), reference):
        size = np.abs(ref)
        err = np.abs(ref - x) / (np.maximum(1.0, size) if relative else 1.0)
        k, least = int(np.argmin(err)), int(np.argmin(size))
        slack = tol * (max(1.0, size[least]) if relative else 1.0)
        if not (err[k] <= tol and size[k] <= size[least] + 2.0 * slack):
            return False
    return True


class TestPreimage:
    """`_preimage_roots` returns the root nearest the origin per offset."""

    def test_matches_per_point_roots(self, rng):
        for degree in (1, 2, 3, 4):
            for _ in range(3):
                tail = 0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
                coefficients = (1.0,) + tuple(tail)
                t = 2.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
                roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
                assert roots.shape == (40,)
                assert _nearest(roots, preimage_roots_reference(coefficients, t), 1e-10)

    def test_trailing_zero_lowers_degree(self, rng):
        coefficients = (1.0, 0.4, 0.0)
        t = rng.normal(size=20) + 1j * rng.normal(size=20)
        roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
        assert roots.shape == (20,)
        assert _nearest(roots, preimage_roots_reference(coefficients, t), 1e-10)

    def test_t0_gives_root_at_origin(self):
        for coefficients in _CLOSED_FORM_TARGETS:
            roots = _preimage_roots(PolynomialTheta(coefficients), [0.0])
            assert _nearest(roots, preimage_roots_reference(coefficients, [1.0]), 1e-10)
            assert roots[0] == 0.0

    def test_nonfinite_t_rows_are_inf(self):
        t = np.array([0.5, np.inf, complex(np.nan, 0.0), complex(1.0, -np.inf), 2.0j])
        for coefficients in _CLOSED_FORM_TARGETS + [(1.0, 0.3, 0.1j, 0.02, 0.01)]:
            roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
            assert roots.shape == (5,)
            assert np.all(np.isinf(roots[1:4]))
            assert np.all(np.isfinite(roots[[0, 4]]))

    def test_overflowing_modulus_rows_are_inf(self):
        # each part of the constant term (t - 1)/t_M is finite, its modulus is not
        for coefficients in _CLOSED_FORM_TARGETS + [(1.0, 0.3, 0.1j, 0.02, 0.01)]:
            t = np.array([-coefficients[-1] * 1.5e308 * (1.0 + 1.0j), 0.5])
            roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
            assert np.isinf(roots[0]) and np.isfinite(roots[1])

    # degrees 1-3 are solved in closed form, degree 4 by companion eigenvalues

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_huge_t_gives_finite_roots(self, rng, degree):
        coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree)))
        for scale in (1e100, 1e300):
            t = scale * np.exp(2j * np.pi * rng.uniform(size=8))
            roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
            assert np.all(np.isfinite(roots))
            assert _nearest(roots, preimage_roots_reference(coefficients, t), 1e-10, relative=True)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_rows_do_not_depend_on_the_batch(self, rng, degree):
        # rows at most the frame's limit are solved as they are, so a
        # non-finite row, or one scaled above the limit, changes no other
        # row's root, and each row is its root solved alone, bit for bit
        coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree)))
        theta = PolynomialTheta(coefficients)
        u = 2.0 * (rng.normal(size=24) + 1j * rng.normal(size=24))
        clean = _preimage_roots(theta, u)
        for extra in ([np.inf], [1e305j], [complex(np.nan, 1.0), -1e303, 1e302]):
            mixed = _preimage_roots(theta, np.concatenate([extra, u, extra]))
            assert np.array_equal(mixed[len(extra) : -len(extra)], clean)
        for k in range(len(u)):
            assert np.array_equal(_preimage_roots(theta, u[k : k + 1])[0], clean[k])

    def test_closed_forms_are_backward_stable(self, rng):
        # |Theta(x) - t| relative to sum |t_k x^k| + |t| stays at a few
        # roundings (companion eigenvalues reach 3.1e-15 on these targets,
        # Cardano without its Newton step 5.7e-15)
        for degree in (2, 3):
            worst = 0.0
            for _ in range(200):
                coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=degree) + 1j * rng.normal(size=degree)))
                t = 2.0 * (rng.normal(size=50) + 1j * rng.normal(size=50))
                x = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
                poly = np.array(coefficients[::-1])
                scale = np.polyval(np.abs(poly), np.abs(x)) + np.abs(t)
                worst = max(worst, np.max(np.abs(np.polyval(poly, x) - t) / scale))
            assert worst <= 2e-15

    # one root near -2.5, the other near -4e11, or near -4e199: past the
    # limit, where every row is solved scaled
    @pytest.mark.parametrize("coefficients", [(1.0, 0.4, 1e-12), (1.0, 0.4, 1e-200)])
    def test_tiny_leading_coefficient(self, rng, coefficients):
        t = rng.normal(size=20) + 1j * rng.normal(size=20)
        roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
        assert _nearest(roots, preimage_roots_reference(coefficients, t), 1e-10, relative=True)

    @pytest.mark.parametrize("coefficients", _CLOSED_FORM_TARGETS[1:])
    def test_near_critical_value(self, coefficients):
        # 1e-9 away from Theta(zeta) with Theta'(zeta) = 0 two roots nearly
        # coincide, and both methods lose digits to the conditioning
        poly = np.array(coefficients[::-1], dtype=complex)
        for zeta in np.roots(np.polyder(poly)):
            t = np.polyval(poly, zeta) + 1e-9 * np.exp(2j * np.pi * np.arange(8) / 8)
            roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
            assert _nearest(roots, preimage_roots_reference(coefficients, t), 1e-8, relative=True)

    def test_degree_four_is_the_companion_eigenvalue_solve(self, rng):
        coefficients = (1.0,) + tuple(0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4)))
        t = 2.0 * (rng.normal(size=40) + 1j * rng.normal(size=40))
        roots = _preimage_roots(PolynomialTheta(coefficients), t - 1.0)
        for got, ref in zip(roots, preimage_roots_reference(coefficients, t)):
            # same matrices, same LAPACK call
            assert got == ref[np.argmin(np.abs(ref))]


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

    def test_pole_at_origin_raises(self):
        # as evaluate(f, 0) does, not a silent nan
        for kind in ("spirallike", "convex"):
            with pytest.raises(PoleError):
                phase_ratio(SigmaSeries(1.0, [0.1, 0.05]), _spec(kind=kind), 0)


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


def _direct_grid_reference(f, spec, grid):
    """The direct verdict decided over the whole polar grid of `grid`."""
    return grid_direct_reference(
        grid.z_points(),
        lambda zs: membership.phase_grid(f, spec, zs, grid.min_modulus)[:2],
        lambda q: membership.region_margins(spec, q),
    )


def _assert_direct_witness(f, spec, grid, rep):
    """A non-member's witness is a point of the closed disc |z| <= r_max
    (up to the rounding of the circle samples) where the phase ratio is
    outside the target region, by the reported margin."""
    if rep.is_member:
        return
    assert rep.margin <= 0.0
    assert abs(rep.witness_z) <= grid.r_max * (1.0 + 1e-15)
    inside, margin = target_region_contains(spec, phase_ratio(f, spec, rep.witness_z))
    assert not inside and margin == pytest.approx(rep.margin, rel=1e-9, abs=1e-12)


class TestGridPoints:
    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(r_max=0.7, angles=64)])
    def test_outer_row_of_z_points_is_circle_points(self, grid):
        # the direct checks decide on circle_points(); boundary-curve prints
        # z_points(), whose r_max row samples the same points, bit for bit
        assert grid.radii[-1] == grid.r_max
        rows = grid.z_points().reshape(len(grid.radii), grid.angles)
        assert np.array_equal(rows[-1], grid.circle_points())


class TestDirectOnCircle:
    # the operator is the identity on 1/z + c_0 + c_1 z
    _PARAMS = BMLParams(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("method", ["direct", "t1", "t2"])
    @pytest.mark.parametrize("kind", ["spirallike", "convex"])
    def test_member_evaluates_the_image_on_the_circle_once(self, monkeypatch, kind, method):
        # every check reads the operator image G (of f, or of -z f' for the
        # convex kind) at the circle samples only through G and z G', both
        # from one `evaluate_grid` call: no other series, no interior
        # radius, no winding recount
        calls, evaluate_grid_ = [], membership.evaluate_grid

        def recorded(f, zs, derivatives=0):
            calls.append((f, zs, derivatives))
            return evaluate_grid_(f, zs, derivatives)

        monkeypatch.setattr(membership, "evaluate_grid", recorded)
        grid = GridSpec()
        spec = _spec(0.2, 0.6, -0.4, kind=kind, params=self._PARAMS)
        f = SigmaSeries(1.0, [0.0, 0.04, 0.02j])
        if method == "direct":
            rep = check_direct(f, spec, grid)
        else:
            rep = check_convolution(f, spec, grid, method)
        image = alexander(f) if kind == "convex" else f
        assert rep.is_member
        ((g, zs, derivatives),) = calls
        expected = apply_operator(image, build_kernel(self._PARAMS, image.order))
        assert g.principal == expected.principal and np.array_equal(g.tail, expected.tail)
        assert np.array_equal(zs, grid.circle_points()) and derivatives == 1

    def test_exact_zero_of_the_image_at_a_sample(self):
        # the `bml check` defaults on f = 1/z - 1/0.99: G vanishes exactly at
        # the sample z = 0.99, where the winding's ratio of neighbours is
        # not finite.  That sample is a located zero of G on |z| = r_max, so
        # the direct check reaches the pole witness, with no warning
        f, spec, grid = SigmaSeries(1.0, [-1.0 / 0.99]), _spec(params=self._PARAMS), GridSpec()
        _, _, _, (g, _) = membership.phase_grid(f, spec, grid.circle_points(), grid.min_modulus)
        assert g[0] == 0.0
        rep = check_direct(f, spec, grid)
        assert rep.verdict == "non-member" and rep.skipped == 1 and -0.7 < rep.margin < -0.68
        _assert_direct_witness(f, spec, grid, rep)
        for which in ("t1", "t2"):
            with pytest.raises(InconclusiveError):
                check_convolution(f, spec, grid, which)

    @pytest.mark.parametrize(
        "lam,s,tail,kind",
        [(0.0, 2.2, [-2.0, 0.0], "spirallike"), (-0.12, 3.08 - 2.22j, [1.94, -2.55], "convex")],
    )
    def test_winding_only_nonmember(self, monkeypatch, lam, s, tail, kind):
        # every circle sample of q lies inside the region, yet q has a pole
        # inside: only the winding of P finds the non-member, and the witness
        # comes from a ring around the pole
        f = SigmaSeries(1.0, tail)
        spec = ClassSpec(lam, PolynomialTheta((1.0, s)), kind, self._PARAMS)
        grid = GridSpec()
        q, skip, *_ = membership.phase_grid(f, spec, grid.circle_points(), grid.min_modulus)
        assert not skip.any() and np.all(membership.region_margins(spec, q) > 0.1)
        zeros = _counted(monkeypatch, "_image_zeros")
        images = _counted(monkeypatch, "_image")
        rep = check_direct(f, spec, grid)
        assert len(images) == 1  # the rings about the pole read the check's own G
        assert rep.verdict == "non-member" == _direct_grid_reference(f, spec, grid)[0]
        assert len(zeros) == 1 and len(zeros[0]) >= 1
        _assert_direct_witness(f, spec, grid, rep)


@st.composite
def _sweep_classes(draw):
    """A random Janowski or Theta = 1 + s z class, either kind, under the
    identity operator on 1/z + c_0 + c_1 z."""
    lam = draw(st.floats(-1.3, 1.3))
    if draw(st.booleans()):
        B = draw(st.floats(-1.0, 0.9))
        theta = JanowskiTheta(min(1.0, B + (1.0 - B) * draw(st.floats(0.05, 1.0))), B)
    else:
        s = cmath.rect(draw(st.floats(0.5, 4.0)), draw(st.floats(-math.pi, math.pi)))
        theta = PolynomialTheta((1.0, s))
    kind = draw(st.sampled_from(["spirallike", "convex"]))
    return ClassSpec(lam, theta, kind, BMLParams(1.0, 1.0, 1.0, 0.0))


@given(spec=_sweep_classes(), c0=st.floats(-3.0, 3.0), c1=st.floats(-3.0, 3.0))
@example(
    spec=ClassSpec(0.0, PolynomialTheta((1.0, 2.2)), "spirallike", BMLParams(1.0, 1.0, 1.0, 0.0)),
    c0=-2.0, c1=0.0,
)
@example(
    spec=ClassSpec(-0.12, PolynomialTheta((1.0, 3.08 - 2.22j)), "convex", BMLParams(1.0, 1.0, 1.0, 0.0)),
    c0=1.94, c1=-2.55,
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_direct_circle_decision_matches_grid_on_sweep(spec, c0, c1):
    """The verdict on |z| = r_max is the polar grid's on f = 1/z + c_0 + c_1 z
    (the two examples are non-members that circle samples alone would call
    members), and every non-member witness is outside."""
    f, grid = SigmaSeries(1.0, [c0, c1]), GridSpec()
    rep = check_direct(f, spec, grid)
    assert rep.verdict == _direct_grid_reference(f, spec, grid)[0]
    _assert_direct_witness(f, spec, grid, rep)


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

    def test_pole_of_the_target_is_a_degenerate_direction(self):
        # the half-plane target's Theta has its pole at x = 1: the same
        # error as convolution_value, from the one degeneracy rule
        spec = _spec(0.3, 0.5, -1.0)
        f = SigmaSeries(1.0, [0.1, 0.05])
        with pytest.raises(DegenerateDirectionError):
            epsilon_t1(1.0, spec)
        for which in ("t1", "t2"):
            with pytest.raises(DegenerateDirectionError):
                kernel_series(1.0, spec, 8, which)
            with pytest.raises(DegenerateDirectionError):
                convolution_value(f, spec, 0.5, 1.0, which)

    @pytest.mark.parametrize("coefficients", [(1.0,), (1.0, 0.0, 0.0)], ids=["constant", "trimmed"])
    def test_constant_target_makes_every_direction_degenerate(self, coefficients):
        # E = 1 at every x; the weights' Horner loop starts from the
        # target's leading row, here its only row, so W stays a Python scalar
        spec = ClassSpec(0.2, PolynomialTheta(coefficients), "spirallike", BMLParams(1, 1, 1, 0))
        f = SigmaSeries(1.0, [0.1, 0.05])
        for x in (1.0, cmath.exp(0.7j), -1j):
            with pytest.raises(DegenerateDirectionError):
                epsilon_t1(x, spec)
            for which in ("t1", "t2"):
                with pytest.raises(DegenerateDirectionError):
                    kernel_series(x, spec, 8, which)
                with pytest.raises(DegenerateDirectionError):
                    convolution_value(f, spec, 0.5, x, which)

    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.6, -0.4), PolynomialTheta((1.0, 0.5, 0.1j, 0.02))], ids=["disc", "cubic"]
    )
    def test_weights_of_an_array_are_those_of_its_scalars(self, theta):
        # one function serves the member path's arrays and the one-point
        # jets' Python scalars (numpy's complex division rounds otherwise
        # than Python's); for t2 the weight is E = -Phi itself
        spec = ClassSpec(0.3, theta, "spirallike", BMLParams(1, 1, 1, 0))
        xs = _directions(16)
        for which in ("t1", "t2"):
            *arrays, skip = membership._direction_weights(spec, xs, which, 2)
            assert len(arrays) == 3 and not skip.any()
            for k, x in enumerate(xs.tolist()):
                *scalars, dead = membership._direction_weights(spec, x, which, 2)
                assert not dead and all(type(v) is complex for v in scalars)
                assert all(abs(v - a[k]) <= 1e-14 * abs(v) for v, a in zip(scalars, arrays))
            if which == "t2":
                assert np.all(np.abs(arrays[0] + target_value(spec, xs)) <= 1e-15)


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

    @pytest.mark.parametrize("kind", ["spirallike", "convex"])
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.6, -0.4), JanowskiTheta(0.2, -1.0), PolynomialTheta((1.0, 0.5, 0.1j))],
        ids=["disc", "half-plane", "polynomial"],
    )
    def test_t1_is_t2_over_one_minus_e(self, rng, kind, theta):
        # F_t1 = -F_t2/(1 - E(x)) with E = -Phi: t1 and t2 vanish together,
        # which is why they share one annulling value -z G'/G
        spec = ClassSpec(0.4, theta, kind, BMLParams(1.1, 0.9, 1.5, 0.5))
        f = SigmaSeries(1.0, 0.3 * (rng.normal(size=12) + 1j * rng.normal(size=12)))
        for _ in range(50):
            z = complex(rng.uniform(0.05, 0.99) * np.exp(2j * np.pi * rng.uniform()))
            x = cmath.exp(2j * np.pi * rng.uniform())
            t1 = convolution_value(f, spec, z, x, "t1")
            rhs = -convolution_value(f, spec, z, x, "t2") / (1.0 + target_value(spec, x))
            assert abs(t1 - rhs) <= 1e-13 * abs(rhs)

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
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.5, -0.3), JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.5, 0.1))],
        ids=["disc", "half-plane", "polynomial"],
    )
    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_pole_min_modulus(self, fast_grid, which, theta, lam):
        # f = 1/z: the annulling value is E(0) = 1 at every sample, carried
        # as the offset e - 1 = 0 exactly, so no sample has an annulling
        # direction on the circle and every minimum starts from the fixed
        # live direction, not at inf.  F = B + W D with D = 0 (t1), or
        # (E(x) - 1)/z (t2), whose least modulus is at x = -1 here
        spec = ClassSpec(lam, theta, "spirallike", BMLParams(1.0, 1.0, 1.0, 0.0))
        rep = check_convolution(SigmaSeries(1.0, []), spec, fast_grid, which)
        e = -target_value(spec, -1.0)
        value = 1.0 if which == "t1" else abs(e - 1.0)
        assert rep.is_member
        assert rep.margin == pytest.approx(value / fast_grid.r_max, rel=1e-6)
        assert rep.skipped == fast_grid.angles

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_skipped_counts_samples_without_a_live_annulling_direction(self, fast_grid, which):
        f, spec = SigmaSeries(1.0, [0.05, 0.02]), _spec(0.2, 0.5, -0.3)
        assert check_convolution(f, spec, fast_grid, which).skipped == 0
        # the extremal half-plane member is annulled at z = r_max by x = 1,
        # the pole of the target: the one sample that starts elsewhere
        f, spec = extremal_function(0.5, 0.0, 32), _spec(0.0, 0.0, -1.0)
        rep = check_convolution(f, spec, fast_grid, which)
        assert rep.is_member and rep.skipped == 1

    def test_constant_target_is_inconclusive(self, fast_grid):
        # E = 1 at every direction: each one is degenerate
        spec = ClassSpec(0.2, PolynomialTheta((1.0,)), "spirallike", BMLParams(1, 1, 1, 0))
        for which in ("t1", "t2"):
            with pytest.raises(InconclusiveError, match="every boundary direction is degenerate"):
                check_convolution(SigmaSeries(1.0, [0.05]), spec, fast_grid, which)

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

    def test_convolution_value_at_the_pole_raises(self):
        # as evaluate(f, 0) does, not a silent nan
        f, spec = SigmaSeries(1.0, [0.1, 0.05]), _spec(0.2, 0.5, -0.3)
        for which in ("t1", "t2"):
            with pytest.raises(PoleError):
                convolution_value(f, spec, 0, 1j, which)

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

    def test_memory_bounded_on_big_grid(self):
        spec = _spec(0.0, 0.0, -1.0, params=BMLParams(1.2, 0.8, 2.0, 1.0))
        f = extremal_function(0.5, 0.0, 64)
        grid = GridSpec(angles=1024, boundary_x=1024)
        tracemalloc.start()
        try:
            rep = check_convolution(f, spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.is_member
        assert peak < 16 * 2**20  # a dense 12,288 x 1,024 pair scan would hold 192 MiB


def _counted(monkeypatch, name, fake=None):
    """Replace membership.<name> by `fake` (default: the real one), recording
    the result of every call in the list returned."""
    fn, calls = fake or getattr(membership, name), []

    def counted(*args):
        calls.append(fn(*args))
        return calls[-1]

    monkeypatch.setattr(membership, name, counted)
    return calls


def _newton_stays(jet, rho, t, r_max):
    """A one-start Newton zero search that takes no step: it returns its
    start, and |F| and the term scale there."""
    f, _, _, scale, undefined = jet(rho, t)
    return rho, t, (math.inf if undefined else abs(f)), (0.0 if undefined else scale), 0


def _image_values(f, spec, zs):
    """(G, z G') at zs, G the operator image of f (of -z f' for the convex kind)."""
    return evaluate_grid(membership._image(f, spec), zs, 1)


def _convolution_series(f, spec, which):
    """The (base, dir) series pair of the convolution value base + W dir,
    built from its coefficients: (n + 1) g_n and n g_n for t1, z G' and G
    for t2, with G the operator image of f (of -z f' for the convex kind)."""
    g = membership._image(f, spec)
    n = np.arange(1, g.order + 1)
    if which == "t1":
        return SigmaSeries(1.0, (n + 1) * g.tail), SigmaSeries(0.0, n * g.tail)
    return z_fprime(g), g


class TestProvenZero:
    @pytest.mark.parametrize("newton", ["real", "stays"])
    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "tail,slope", [([-2.0], 2.2), ([0.0, -4.0], 5.0)], ids=["one-zero", "two-zeros"]
    )
    def test_zero_of_the_image_inside_an_inside_circle(
        self, monkeypatch, which, tail, slope, newton
    ):
        # G = 1/z - 2 vanishes at z = 1/2 (G = 1/z + c z at two points
        # whose mean is 0), yet every annulling value on |z| = r_max lies
        # inside the target region: only the winding of G about 0 (not -1)
        # proves the zeros, and its contour moments find them
        f = SigmaSeries(1.0, tail)
        spec = ClassSpec(0.0, PolynomialTheta((1.0, slope)), "spirallike", BMLParams(1, 1, 1, 0))
        grid = GridSpec()
        zs = grid.circle_points()
        indicator, _ = membership._annulling_points(spec, *_image_values(f, spec, zs))
        assert np.all(indicator < 0.0)
        # with Newton held at its starts, the secant locates the zero
        if newton == "stays":
            _counted(monkeypatch, "newton_zero", _newton_stays)
        secants = _counted(monkeypatch, "secant_zero")
        rep = check_convolution(f, spec, grid, which)
        assert newton == "real" or len(secants) == 1
        assert rep.verdict == "non-member"
        assert abs(rep.witness_z) <= grid.r_max
        assert abs(convolution_value(f, spec, rep.witness_z, rep.witness_x, which)) < grid.min_modulus

    @pytest.mark.parametrize("newton", ["real", "stays"])
    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_zero_inside_the_innermost_radius(self, monkeypatch, which, newton):
        # every annulling value on |z| = r_max lies outside the disc target,
        # and F vanishes near |z| = 0.05, inside the innermost of the 12
        # radii, where no interior grid sees it; the direct check agrees
        f = SigmaSeries(1.0, [-2.0])
        spec = ClassSpec(-1.2, JanowskiTheta(0.5, 0.3), "spirallike", BMLParams(1, 1, 1, 0))
        grid = GridSpec()
        # with Newton held at its starts, the secant locates the zero
        if newton == "stays":
            _counted(monkeypatch, "newton_zero", _newton_stays)
        secants = _counted(monkeypatch, "secant_zero")
        rep = check_convolution(f, spec, grid, which)
        assert newton == "real" or len(secants) == 1
        assert rep.verdict == "non-member" and abs(rep.witness_z) < grid.radii[0]
        assert abs(convolution_value(f, spec, rep.witness_z, rep.witness_x, which)) < grid.min_modulus
        if newton == "real":
            # Newton goes on from its best iterate until |F| is at rounding,
            # |F| <= 4 eps (|B| + |W D|), though its start is far from the zero
            b, d = (evaluate(s, rep.witness_z) for s in _convolution_series(f, spec, which))
            w, _ = membership._direction_weights(spec, np.array([rep.witness_x]), which)
            scale = abs(b) + abs(w[0] * d)
            assert rep.margin <= 4 * np.finfo(float).eps * scale
        direct = check_direct(f, spec, grid)
        assert direct.verdict == "non-member"
        _assert_direct_witness(f, spec, grid, direct)

    def test_zero_proven_but_not_located_is_inconclusive(self, monkeypatch, capsys, tmp_path):
        # both locators fail: Newton ends where it started, where |F| is
        # above min_modulus, and the secant returns the far end of its segment
        def ends(fn, b, fa):
            return b

        rays, zero_witness = [], membership._zero_witness

        def counted_rays(table, spec, which, ends, x, grid):
            rays.append(len(ends))
            return zero_witness(table, spec, which, ends, x, grid)

        monkeypatch.setattr(membership, "_zero_witness", counted_rays)
        newtons = _counted(monkeypatch, "newton_zero", _newton_stays)
        secants = _counted(monkeypatch, "secant_zero", ends)
        with pytest.raises(InconclusiveError, match="none was located"):
            check_convolution(SigmaSeries(1.0, [0.0, 40.0]), _spec(0.0, 0.0, -1.0), GridSpec())
        # one run per ray and the first ray's second, none located, and one secant
        assert len(rays) == len(secants) == 1 and len(newtons) == rays[0] + 1 > 2
        assert all(size >= GridSpec().min_modulus for _, _, size, _, _ in newtons)
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 2 40 0\n")
        assert main(["check", str(src), "--A", "0", "--B", "-1", "--method", "conv-t2"]) == 2
        assert "none was located" in capsys.readouterr().err
        assert len(rays) == len(secants) == 2 and len(newtons) == sum(rays) + 2

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_witness_stays_under_a_rounding_level_change(self, fast_grid, which):
        # many zeros are located to the rounding floor, and which of them has
        # the least |F| is decided by rounding: by that rule K and K (1 + 4 eps)
        # give witnesses 0.4 (t1) and 1.2 (t2) apart
        f = SigmaSeries(1.0, [1.0, 1.0j, 1.0])
        reps = [
            check_convolution(f, _spec(0.0, 0.5, -0.5, params=BMLParams(k, 1, 1, 0)), fast_grid, which)
            for k in (1.0, 1.0 + 4 * np.finfo(float).eps)
        ]
        assert [r.verdict for r in reps] == ["non-member"] * 2
        assert abs(reps[0].witness_z - reps[1].witness_z) <= 1e-12


# A half-plane class and the first 8 coefficients of a member whose c_1 was
# scaled by 2.5625.  Its operator image G has no zero in |z| <= 0.99 (the
# nearest is at |z| = 1.0069), but along 16 samples of |z| = 0.99 the
# argument of G seems to wind 0 times about 0, not -1; 64 samples count -1.
_ALIASED_SPEC = ClassSpec(
    0.20025342490286047,
    JanowskiTheta(0.7868155266762695, -1.0),
    "spirallike",
    BMLParams(1.2877557383007772, 1.3770325056966461, 2.1535220566162163, 0.31787566957540037),
)
_ALIASED = SigmaSeries(1.0, [
    0.7124466451882603 + 0.9783352740321498j,
    -0.26128426586611014 + 0.4219278722775621j,
    -0.19403143923826102 + 0.12201409929951312j,
    -0.16065151426630425 + 0.37693580903984086j,
    -0.02611803487661768 + 0.8301540828892148j,
    2.0786817342696895 + 3.878139204021779j,
    16.812753218955947 + 6.704715410992292j,
    144.98399518063673 + 11.735391160101956j,
])


class TestAliasedWinding:
    def test_direct_recounts_an_unlocated_zero(self, monkeypatch):
        # the count of 1 on 16 samples locates no zero in the disc, so it is
        # taken again on 64 samples, where it is 0: a member on 16 angles, as
        # the polar grid of 16 angles says, and a non-member on 64
        zeros = _counted(monkeypatch, "_image_zeros")
        for angles, verdict in ((16, "member"), (64, "non-member")):
            grid = GridSpec(angles=angles)
            rep = check_direct(_ALIASED, _ALIASED_SPEC, grid)
            assert rep.verdict == verdict == _direct_grid_reference(_ALIASED, _ALIASED_SPEC, grid)[0]
            _assert_direct_witness(_ALIASED, _ALIASED_SPEC, grid, rep)
        assert [len(z) for z in zeros] == [0, 0]

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_convolution_recounts_an_unlocated_zero(self, which):
        # on 16 angles the aliased count used to prove a zero that no search
        # could locate (InconclusiveError); recounted, the torus polish finds
        # the zero of F near |z| = 0.99 that 32 and 64 angles prove
        for angles in (16, 32, 64):
            grid = GridSpec(angles=angles)
            rep = check_convolution(_ALIASED, _ALIASED_SPEC, grid, which)
            assert rep.verdict == "non-member" and abs(rep.witness_z) <= grid.r_max * (1.0 + 1e-15)
            val = convolution_value(_ALIASED, _ALIASED_SPEC, rep.witness_z, rep.witness_x, which)
            assert abs(val) < grid.min_modulus

    def test_unlocated_count_at_the_sample_cap_is_inconclusive(self, monkeypatch):
        # a count that no located zero backs, on a circle already at the cap
        monkeypatch.setattr(membership, "_RECOUNT_SAMPLES", 16)
        with pytest.raises(InconclusiveError, match="none was located"):
            check_direct(_ALIASED, _ALIASED_SPEC, GridSpec(angles=16))


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
        table = membership._jet_table(membership._image(f, spec), 3)

        def jet(phi, t, rho=0.9, order=2):
            z, x = rho * cmath.exp(1j * phi), cmath.exp(1j * t)
            return membership._point_jet(table, spec, which, z, x, order)

        def value(phi, t, rho=0.9):
            return jet(phi, t, rho)[0]

        for phi, t in ((0.4, 1.1), (2.5, -2.0), (-1.3, 0.2)):
            f0, (fp, ft), ((fpp, fpt), (ftp, ftt)), scale, skip = jet(phi, t)
            assert fpt == ftp and not skip
            assert all(type(v) is complex for v in (f0, fp, ft, fpp, fpt, ftt))
            # the first-order jet the zero search evaluates, with d/drho = -i F_phi / rho
            f1, (fp1, ft1), hess, scale1, skip1 = jet(phi, t, order=1)
            assert hess is None and not skip1 and abs(scale1 - scale) <= 1e-15 * scale
            assert max(abs(f1 - f0), abs(fp1 - fp), abs(ft1 - ft)) <= 1e-15 * scale
            radial = central_derivative(lambda r: value(phi, t, r.real), 0.9)
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
                (-1j * fp / 0.9, radial),
                (-1j * fp1 / 0.9, radial),
                (ft1, central_derivative(lambda q: value(phi, q.real), t)),
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
            s_base, s_dir = _convolution_series(f, spec, which)

            def modulus(zs, ts):
                ws, skip = membership._direction_weights(spec, np.exp(1j * ts), which)
                vals = np.abs(evaluate_grid(s_base, zs) + ws * evaluate_grid(s_dir, zs))
                return np.where(skip, np.inf, vals)

            # the pattern search the polish replaced, from the scan's argmin
            zs, xs = grid.z_points(), _directions(512)
            ws, skip = membership._direction_weights(spec, xs, which)
            base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
            scan, i, j = dense_scan_minimum(base, dirv, ws, skip)
            step_z = max(np.diff(grid.radii).max(), abs(zs[i]) * 2.0 * np.pi / grid.angles)
            pattern = pattern_search_reference(
                modulus, zs[i], np.angle(xs[j]), step_z, 2.0 * np.pi / len(xs),
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

    def test_polish_leaves_a_maximum_in_the_direction(self):
        # f = 1/z: for t2, |F| = |E(x) - 1|/r_max, which on this real target
        # is largest at x = 1; the gradient vanishes there and the Hessian
        # is negative in the direction angle, so a start there must move off
        spec = ClassSpec(0.0, PolynomialTheta((1.0, 0.5, 0.05, 0.01)), "spirallike", BMLParams(1, 1, 1, 0))
        grid = GridSpec()
        table = membership._jet_table(membership._image(SigmaSeries(1.0, []), spec), 3)
        val, _, _, steps = membership._polish_minimum(table, spec, "t2", grid.r_max, 1.0, grid.r_max)
        ws, skip = membership._direction_weights(spec, _directions(4096), "t2")
        b, d = membership._convolution_pair("t2", membership._series_at(table, complex(grid.r_max)))
        dense = np.abs(b + ws * d)[~skip].min()  # 0.4646, near x = -1
        assert val <= dense and steps < _NEWTON_STEPS

    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_polish_jet_calls_are_its_steps_plus_backtracks(self, monkeypatch, which):
        # the polish follows one point: one jet at its start and one per
        # trial, each trial either taken (a step) or halved (a backtrack),
        # and never at the point it stands on
        grid = GridSpec()
        point_jet, jets = membership._point_jet, []

        def recorded(table, spec, which, z, x, order=2):
            out = point_jet(table, spec, which, z, x, order)
            jets.append((z, x, math.inf if out[4] else abs(out[0]) ** 2))
            return out

        monkeypatch.setattr(membership, "_point_jet", recorded)
        polishes = _counted(monkeypatch, "_polish_minimum")
        for spec, f in _member_classes():
            jets.clear()
            polishes.clear()
            assert check_convolution(f, spec, grid, which).is_member
            ((_, _, _, steps),) = polishes
            (z, x, g), backtracks = jets[0], 0
            for trial in jets[1:]:
                assert trial[:2] != (z, x)
                if trial[2] < g:
                    z, x, g = trial
                else:
                    backtracks += 1
            assert 0 < steps < _NEWTON_STEPS and len(jets) == steps + backtracks


class TestSecantZero:
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))]
    )
    def test_matches_80_step_bisection_in_few_calls(self, fast_grid, theta):
        spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        f = SigmaSeries(1.0, [0.0, 4.0])
        zs = fast_grid.circle_points()
        # a non-member: the radii [0, z_k] of its outside samples bracket a zero
        indicator, _ = membership._annulling_points(spec, *_image_values(f, spec, zs))
        zb = zs[~(indicator < 0.0)]
        za, fa = np.zeros(len(zb), dtype=complex), np.full(len(zb), -1.0)
        assert len(zb) > 0
        table = membership._jet_table(membership._image(f, spec), 1)

        def at(mid):
            values = np.array([membership._series_at(table, z) for z in mid.tolist()]).T
            return membership._annulling_points(spec, *values)[0]

        ref = bisect_reference(at, za, zb, fa)
        for end, ref_k in zip(zb.tolist(), ref.tolist()):
            u, calls = end / abs(end), []

            def on_ray(r):
                calls.append(r)
                return float(at(np.array([r * u]))[0])

            got = secant_zero(on_ray, abs(end), -1.0)
            assert abs(got * u - ref_k) <= 1e-12 * abs(end) and len(calls) <= 20

    @staticmethod
    def _run(fn, b):
        """Secant and 80-step bisection on [0, b] of the real line, and
        the number of calls the secant made."""
        calls = []

        def counted(r):
            calls.append(r)
            return float(fn(r))

        with np.errstate(invalid="ignore"):
            ref = bisect_reference(lambda z: fn(z.real), [0.0], [b], [fn(0.0)])
            got = secant_zero(counted, b, float(fn(0.0)))
        assert type(got) is float
        return got, ref[0].real, len(calls)

    def test_exact_zero_at_the_first_point(self):
        # the false-position point of [0, 2] under r - 1 is the midpoint 1
        got, ref, calls = self._run(lambda r: r - 1.0, 2.0)
        assert got == 1.0 == ref and calls == 2

    def test_nonfinite_value_counts_as_plus_one(self):
        def fn(r):
            # r - 0.1 up to 0.3, nan on (0.3, 0.99), then 0.01: the first
            # false-position point, 0.909, lands in the nan
            return np.where(r <= 0.3, r - 0.1, np.where(r < 0.99, np.nan, 0.01))

        got, ref, _ = self._run(fn, 1.0)
        assert abs(got - 0.1) <= 4e-16 and abs(ref - 0.1) <= 4e-16

    def test_zero_next_to_an_end_closes_at_once(self):
        # the zero, 1 - 1e-16, lies 1 ulp below the right end: the
        # false-position point would too, so the search steps 2 ulp off
        # that end instead, which closes the bracket
        got, ref, calls = self._run(lambda r: r - 1.0 + 1e-16, 1.0)
        assert got == 1.0 and abs(ref - 1.0) <= 2.3e-16 and calls == 2


class TestDirectionMinima:
    """The per-sample Newton in the direction angle that replaced the
    sampled directions of the member path, on the circle values of real
    checks: each |F| is one F takes, no sample ends above its start, and
    the smallest is at most a dense scan of 4096 directions."""

    THETAS = [JanowskiTheta(0.5, -0.3), JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))]
    THETA_IDS = ["disc", "half-plane", "polynomial"]

    @staticmethod
    def _inputs(theta, which, grid, lam=0.1, tail=(0.05, 0.02)):
        """(spec, f, base, dirv, x): the circle values of a check and the
        annulling directions its member path starts from."""
        spec = ClassSpec(lam, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        f = SigmaSeries(1.0, list(tail))
        s_base, s_dir = _convolution_series(f, spec, which)
        zs = grid.circle_points()
        base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
        x = membership._annulling_points(spec, *_image_values(f, spec, zs))[1]
        return spec, f, base, dirv, x

    @staticmethod
    def _modulus(spec, which, base, dirv, t):
        ws, skip = membership._direction_weights(spec, np.exp(1j * t), which)
        return np.where(skip, np.inf, np.abs(base + ws * dirv))

    @staticmethod
    def _dense_minima(spec, which, base, dirv, n_dirs=4096, rows=128):
        """Per sample, the least |F| over `n_dirs` directions, `rows` samples at a time."""
        ws, skip = membership._direction_weights(spec, _directions(n_dirs), which)
        out = np.empty(len(base))
        for k in range(0, len(base), rows):
            vals = np.abs(base[k : k + rows, None] + dirv[k : k + rows, None] * ws[None, :])
            vals[:, skip] = np.inf
            out[k : k + rows] = vals.min(axis=1)
        return out

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("theta", THETAS, ids=THETA_IDS)
    @pytest.mark.parametrize(
        "grid", [GridSpec(), GridSpec(angles=1024, boundary_x=1024)], ids=["default", "1024x1024"]
    )
    @pytest.mark.parametrize("lam", [0.1, -0.8])
    def test_real_weight_curves_at_most_dense(self, which, theta, grid, lam):
        spec, f, base, dirv, x = self._inputs(theta, which, grid, lam)
        t, size, starts = membership._direction_minima(spec, which, base, dirv, x)
        assert starts == 0 and np.all(np.isfinite(size))
        got = self._modulus(spec, which, base, dirv, t)
        assert np.all(np.abs(got - size) <= 1e-12 * size)
        assert np.all(size <= self._modulus(spec, which, base, dirv, np.angle(x)))
        dense = self._dense_minima(spec, which, base, dirv)
        assert size.min() <= dense.min() * (1.0 + 1e-10)
        rep = check_convolution(f, spec, grid, which)
        assert rep.is_member and rep.margin <= size.min()

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize("theta", THETAS, ids=THETA_IDS)
    def test_member_weighs_the_circle_once_per_newton_jet(self, monkeypatch, which, theta):
        # the skip mask of the starts comes from the first jet of the
        # direction Newton, so a member with no fallback start evaluates the
        # weights over the circle samples once per jet and nowhere else
        spec, f, *_ = self._inputs(theta, which, GridSpec())
        weights = _counted(monkeypatch, "_direction_weights")
        rep = check_convolution(f, spec, GridSpec(), which)
        assert rep.is_member and rep.skipped == 0
        on_circle = [w for w in weights if np.shape(w[-1]) == (GridSpec().angles,)]
        assert len(on_circle) == _ANGLE_STEPS + 1 == 4

    def test_angle_newton_leaves_a_maximum(self):
        # F(t) = 1 + e^{it}/2 has its largest modulus 1.5 at t = 0, where
        # g' = 0 and g'' < 0 while F_t != 0
        def jet(t):
            e = np.exp(1j * t)
            return 1.0 + 0.5 * e, 0.5j * e, -0.5 * e, np.zeros(t.shape, dtype=bool)

        t = np.array([0.0])
        t, size = newton_angle_minima(jet, t, jet(t))
        assert size[0] < 1.5 and size[0] == abs(1.0 + 0.5 * np.exp(1j * t[0]))

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, math.nan)]
    )
    @pytest.mark.parametrize("where", ["base", "dirv"])
    def test_nonfinite_sample_stays_nonfinite_and_alone(self, bad, where):
        spec, _, base, dirv, x = self._inputs(JanowskiTheta(0.5, -0.3), "t1", GridSpec())
        clean_t, clean = membership._direction_minima(spec, "t1", base, dirv, x)[:2]
        row = 100
        {"base": base, "dirv": dirv}[where][row] = bad
        t, size, _ = membership._direction_minima(spec, "t1", base, dirv, x)
        assert not np.isfinite(size[row])
        others = np.arange(len(size)) != row
        assert np.array_equal(size[others], clean[others]) and np.array_equal(t[others], clean_t[others])

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "theta",
        THETAS[:2] + [PolynomialTheta((1.0, 0.4, 0.1)), PolynomialTheta((1.0, 0.6, 0.05, -0.03j, 0.01, 0.005))],
        ids=["disc", "half-plane", "degree-2", "degree-5"],
    )
    def test_undefined_starts_begin_at_a_live_direction(self, which, theta):
        spec, _, base, dirv, x = self._inputs(theta, which, GridSpec())
        clean_t, clean = membership._direction_minima(spec, which, base, dirv, x)[:2]
        x = x.copy()
        x[::7] = np.nan
        t, size, starts = membership._direction_minima(spec, which, base, dirv, x)
        assert starts == len(x[::7])
        assert not membership._direction_weights(spec, np.exp(1j * t), which)[1].any()
        assert np.all(np.isfinite(size))
        assert np.all(np.abs(self._modulus(spec, which, base, dirv, t) - size) <= 1e-12 * size)
        kept = np.arange(len(x)) % 7 != 0
        assert np.array_equal(size[kept], clean[kept]) and np.array_equal(t[kept], clean_t[kept])

    @pytest.mark.parametrize("boundary_x", [8, 9, 100, 1000, 4096])
    def test_boundary_x_changes_no_result(self, boundary_x):
        grid = GridSpec()
        other = replace(grid, boundary_x=boundary_x)
        for theta in (JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))):
            spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
            for tail in ([0.05, 0.02], [0.0, 40.0]):
                f = SigmaSeries(1.0, tail)
                for which in ("t1", "t2"):
                    assert check_convolution(f, spec, other, which) == check_convolution(f, spec, grid, which)

    @pytest.mark.parametrize("which", ["t1", "t2"])
    @pytest.mark.parametrize(
        "theta", [JanowskiTheta(0.0, -1.0), PolynomialTheta((1.0, 0.4, 0.1))]
    )
    @pytest.mark.parametrize("tail,verdict", [([0.05, 0.02], "member"), ([0.0, 40.0], "non-member")])
    def test_reports_match_dense_oracle(self, which, theta, tail, verdict):
        spec = ClassSpec(0.1, theta, "spirallike", BMLParams(1.2, 0.8, 2.0, 1.0))
        f = SigmaSeries(1.0, tail)
        grid = GridSpec()
        rep = check_convolution(f, spec, grid, which)
        assert rep.verdict == verdict
        if verdict == "member":
            assert rep.margin <= _dense_torus_minimum(f, spec, grid, which) * (1.0 + 1e-10)
        else:
            assert abs(rep.witness_z) <= grid.r_max * (1.0 + 1e-15)
            assert abs(convolution_value(f, spec, rep.witness_z, rep.witness_x, which)) < grid.min_modulus


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

    def test_is_the_direct_report_renamed(self):
        # the direct check reads a convex query through the image of -z f',
        # so the transform route is the same computation: every field but
        # the method agrees, on Janowski and polynomial members and on
        # non-members constructed from them
        grid, verdicts = GridSpec(angles=64), []
        for spec, f in _oracle_members(5, 12)[1::2]:  # convex: disc, half-plane, polynomial, twice
            for g in (f, construct_nonmember(f, spec, grid)):
                rep = check_direct(g, spec, grid)
                assert check_alexander(g, spec, grid) == replace(rep, method="alexander")
                verdicts.append(rep.verdict)
            with pytest.raises(ValueError):
                check_alexander(f, replace(spec, kind="spirallike"), grid)
        assert verdicts == ["member", "non-member"] * 6

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


@pytest.mark.parametrize("lam,kind", [(0.3, "spirallike"), (-0.5, "convex")])
def test_fully_scaled_target_gives_the_reports_of_its_unscaled_twin(lam, kind):
    """Theta = 1 + 0.4 x + 1e-200 x^2 has frame limit -1, so every preimage
    row of every check is solved scaled; on a member and its non-member,
    direct, t1 and t2 give the reports of Theta = 1 + 0.4 x."""
    params = BMLParams(1.2, 0.8, 2.0, 1.0)
    scaled = ClassSpec(lam, PolynomialTheta((1.0, 0.4, 1e-200)), kind, params)
    plain = replace(scaled, theta=PolynomialTheta((1.0, 0.4)))
    assert membership._monic_frame(scaled.theta)[3] == -1.0
    omega = SchwarzSpec(((0.0,) if kind == "convex" else ()) + (0.3, 0.2j))
    member = reconstruct_f(scaled, omega, build_kernel(params, 32), 32, kind)
    grid = GridSpec()
    checks = [check_direct] + [lambda f, s, g, w=w: check_convolution(f, s, g, w) for w in ("t1", "t2")]
    for f, label in ((member, "member"), (construct_nonmember(member, scaled, grid), "non-member")):
        for check in checks:
            got, want = check(f, scaled, grid), check(f, plain, grid)
            assert got.verdict == want.verdict == label
            assert abs(got.margin - want.margin) <= 1e-12 * abs(want.margin)
            assert abs(got.witness_z - want.witness_z) <= 1e-13
            assert got.witness_x == want.witness_x or abs(got.witness_x - want.witness_x) <= 1e-13


@st.composite
def _drawn_classes(draw):
    """A class on a univalent polynomial target of degree 2 or 3 (drawn as
    `_univalent_polynomial` draws it) or on a Janowski target, either kind,
    with a member rebuilt from a Schwarz function whose coefficient moduli
    sum to rho < 1 and a non-member constructed from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        theta = PolynomialTheta(_univalent_polynomial(rng, draw(st.sampled_from([2, 3]))))
    else:
        B = draw(st.sampled_from([-1.0, None])) or draw(st.floats(-0.9, 0.7))
        theta = JanowskiTheta(draw(st.floats(B + 0.1, 1.0)), B)
    kind = draw(st.sampled_from(["spirallike", "convex"]))
    params = BMLParams(
        draw(st.floats(0.8, 1.5)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 2.0))
    )
    spec = ClassSpec(draw(st.floats(-1.2, 1.2)), theta, kind, params)
    weights = rng.uniform(0.2, 1.0, size=2)
    omega = draw(st.floats(0.3, 0.7)) * weights / weights.sum() * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
    omega = SchwarzSpec(((0.0,) if kind == "convex" else ()) + tuple(omega))
    member = reconstruct_f(spec, omega, build_kernel(params, 32), 32, kind)
    return spec, member, construct_nonmember(member, spec, GridSpec(radii=(0.99,), angles=16))


@given(drawn=_drawn_classes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_methods_agree_on_drawn_classes(drawn):
    """Direct, t1, t2 and (convex) Alexander verdicts agree with the label
    on drawn polynomial and Janowski classes, members and non-members."""
    spec, member, nonmember = drawn
    grid = GridSpec()
    for f, label in ((member, "member"), (nonmember, "non-member")):
        verdicts = [check_direct(f, spec, grid).verdict]
        verdicts += [check_convolution(f, spec, grid, which).verdict for which in ("t1", "t2")]
        if spec.kind == "convex":
            verdicts.append(check_alexander(f, spec, grid).verdict)
        assert verdicts == [label] * len(verdicts)


def test_newton_locates_the_zeros_of_univalent_polynomial_nonmembers(
    univalent_polynomial_classes, monkeypatch
):
    """Newton on F locates every non-member's zero from its first start
    within the step budget (t1 and t2), and the secant, its safety net,
    never runs."""

    def no_secant(*args):
        raise AssertionError("the secant ran")

    newtons = _counted(monkeypatch, "newton_zero")
    monkeypatch.setattr(membership, "secant_zero", no_secant)
    grid = GridSpec()
    for _, _, spec, _, nonmember in univalent_polynomial_classes:
        for which in ("t1", "t2"):
            rep = check_convolution(nonmember, spec, grid, which)
            assert rep.verdict == "non-member" and abs(rep.witness_z) <= grid.r_max
            val = convolution_value(nonmember, spec, rep.witness_z, rep.witness_x, which)
            assert abs(val) == pytest.approx(rep.margin, abs=1e-15)
            assert rep.margin < grid.min_modulus
    assert len(newtons) == 32 and max(steps for *_, steps in newtons) < _ZERO_STEPS


def _janowski_nonmembers(seed, count, convex=True):
    """`count` (spec, f) pairs on random Janowski disc and half-plane
    classes, every third convex unless `convex` is False (the draws are the
    same), f with a random three-term tail large enough that nearly all
    are non-members."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        B = -1.0 if i % 2 else rng.uniform(-0.9, 0.7)
        params = BMLParams(
            rng.uniform(0.8, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        )
        kind = ("spirallike", "convex")[convex and i % 3 == 0]
        spec = ClassSpec(rng.uniform(-1.2, 1.2), JanowskiTheta(rng.uniform(B + 0.1, 1.0), B), kind, params)
        out.append((spec, SigmaSeries(1.0, 1.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)))))
    return out


def _batch_zero_witness(table, spec, which, ends, x, grid):
    """(|F|, z) by the rule the one-ray search replaced, on the same
    one-point jets: Newton over every ray at once
    (`newton_zeros_reference`), a second run of the least |F| where it is
    below grid.min_modulus but above the rounding floor, then the first ray
    in the order of `ends` at that floor, else the least |F|; None where no
    |F| falls below grid.min_modulus (the secant's turn)."""
    floor = 4 * np.finfo(float).eps
    u = ends / np.abs(ends)

    def jet(rho, t):  # reads u when called: the second run follows one ray
        out = np.zeros((5, len(rho)), dtype=complex)
        for k, (r, uk, tk) in enumerate(zip(rho, u, t)):
            f, (f_phi, f_t), _, scale, skip = membership._point_jet(
                table, spec, which, r * uk, cmath.exp(1j * tk), 1
            )
            out[:, k] = f, -1j * f_phi / r, f_t, scale, skip
        return out[0], out[1], out[2], out[3].real, out[4].real != 0.0

    def newton(rho, t):
        return newton_zeros_reference(jet, rho, t, grid.r_max, _ZERO_STEPS, _MAX_STEP)

    rho, t, size, scale, _ = newton(np.abs(ends), np.angle(x))
    k = int(np.argmin(size))
    if grid.min_modulus > size[k] > floor * scale[k]:
        u = u[k : k + 1]
        rho, t, size, scale, _ = newton(rho[k : k + 1], t[k : k + 1])
    if not (size < grid.min_modulus).any():
        return None
    at_floor = (size < grid.min_modulus) & (size <= floor * scale)
    k = int(np.argmax(at_floor) if at_floor.any() else np.argmin(size))
    return size[k], rho[k] * u[k]


def _at_the_floor(table, spec, which, size, z, x):
    """Whether |F| = size at (z, x) is at most 4 eps (|B| + |W D|)."""
    b, d = membership._convolution_pair(which, membership._series_at(table, z))
    w, _ = membership._direction_weights(spec, np.array([x]), which)
    return size <= 4 * np.finfo(float).eps * (abs(b) + abs(w[0] * d))


def _recorded_zero_witness(monkeypatch):
    """Record (arguments, result, whether the secant ran) of every
    `_zero_witness` call; the result is None where it raised
    `InconclusiveError`."""
    calls, zero_witness = [], membership._zero_witness
    secants = _counted(monkeypatch, "secant_zero")

    def recorded(*args):
        before = len(secants)
        try:
            calls.append((args, zero_witness(*args), len(secants) > before))
        except InconclusiveError:
            calls.append((args, None, len(secants) > before))
            raise
        return calls[-1][1]

    monkeypatch.setattr(membership, "_zero_witness", recorded)
    return calls


def test_one_ray_search_picks_the_batch_witness(univalent_polynomial_classes, monkeypatch):
    """Fed the same jet values, the zero search that follows one ray at a
    time returns the witness that Newton over every ray at once and its
    tie rule pick, wherever the first ray's run locates its zero; where
    that run misses, the run from the first ray's bracket gives a witness
    on that ray: always at the rounding floor, on the polynomial and
    random Janowski non-members, t1 and t2."""
    calls = _recorded_zero_witness(monkeypatch)
    grid = GridSpec()
    cases = [(spec, f) for _, _, spec, _, f in univalent_polynomial_classes]
    for spec, f in cases + _janowski_nonmembers(5, 24):
        for which in ("t1", "t2"):
            check_convolution(f, spec, grid, which)
    assert len(calls) >= 64 and 0 < sum(secant for *_, secant in calls) < len(calls)
    for (table, spec, which, ends, x, grid), (size, z, x_w), secant in calls:
        if secant:
            assert abs(z / abs(z) - ends[0] / abs(ends[0])) <= 1e-15
        else:
            batch = _batch_zero_witness(table, spec, which, ends, x, grid)
            assert batch is not None and abs(z - batch[1]) <= 1e-12
        assert _at_the_floor(table, spec, which, size, z, x_w)


@pytest.mark.parametrize("min_modulus", [1e-15, 1e-16])
def test_no_proven_zero_is_a_member_below_the_rounding_floor(
    univalent_polynomial_classes, monkeypatch, min_modulus
):
    """Where min_modulus lies below 4 eps (|B| + |W D|), a ray can end at
    the rounding floor with |F| >= min_modulus.  That run locates nothing,
    so the search goes on: a proven zero gives a non-member, whose |F| is
    below min_modulus, or `InconclusiveError`, never a member, and only a
    run below min_modulus at the floor ends the search early."""
    calls = _recorded_zero_witness(monkeypatch)
    runs, starts, zero_witness = _counted(monkeypatch, "newton_zero"), [], membership._zero_witness

    def noted(*args):  # where the runs of each search start
        starts.append(len(runs))
        return zero_witness(*args)

    monkeypatch.setattr(membership, "_zero_witness", noted)
    grid, floor = GridSpec(min_modulus=min_modulus), 4 * np.finfo(float).eps
    cases = [(spec, f) for _, _, spec, _, f in univalent_polynomial_classes]
    verdicts = []
    for spec, f in cases + _janowski_nonmembers(5, 24):
        for which in ("t1", "t2"):
            before = len(calls)
            try:
                verdicts.append(check_convolution(f, spec, grid, which).verdict)
            except InconclusiveError:
                verdicts.append("inconclusive")
            if len(calls) == before:
                continue  # no zero proven
            assert verdicts[-1] != "member"
            result = calls[-1][1]
            located = [
                size < min_modulus and size <= floor * scale for _, _, size, scale, _ in runs[starts[-1] :]
            ]
            assert not any(located[:-1])
            if result is not None:
                assert result[0] < min_modulus
    assert len(calls) >= 64 and verdicts.count("non-member") >= len(calls) // 2


@pytest.mark.parametrize("which", ["t1", "t2"])
def test_random_witnesses_stay_under_a_rounding_level_change(which):
    """300 random spirallike Janowski classes, 64 circle samples: no
    non-member witness moves by more than 1e-12 when K becomes
    K (1 + 4 eps).  A search that ran every ray before it took the first
    one at the rounding floor moved 4 of these 600 witnesses (classes 15
    and 281 for t2, 172 and 294 for t1) by 0.03 to 0.9: a run ended just
    below 4 eps (|B| + |W D|) at one K and just above it at the other."""
    grid, compared = GridSpec(angles=64), 0
    for spec, f in _janowski_nonmembers(7, 300, convex=False):
        reps = [
            check_convolution(f, replace(spec, params=replace(spec.params, K=k)), grid, which)
            for k in (spec.params.K, spec.params.K * (1.0 + 4 * np.finfo(float).eps))
        ]
        if reps[0].verdict == reps[1].verdict == "non-member":
            compared += 1
            assert abs(reps[0].witness_z - reps[1].witness_z) <= 1e-12
    assert compared == 300


@pytest.mark.parametrize("which", ["t1", "t2"])
def test_witness_from_the_bracket_when_the_first_run_cannot_reach_the_floor(monkeypatch, which):
    f, spec, grid = SigmaSeries(1.0, [1.0, 1.0j, 1.0]), _spec(0.0, 0.5, -0.5), GridSpec()
    calls = _recorded_zero_witness(monkeypatch)
    first = check_convolution(f, spec, grid, which)
    real, runs = membership.newton_zero, []

    def first_stays(jet, rho, t, r_max):
        runs.append(rho)
        return (_newton_stays if len(runs) == 1 else real)(jet, rho, t, r_max)

    monkeypatch.setattr(membership, "newton_zero", first_stays)
    held = check_convolution(f, spec, grid, which)
    (table, _, _, ends, _, _), (size, z, x), secant = calls[1]
    assert len(ends) > 2 and len(runs) == 2 and held.verdict == first.verdict == "non-member"
    # unheld, the first run gives the witness; held at its start, the run
    # from the bracket on the same ray does, started inside |z_0|
    assert not calls[0][2] and secant and runs[1] < runs[0] == abs(ends[0])
    for rep in (first, held):
        assert abs(rep.witness_z / abs(rep.witness_z) - ends[0] / abs(ends[0])) <= 1e-15
    assert (held.margin, held.witness_z, held.witness_x) == (size, z, x)
    assert _at_the_floor(table, spec, which, size, z, x)


@pytest.mark.parametrize("which", ["t1", "t2"])
def test_first_located_ray_ends_the_zero_search(monkeypatch, which):
    # many rays are proven, the first locates its zero: the search
    # evaluates F only along that ray, within the Newton step budget
    calls = _recorded_zero_witness(monkeypatch)
    jets = _counted(monkeypatch, "_point_jet")
    rep = check_convolution(SigmaSeries(1.0, [1.0, 1.0j, 1.0]), _spec(0.0, 0.5, -0.5), GridSpec(), which)
    ((_, _, _, ends, _, _), (_, z, _), _) = calls[0]
    assert rep.verdict == "non-member" and len(ends) > _ZERO_STEPS + 1
    assert abs(z / abs(z) - ends[0] / abs(ends[0])) <= 1e-15
    assert 0 < len(jets) <= _ZERO_STEPS + 1


@pytest.mark.parametrize("which", ["t1", "t2"])
def test_zero_search_work_when_rays_miss_the_floor(monkeypatch, which):
    # the zeros sit near |z| = 0.09 and every start on |z| = 0.99: the run
    # of the first ray starts at x = 1, the pole of Theta, where F is
    # undefined, and the next ray's run misses, as would most others'.
    # That ray's bracket gives the second start: two Newton runs from a
    # defined start, both on that ray, one secant of at most
    # _SECANT_STEPS + 1 indicator calls, and one jet per Newton step
    secant, secants, points = membership.secant_zero, [], []

    def counted_secant(fn, b, fa):
        secants.append(0)

        def counted(r):
            secants[-1] += 1
            return fn(r)

        return secant(counted, b, fa)

    monkeypatch.setattr(membership, "secant_zero", counted_secant)
    calls = _recorded_zero_witness(monkeypatch)
    runs = _counted(monkeypatch, "newton_zero")
    point_jet = membership._point_jet

    def recorded(table, spec, which, z, x, order=2):
        points.append(z)
        return point_jet(table, spec, which, z, x, order)

    monkeypatch.setattr(membership, "_point_jet", recorded)
    rep = check_convolution(SigmaSeries(1.0, [0.0, 40.0]), _spec(0.0, 0.0, -1.0), GridSpec(), which)
    ((_, _, _, ends, x, _), _, _) = calls[0]
    u = ends / np.abs(ends)
    assert rep.verdict == "non-member" and len(calls) == 1 and len(ends) > 2 * _ZERO_STEPS
    assert x[0] == 1.0 and len(runs) == 3 and len(secants) == 1 and secants[0] <= _SECANT_STEPS + 1
    assert runs[0][2:] == (math.inf, 0.0, 0) and all(size < math.inf for _, _, size, _, _ in runs[1:])
    assert len(points) == sum(steps + 1 for *_, steps in runs)
    assert abs(points[0] / abs(points[0]) - u[0]) <= 1e-15
    assert all(abs(z / abs(z) - u[1]) <= 1e-15 for z in points[1:])
    assert abs(rep.witness_z / abs(rep.witness_z) - u[1]) <= 1e-15


def _grid_reference(f, spec, grid, which):
    """The convolution verdict decided over the whole polar grid of `grid`."""
    s_base, s_dir = _convolution_series(f, spec, which)

    def values(zs):
        return evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)

    def annulling(zs):
        return membership._annulling_points(spec, *_image_values(f, spec, zs))

    return grid_convolution_reference(
        grid.z_points(), _directions(512), len(grid.radii), values,
        lambda xs: membership._direction_weights(spec, xs, which),
        lambda zs: annulling(zs)[0],
        lambda zs: annulling(zs)[1],
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


def test_direct_circle_decision_matches_grid_reference(univalent_polynomial_classes):
    """The direct and (convex) Alexander verdicts on |z| = r_max are the
    polar grid's, a member margin is the grid's up to the rounding of the
    circle samples or above it, and every non-member witness is outside."""
    grid = GridSpec()
    for _, _, spec, member, nonmember in univalent_polynomial_classes:
        for f in (member, nonmember):
            routes = [(check_direct, f, spec)]
            if spec.kind == "convex":
                routes.append((check_alexander, alexander(f), replace(spec, kind="spirallike")))
            for check, g, spec_g in routes:
                rep = check(f, spec, grid)
                verdict, margin, _ = _direct_grid_reference(g, spec_g, grid)
                assert rep.verdict == verdict
                if verdict == "member":
                    assert rep.margin >= margin * (1.0 - 1e-12)
                _assert_direct_witness(g, spec_g, grid, rep)


def _oracle_members(seed, count, order=64):
    """`count` members (spec, f): Janowski disc and half-plane targets and
    univalent polynomial targets of degrees 2-5 in turn, both kinds,
    rebuilt from Schwarz functions whose coefficient moduli sum to a
    radius drawn up to 0.98."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind, target = ("spirallike", "convex")[i % 2], (i // 2) % 3
        if target == 0:
            B = rng.uniform(-0.9, 0.7)
            theta = JanowskiTheta(rng.uniform(B + 0.1, 1.0), B)
        elif target == 1:
            theta = JanowskiTheta(rng.uniform(-0.9, 1.0), -1.0)
        else:
            theta = PolynomialTheta(_univalent_polynomial(rng, 2 + (i // 6) % 4))
        params = BMLParams(
            rng.uniform(0.8, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        )
        spec = ClassSpec(rng.uniform(-1.2, 1.2), theta, kind, params)
        weights = rng.uniform(0.2, 1.0, size=2)
        omega = rng.uniform(0.1, 0.98) * weights / weights.sum()
        omega = omega * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        omega = SchwarzSpec(((0.0,) if kind == "convex" else ()) + tuple(omega))
        out.append((spec, reconstruct_f(spec, omega, build_kernel(params, order), order, kind)))
    return out


def _dense_torus_minimum(f, spec, grid, which, n_dirs=4096):
    """The smallest |F| of a dense scan of the grid.angles circle samples
    times `n_dirs` directions, lowered by `_polish_minimum` from its argmin."""
    g = membership._image(f, spec)
    zs, xs = grid.circle_points(), _directions(n_dirs)
    ws, skip = membership._direction_weights(spec, xs, which)
    base, dirv = membership._convolution_pair(which, evaluate_grid(g, zs, 1))
    value, i, j = dense_scan_minimum(base, dirv, ws, skip)
    table = membership._jet_table(g, 3)
    return min(value, membership._polish_minimum(table, spec, which, zs[i], xs[j], grid.r_max)[0])


def test_member_margins_at_most_the_dense_torus_minimum():
    """No member margin lies above the 256 x 4096 dense scan and its polish
    by more than rounding, over at least 200 member checks.  (At this seed
    zero or one step of the direction Newton leaves a margin above it.)"""
    grid = GridSpec()
    members, above = 0, []
    for k, (spec, f) in enumerate(_oracle_members(3, 104)):
        for which in ("t1", "t2"):
            rep = check_convolution(f, spec, grid, which)
            if rep.is_member:
                members += 1
                dense = _dense_torus_minimum(f, spec, grid, which)
                if rep.margin > dense * (1.0 + 1e-10):
                    above.append((k, which, rep.margin, dense))
    assert members >= 200 and above == []


def test_methods_agree_on_oracle_members_and_their_nonmembers():
    """Direct, t1, t2 and (convex) Alexander verdicts agree on a subset of
    the oracle family and on the non-members built from it."""
    grid = GridSpec()
    checks = {
        "direct": check_direct,
        "t1": lambda f, s, g: check_convolution(f, s, g, "t1"),
        "t2": lambda f, s, g: check_convolution(f, s, g, "t2"),
        "alexander": check_alexander,
    }
    nonmember_grid = GridSpec(angles=64)
    disagreements = []
    for k, (spec, f) in enumerate(_oracle_members(3, 104)[::8]):
        nonmember = construct_nonmember(f, spec, nonmember_grid)
        for g, label in ((f, "member"), (nonmember, "non-member")):
            for name, check in checks.items():
                if name == "alexander" and spec.kind != "convex":
                    continue
                if (verdict := check(g, spec, grid).verdict) != label:
                    disagreements.append((k, label, name, verdict))
    assert disagreements == []
