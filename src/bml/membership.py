"""Membership verdicts for the spirallike and convex subordination classes.

A class is described by a spiral angle, a boundary target (Möbius or
polynomial), the operator parameters, and a kind.  Membership of a
series f is decided three independent ways:

* ``check_direct`` samples the phase ratio of the operator image over a
  polar grid and tests containment in the target region (subordination
  reduces to range containment because the target is univalent and both
  sides agree at the origin; a polynomial target whose derivative
  vanishes in the disc is refused).  For a polynomial target, containment
  of w is decided by solving Theta(x) = theta_need(w) for every root of
  every sample at once (closed forms up to degree 3, one batched
  companion-matrix eigenvalue solve above): w lies in the region exactly
  when the root nearest the origin lies in the unit disc;
* ``check_convolution`` decides on |z| = r_max alone whether a convolution
  indexed by boundary directions vanishes in the punctured disc: a sample
  whose annulling value leaves the target region, or a winding of the
  operator image other than -1, proves a zero, which a secant locates on a
  radius; else a pair scan and Newton find the minimum modulus on the torus;
* ``check_alexander`` reroutes a convex query through the spirallike
  check of -z f'.

All reports carry the margin, the witness point(s) and a skip count, so
callers can re-evaluate and tighten.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import (
    ConstructionError,
    DegenerateDirectionError,
    InconclusiveError,
    PoleError,
    SingularPointError,
)
from .laurent import SigmaSeries, alexander, binomial_series, evaluate_grid, z_fprime
from .operator import apply_operator, build_kernel, max_kernel_order
from .solvers import newton_minimum, secant_zeros
from .special_fn import BMLParams

DEFAULT_MIN_MODULUS = 1e-9
_DEGENERATE_TOL = 1e-12
# iteration bound of the Newton polish of a zero of G; it converges in a handful
_NEWTON_ZERO_STEPS = 40


# ---------------------------------------------------------------------------
# boundary targets


@dataclass(frozen=True)
class JanowskiTheta:
    """Möbius target (1 + A z)/(1 + B z) with -1 <= B < A <= 1."""

    A: float
    B: float

    def __post_init__(self):
        if not -1.0 <= self.B < self.A <= 1.0:
            raise ValueError(f"need -1 <= B < A <= 1, got A={self.A}, B={self.B}")

    def value(self, z: complex) -> complex:
        den = 1.0 + self.B * z
        if abs(den) < 1e-14:
            raise PoleError(f"Möbius target has a pole at z = {z!r}")
        return (1.0 + self.A * z) / den

    def deriv0(self) -> complex:
        return self.A - self.B


@dataclass(frozen=True)
class PolynomialTheta:
    """Polynomial target t_0 + t_1 z + ... + t_M z^M with t_0 = 1."""

    coefficients: tuple

    def __post_init__(self):
        co = tuple(complex(c) for c in self.coefficients)
        if len(co) < 1 or co[0] != 1:
            raise ValueError("polynomial target needs t_0 = 1")
        if not all(cmath.isfinite(c) for c in co):
            raise ValueError("polynomial target coefficients must be finite")
        object.__setattr__(self, "coefficients", co)

    def value(self, z: complex):
        acc = 0.0
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return acc

    def deriv0(self) -> complex:
        return self.coefficients[1] if len(self.coefficients) > 1 else 0j


ThetaSpec = Union[JanowskiTheta, PolynomialTheta]


def theta_grid(theta: ThetaSpec, zs: np.ndarray, derivatives: int = 0):
    """Vectorized target values, their first `derivatives` derivatives, and
    the mask of points too close to a pole: (Theta, Theta', ..., bad)."""
    zs = np.asarray(zs, dtype=complex)
    if isinstance(theta, JanowskiTheta):
        den = 1.0 + theta.B * zs
        bad = np.abs(den) < 1e-14
        den = np.where(bad, 1.0, den)
        # Theta^(k) = k! (A - B) (-B)^(k-1) / den^(k+1) for k >= 1
        out = [(1.0 + theta.A * zs) / den] + [
            math.factorial(k) * (theta.A - theta.B) * (-theta.B) ** (k - 1) / den ** (k + 1)
            for k in range(1, derivatives + 1)
        ]
        return (*out, bad)
    # Horner with derivatives: acc[j] accumulates Theta^(j) / j!
    acc = [np.zeros_like(zs) for _ in range(derivatives + 1)]
    for c in theta.coefficients[::-1]:
        for j in range(derivatives, 0, -1):
            acc[j] = acc[j] * zs + acc[j - 1]
        acc[0] = acc[0] * zs + c
    out = [a * math.factorial(j) if j > 1 else a for j, a in enumerate(acc)]
    return (*out, np.zeros(zs.shape, dtype=bool))


# ---------------------------------------------------------------------------
# class / grid / report containers


@dataclass(frozen=True)
class ClassSpec:
    """One subordination class: angle, target, kind, operator parameters."""

    lam: float
    theta: ThetaSpec
    kind: str
    params: BMLParams

    def __post_init__(self):
        if not abs(self.lam) < math.pi / 2:
            raise ValueError(f"|lam| must be < pi/2, got {self.lam}")
        if self.kind not in ("spirallike", "convex"):
            raise ValueError(f"kind must be 'spirallike' or 'convex', got {self.kind!r}")


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan: the polar grid `radii` x `angles` of `check_direct`,
    `check_alexander` and the boundary curve, whereas the convolution checks
    sample |z| = r_max alone, at `angles` points; `boundary_x` directions."""

    radii: tuple = ()
    r_max: float = 0.99
    angles: int = 256
    boundary_x: int = 512
    min_modulus: float = DEFAULT_MIN_MODULUS

    def __post_init__(self):
        if not 0.0 < self.r_max < 1.0:
            raise ValueError(f"r_max must lie in (0, 1), got {self.r_max}")
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            radii = tuple(self.r_max * k / 12 for k in range(1, 13))
        if not all(0.0 < r <= self.r_max for r in radii):
            raise ValueError("all radii must lie in (0, r_max]")
        if self.angles < 8 or self.boundary_x < 8:
            raise ValueError("angle and boundary sample counts must be at least 8")
        if not self.min_modulus > 0:
            raise ValueError("min_modulus must be positive")
        object.__setattr__(self, "radii", radii)

    def circle_points(self) -> np.ndarray:
        """Samples of the circle |z| = r_max, at the angles of `z_points`."""
        return self.r_max * np.exp(2j * np.pi * np.arange(self.angles) / self.angles)

    def z_points(self) -> np.ndarray:
        """Interior samples, radius-major then angle, deterministic order."""
        ang = np.exp(2j * np.pi * np.arange(self.angles) / self.angles)
        return (np.asarray(self.radii)[:, None] * ang[None, :]).ravel()

    def x_points(self) -> np.ndarray:
        """Unit-circle samples, offset half a step so x = 1 is never hit exactly."""
        return np.exp(2j * np.pi * (np.arange(self.boundary_x) + 0.5) / self.boundary_x)


@dataclass(frozen=True)
class MembershipReport:
    """Verdict plus the evidence needed to reproduce it."""

    verdict: str
    margin: float
    witness_z: complex
    witness_x: Optional[complex]
    method: str
    skipped: int

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


# ---------------------------------------------------------------------------
# target geometry


def target_value(spec: ClassSpec, z: complex) -> complex:
    """Boundary target Phi(z) = -e^{-i lam} (cos(lam) Theta(z) + i sin(lam)).

    Phi(0) = -1 for every spec, which is what anchors the subordination
    checks: the phase ratio of any class-Sigma image also tends to -1 at
    the puncture.
    """
    th = spec.theta.value(z)
    return -cmath.exp(-1j * spec.lam) * (math.cos(spec.lam) * th + 1j * math.sin(spec.lam))


def _direction_value(spec: ClassSpec, x: complex) -> complex:
    """E(x) = e^{-i lam}(cos(lam) Theta(x) + i sin(lam)) = -Phi(x)."""
    return -target_value(spec, x)


def _disc_parameters(spec: ClassSpec):
    """Centre and radius of the open target disc (Janowski, |B| < 1)."""
    A, B = spec.theta.A, spec.theta.B
    c_theta = (1.0 - A * B) / (1.0 - B * B)
    r_theta = (A - B) / (1.0 - B * B)
    center = -cmath.exp(-1j * spec.lam) * (
        math.cos(spec.lam) * c_theta + 1j * math.sin(spec.lam)
    )
    return center, math.cos(spec.lam) * r_theta


def _theta_need(spec: ClassSpec, e: np.ndarray) -> np.ndarray:
    """Target value Theta at which the direction value E(x) = -Phi(x) equals e."""
    with np.errstate(invalid="ignore", over="ignore"):
        return (cmath.exp(1j * spec.lam) * e - 1j * math.sin(spec.lam)) / math.cos(spec.lam)


@lru_cache(maxsize=16)
def _trimmed_coefficients(theta: PolynomialTheta) -> np.ndarray:
    co = np.trim_zeros(np.asarray(theta.coefficients, dtype=complex), "b")
    co.flags.writeable = False
    return co


@lru_cache(maxsize=16)
def _critical_points(theta: PolynomialTheta) -> np.ndarray:
    crit = np.roots(np.polyder(_trimmed_coefficients(theta)[::-1]))
    crit.flags.writeable = False
    return crit


def _require_univalent(theta: ThetaSpec):
    """Refuse a polynomial target whose derivative vanishes in the open disc.

    Such a Theta is not univalent there, so range containment no longer
    decides subordination.  For degree <= 2 this is exactly
    non-univalence; from degree 3 on univalence also needs an injective
    boundary curve, which is not checked.
    """
    if isinstance(theta, PolynomialTheta):
        for zeta in _critical_points(theta):
            if abs(zeta) < 1.0:
                raise ValueError(
                    f"polynomial target is not univalent on the unit disc: "
                    f"Theta'(zeta) = 0 at zeta = {complex(zeta)}"
                )


def _preimage_roots(theta: PolynomialTheta, t_need) -> np.ndarray:
    """All M roots of Theta(x) = t for each t of a batch, shape (n, M).

    The degree picks the solver: closed forms for M <= 3 (see
    `_closed_form_roots`), otherwise one eigenvalue solve over the stack
    of companion matrices of Theta(x) - t, which differ only in the last
    entry of their first row.  Rows whose t is non-finite, or makes that
    entry or its modulus overflow, are inf.
    """
    co = _trimmed_coefficients(theta)
    t = np.asarray(t_need, dtype=complex).ravel()
    m = len(co) - 1
    if m == 0:
        return np.empty((len(t), 0), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        last = -(co[0] - t) / co[-1]
        finite = np.isfinite(np.abs(last))
    last = np.where(finite, last, 0.0)
    if m == 1:
        roots = last[:, None]
    elif m <= 3:
        roots = _closed_form_roots(co[-2:0:-1] / co[-1], -last)
    else:
        comp = np.zeros((len(t), m, m), dtype=complex)
        comp[:, 0, :-1] = -co[-2:0:-1] / co[-1]
        comp[:, 0, -1] = last
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots = np.linalg.eigvals(comp)
    roots[~finite] = np.inf
    return roots


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)


def _closed_form_roots(hi: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """Roots of x^M + hi[0] x^(M-1) + ... + hi[-1] x + c0 for M = 2, 3, per c0.

    x = s y with s a per-row power of two above the Fujiwara bound, so
    every coefficient of the monic polynomial in y has modulus <= 1 and
    nothing overflows.  The quadratic formula (square root signed against
    cancellation) or Cardano's formula (the larger of the two cubes) gives
    y; one Newton step then polishes each root where it is finite.
    """
    m = len(hi) + 1
    fixed = max(abs(a) ** (1.0 / j) for j, a in enumerate(hi, 1))
    s = np.ldexp(1.0, np.frexp(np.maximum(np.abs(c0) ** (1.0 / m), fixed))[1])
    inv = 1.0 / s
    coef = [np.full_like(c0, a) for a in hi] + [c0]
    for j in range(m):  # coefficient k is divided by s^(k+1), exactly
        coef[j:] = [c * inv for c in coef[j:]]
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 2:
            b, c = coef
            d = np.sqrt(b * b - 4.0 * c)
            q = -0.5 * (b + np.where((b.conj() * d).real < 0.0, -d, d))
            y = np.stack([q, np.where(q == 0.0, 0.0, c / q)], axis=1)
        else:
            a, b, c = coef
            a3 = a / 3.0
            p = b - a * a3
            h = 0.5 * (a3 * (b - 2.0 * a3 * a3) - c)  # -q/2 of the depressed cubic
            r = np.sqrt(h * h + p * p * p / 27.0)
            cube = np.where(np.abs(h + r) >= np.abs(h - r), h + r, h - r)
            u = np.cbrt(np.abs(cube)) * np.exp(1j / 3.0 * np.angle(cube))
            u = u[:, None] * _CUBE_ROOTS_OF_UNITY
            y = u - np.where(u == 0.0, 0.0, p[:, None] / (3.0 * u)) - a3[:, None]
        val, der = np.ones_like(y), np.zeros_like(y)
        for c in coef:
            der = der * y + val
            val = val * y + c[:, None]
        step = val / der
    y = np.where(np.isfinite(step), y - step, y)
    return y * s[:, None]


def _preimage(theta: PolynomialTheta, t_need, radius: float) -> np.ndarray:
    """Per t, the root of Theta(x) = t whose modulus is nearest `radius` (inf if none)."""
    roots = _preimage_roots(theta, t_need)
    if roots.shape[1] == 0:
        return np.full(len(roots), np.inf, dtype=complex)
    k = np.argmin(np.abs(np.abs(roots) - radius), axis=1)
    return roots[np.arange(len(roots)), k]


def region_margins(spec: ClassSpec, ws: np.ndarray) -> np.ndarray:
    """Signed distances from each w to the target-region boundary (+ inside).

    Janowski margins are exact.  A polynomial margin is
    cos(lam) |Theta'(x)| (1 - |x|) for the preimage x of w nearest the
    origin: the distance to the boundary to first order, with an exact sign.
    """
    ws = np.asarray(ws, dtype=complex)
    if isinstance(spec.theta, JanowskiTheta):
        if spec.theta.B == -1.0:
            bound = -(1.0 - spec.theta.A) * math.cos(spec.lam) / 2.0
            return bound - (np.exp(1j * spec.lam) * ws).real
        center, radius = _disc_parameters(spec)
        return radius - np.abs(ws - center)
    co = _trimmed_coefficients(spec.theta)
    if len(co) == 1:  # constant target: the region is the single point -1
        return -np.abs(ws + 1.0)
    x = _preimage(spec.theta, _theta_need(spec, -ws.ravel()), 0.0)
    finite = np.isfinite(x)
    x = np.where(finite, x, 0.0)
    slope = np.abs(np.polyval(np.polyder(co[::-1]), x))
    margins = math.cos(spec.lam) * slope * (1.0 - np.abs(x))
    return np.where(finite, margins, -np.inf).reshape(ws.shape)


def target_region_contains(spec: ClassSpec, w: complex):
    """(contains, margin) for a single point; containment means margin > 0.

    The region is the image of the open disc under `target_value`:
    an open disc for Janowski targets with |B| < 1, a half-plane for
    B = -1.  For a polynomial target, w is inside exactly when the root of
    Theta(x) = theta_need(w) nearest the origin has |x| < 1; this is exact
    range containment for any polynomial, but it equals subordination only
    for a univalent Theta, which is not checked here (the checks refuse a
    Theta whose derivative vanishes in the disc).  Its margin
    cos(lam) |Theta'(x)| (1 - |x|) is the distance to the boundary to
    first order.  Boundary contact counts as outside (the classes are open).
    """
    margin = float(region_margins(spec, np.array([w]))[0])
    return margin > 0.0, margin


# ---------------------------------------------------------------------------
# phase ratios


@lru_cache(maxsize=64)
def _cached_kernel(params: BMLParams, order: int):
    return build_kernel(params, order)


def _bml_image(f: SigmaSeries, params: BMLParams) -> SigmaSeries:
    """Operator image of f, truncated where the weights leave the Gamma range.

    Weights past that point underflow to zero anyway, so the truncation
    is the numerically exact image.
    """
    order = min(f.order, max_kernel_order(params))
    if order < 1:
        return SigmaSeries(f.principal, np.zeros(0, dtype=complex))
    return apply_operator(f, _cached_kernel(params, order))


def phase_ratio(
    f: SigmaSeries,
    spec: ClassSpec,
    z: complex,
    min_modulus: float = DEFAULT_MIN_MODULUS,
) -> complex:
    """Quantity whose subordination to `target_value` defines membership.

    Spirallike kind: z G'(z)/G(z); convex kind: 1 + z G''(z)/G'(z), where
    G is the operator image of f.  Derivatives are taken exactly on the
    truncated series; the value is `phase_grid`'s at the one point z.
    """
    q, skip = phase_grid(f, spec, np.array([complex(z)]), min_modulus)
    if skip[0]:
        raise SingularPointError(f"the phase ratio's denominator vanishes near z = {z!r}")
    return complex(q[0])


def phase_grid(f: SigmaSeries, spec: ClassSpec, zs: np.ndarray, min_modulus: float):
    """Vectorized phase ratios plus the mask of singular sample points."""
    g = _bml_image(f, spec.params)
    d1 = z_fprime(g)
    if spec.kind == "spirallike":
        den = evaluate_grid(g, zs)
        num = evaluate_grid(d1, zs)
        skip = np.abs(den) < min_modulus
        q = num / np.where(skip, 1.0, den)
    else:
        den = evaluate_grid(d1, zs)
        num = evaluate_grid(z_fprime(d1), zs) - den
        skip = np.abs(den) < min_modulus
        q = 1.0 + num / np.where(skip, 1.0, den)
    return q, skip


# ---------------------------------------------------------------------------
# the direct (range containment) check


def _require_sigma(f: SigmaSeries):
    if abs(f.principal - 1.0) > 1e-12:
        raise ValueError("class checks expect a series with principal coefficient 1")


def check_direct(f: SigmaSeries, spec: ClassSpec, grid: GridSpec) -> MembershipReport:
    """Sampled subordination test: every phase ratio must sit in the target region.

    Singular sample points are skipped and counted; more than 1% of them
    makes the verdict untrustworthy and raises `InconclusiveError`.
    """
    _require_sigma(f)
    _require_univalent(spec.theta)
    zs = grid.z_points()
    q, skip = phase_grid(f, spec, zs, grid.min_modulus)
    skipped = int(skip.sum())
    if skipped > 0.01 * len(zs):
        raise InconclusiveError(
            f"{skipped} of {len(zs)} sample points were singular; verdict withheld"
        )
    margins = region_margins(spec, q)
    margins = np.where(skip, np.inf, margins)
    idx = int(np.argmin(margins))
    margin = float(margins[idx])
    return MembershipReport(
        verdict="member" if margin > 0.0 else "non-member",
        margin=margin,
        witness_z=complex(zs[idx]),
        witness_x=None,
        method="direct",
        skipped=skipped,
    )


def check_alexander(f: SigmaSeries, spec: ClassSpec, grid: GridSpec) -> MembershipReport:
    """Convex membership via the transform route: run the spirallike check on -z f'."""
    if spec.kind != "convex":
        raise ValueError("the transform route only answers convex-kind queries")
    spiral = replace(spec, kind="spirallike")
    rep = check_direct(alexander(f), spiral, grid)
    return replace(rep, method="alexander")


# ---------------------------------------------------------------------------
# convolution criteria


def _require_which(which: str):
    if which not in ("t1", "t2"):
        raise ValueError(f"which must be 't1' or 't2', got {which!r}")


def _require_on_circle(x: complex):
    if abs(abs(x) - 1.0) > 1e-6:
        raise ValueError(f"direction point must sit on the unit circle, got {x!r}")


def epsilon_t1(x: complex, spec: ClassSpec) -> complex:
    """Direction coefficient (2 - E)/(1 - E) with E(x) = -Phi(x), |x| = 1."""
    _require_on_circle(x)
    e = _direction_value(spec, x)
    if abs(1.0 - e) < _DEGENERATE_TOL:
        raise DegenerateDirectionError(f"direction x = {x!r} makes the kernel singular")
    return (2.0 - e) / (1.0 - e)


def kernel_series(x: complex, spec: ClassSpec, order: int, which: str) -> SigmaSeries:
    """Direction-indexed convolution kernel in the 1/z-basis.

    which="t1": principal 1, tail (n+1) - eps n  (acts on the operator image);
    which="t2": principal E - 1, tail (n - 1 + E) h_n  (acts on f itself, the
    operator weights folded in), so hadamard(f, kernel) reproduces
    z G'(z) + E G(z) coefficientwise.
    """
    _require_which(which)
    n = np.arange(1, order + 1)
    if which == "t1":
        eps = epsilon_t1(x, spec)
        return SigmaSeries(1.0, (n + 1) - eps * n)
    e = _direction_value(spec, x)
    if abs(1.0 - e) < _DEGENERATE_TOL:
        raise DegenerateDirectionError(f"direction x = {x!r} makes the kernel singular")
    h = _cached_kernel(spec.params, order).h
    return SigmaSeries(e - 1.0, (n - 1 + e) * h)


def _direction_weights(spec: ClassSpec, xs: np.ndarray, which: str, derivatives: bool = False):
    """Per-direction scan weight plus the skip mask of degenerate directions.

    The scanned value is base(z) + W(x) dir(z); for t1 the weight is
    W = -eps(x) = -1 - 1/(1 - E), for t2 it is W = E(x).  With
    `derivatives`, W_1 = x dW/dx and W_2 = x d/dx W_1 come between W and
    the mask.
    """
    th, *dth, bad = theta_grid(spec.theta, xs, 2 if derivatives else 0)
    rot = np.exp(-1j * spec.lam)
    e = rot * (math.cos(spec.lam) * th + 1j * math.sin(spec.lam))
    skip = bad | (np.abs(1.0 - e) < _DEGENERATE_TOL)
    w = e
    if which == "t1":
        den = np.where(skip, 1.0, 1.0 - e)
        w = -(2.0 - e) / den
    if not derivatives:
        return w, skip
    xs = np.asarray(xs, dtype=complex)
    c = rot * math.cos(spec.lam)
    e1 = c * xs * dth[0]  # x dE/dx
    e2 = e1 + c * xs * xs * dth[1]  # x d/dx (x dE/dx)
    if which == "t2":
        return w, e1, e2, skip
    return w, -e1 / den**2, -e2 / den**2 - 2.0 * e1 * e1 / den**3, skip


def _scan_series(f: SigmaSeries, spec: ClassSpec, which: str):
    """The (base, direction) series pair whose combination the scan evaluates."""
    target = alexander(f) if spec.kind == "convex" else f
    g = _bml_image(target, spec.params)
    n = np.arange(1, g.order + 1)
    if which == "t1":
        return SigmaSeries(1.0, (n + 1) * g.tail), SigmaSeries(0.0, n * g.tail)
    return z_fprime(g), g


def _eval_series(series, zs: np.ndarray) -> np.ndarray:
    """Values of several series at a batch of nonzero points, one row per
    series, from one table of powers of the points."""
    zs = np.asarray(zs, dtype=complex)
    powers = np.vander(zs, max(s.order for s in series), increasing=True)
    inv = 1.0 / zs
    return np.array([powers[:, : s.order] @ s.tail + s.principal * inv for s in series])


def _torus_jet(series, spec: ClassSpec, which: str, radius: float, angles: np.ndarray):
    """F = B + W D at z = radius e^{i phi}, x = e^{i t}, (phi, t) = angles,
    with its derivatives in the angles.

    `series` holds B, DB, D^2 B, D, DD, D^2 D with D = z d/dz.  Returns
    (F, [F_phi, F_t], [[F_phiphi, F_phit], [F_phit, F_tt]], |B| + |W D|),
    or None for a degenerate direction: with d/dphi = i D and
    d/dt = i x d/dx, F_phi = i (DB + W DD), F_phiphi = -(D^2 B + W D^2 D),
    F_t = i W_1 D, F_tt = -W_2 D and F_phit = -W_1 DD.
    """
    b, b1, b2, d, d1, d2 = _eval_series(series, [radius * cmath.exp(1j * angles[0])])[:, 0]
    w, w1, w2, skip = _direction_weights(spec, [cmath.exp(1j * angles[1])], which, True)
    if skip[0]:
        return None
    w, w1, w2 = w[0], w1[0], w2[0]
    grad = np.array([1j * (b1 + w * d1), 1j * w1 * d])
    hess = np.array([[-b2 - w * d2, -w1 * d1], [-w1 * d1, -w2 * d]])
    return b + w * d, grad, hess, abs(b) + abs(w * d)


def _polish_minimum(s_base, s_dir, spec, which, z0, x0, radius):
    """Newton's polish of the smallest |F| on the torus |z| = radius, |x| = 1.

    Runs when no zero was found: F then has no zero in 0 < |z| <= radius
    and one pole, at 0, so by the minimum-modulus principle its smallest
    modulus lies on |z| = radius.  `newton_minimum` runs from the angles
    of (z0, x0).  Returns (|F|, z, x, iterations); |F| is inf when x0 is a
    degenerate direction.
    """
    d1 = [z_fprime(s) for s in (s_base, s_dir)]
    series = (s_base, d1[0], z_fprime(d1[0]), s_dir, d1[1], z_fprime(d1[1]))
    angles, val, steps = newton_minimum(
        lambda a: _torus_jet(series, spec, which, radius, a),
        np.array([cmath.phase(z0), cmath.phase(x0)]),
    )
    return val, radius * cmath.exp(1j * angles[0]), cmath.exp(1j * angles[1]), steps


def _annulling_points(
    spec: ClassSpec, base: np.ndarray, dirv: np.ndarray, which: str, radius: float
):
    """Per sample, the point x (not restricted to the circle) whose direction
    annuls the scan value: E(x) = e, with e the annulling value
    (2 dir - base)/(dir - base) for t1 and -base/dir for t2.  A Möbius
    target has one such x; for a polynomial target, the root whose modulus
    is nearest `radius`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = (2.0 * dirv - base) / (dirv - base) if which == "t1" else -base / dirv
        t = _theta_need(spec, e)
        if isinstance(spec.theta, JanowskiTheta):
            return (t - 1.0) / (spec.theta.A - spec.theta.B * t)
    return _preimage(spec.theta, t, radius)


def _inside_indicator(spec: ClassSpec, base: np.ndarray, dirv: np.ndarray, which: str):
    """Signed indicator (|x| - 1)/(|x| + 1) of the annulling direction x:
    negative where x lies inside the unit circle (the annulling value sits
    inside the target region), positive outside, -1 at the puncture.  It
    stays in [-1, 1], so a radius that ends near a pole of the annulling
    value does not stall the secant on a huge end value."""
    size = np.abs(_annulling_points(spec, base, dirv, which, 0.0))
    with np.errstate(invalid="ignore"):
        return (size - 1.0) / (size + 1.0)


def _nearest_circle_direction(spec: ClassSpec, base: np.ndarray, dirv: np.ndarray, which: str):
    """Per point, the direction on the circle nearest to annulling the value
    there (nan where there is none)."""
    x = _annulling_points(spec, base, dirv, which, 1.0)
    ok = np.isfinite(x) & (x != 0)
    x = np.where(ok, x, 1.0)
    return np.where(ok, x / np.abs(x), np.nan)


# entries of the complex block that the convolution scan reuses (1 MiB)
_SCAN_BLOCK = 1 << 16


def _direction_clusters(ws: np.ndarray, live: np.ndarray):
    """Centre weight, radius and smallest modulus of each cluster of live directions.

    The live directions are cut into runs of isqrt(2 len(ws)) consecutive
    ones (the last run may be shorter); a run's centre is its middle
    direction and its radius the largest |w_j - w_centre| over the run.
    That length balances the two passes of `_scan_minimum`: the bound
    pass computes one modulus per cluster and row, while the rows left to
    the full scan grow with the radii, that is with the run length.
    """
    size = max(1, math.isqrt(2 * len(ws)))
    starts = np.arange(0, len(live), size)
    counts = np.diff(starts, append=len(live))
    w = ws[live]
    centre = w[starts + counts // 2]
    radius = np.maximum.reduceat(np.abs(w - np.repeat(centre, counts)), starts)
    smallest = np.minimum.reduceat(np.abs(w), starts)
    return centre, radius, smallest


def _kept_rows(base, dirv, ws, skip, cbuf: np.ndarray, fbuf: np.ndarray) -> np.ndarray:
    """Rows of the scan that can hold its minimum or a NaN, ascending.

    The bound pass of `_scan_minimum`, streamed through its buffers.  For
    a cluster with centre w_c, radius rho and smallest modulus m, every
    live j in it has, by the triangle inequality both ways,

        |b_i + w_j d_i| >= max(|b_i + w_c d_i| - rho |d_i|,  m |d_i| - |b_i|);

    the lower bound L_i of row i is the least of these over the clusters,
    and V_i, its least centre modulus, is a value the scan itself
    computes.  Row i is dropped when L_i - tau_i > U = min_k (V_k + tau_k).

    Rounding (eps = 2^-52, s_i = |b_i| + W |d_i|, W the largest live |w|):
    a modulus the scan computes for row i is within 3 eps s_i of the exact
    |b_i + w_j d_i| (complex product sqrt(5)/2 eps, sum 1/2 eps, modulus
    eps, each relative to at most s_i).  A computed cluster bound is
    within 11 eps s_i of an exact one: 3 for the centre modulus, 6 for
    rho |d_i| (rho <= 2W), 2 for the difference; the modulus bound is
    within 3.  Forming L_i - tau_i or V_i + tau_i moves a value by at
    most 2 eps s_i more.  With tau_i = 32 eps s_i, every modulus of a
    dropped row exceeds U, and U exceeds the modulus the full scan
    computes at the best centre of a row that is kept, so no dropped row
    can hold the minimum or tie it.  32 s_i is formed before the factor
    eps: where it overflows, some modulus of the row might too, and
    tau_i = inf keeps the row.  Below that nothing overflows and finite
    inputs give no NaN; a NaN or inf input reaches L, tau or U and makes
    the test false, so its row (all rows, when W or U is not finite) is
    kept.
    """
    live = np.flatnonzero(~skip)
    if len(live) == 0 or len(base) == 0:
        return np.arange(len(base))
    # NaN and overflow below are meant: they keep the row
    with np.errstate(invalid="ignore", over="ignore"):
        centre, radius, smallest = _direction_clusters(ws, live)
        big_w = np.abs(ws[live]).max()
        lower = np.empty(len(base))  # L_i - tau_i
        upper = math.inf  # U
        k = len(centre)
        rows = len(fbuf) // k
        for start in range(0, len(base), rows):
            stop = min(start + rows, len(base))
            absb, absd = np.abs(base[start:stop]), np.abs(dirv[start:stop])
            tau = np.finfo(float).eps * (32.0 * (absb + big_w * absd))
            n = (stop - start) * k
            c, v = cbuf[:n].reshape(-1, k), fbuf[:n].reshape(-1, k)
            # once v holds the moduli, c's memory serves as two float blocks
            t = cbuf.view(float)[: 2 * n].reshape(2, -1, k)
            np.multiply(dirv[start:stop, None], centre, out=c)
            np.add(c, base[start:stop, None], out=c)
            np.abs(c, out=v)
            upper = np.minimum(upper, np.min(v.min(axis=1) + tau))
            np.multiply(absd[:, None], radius, out=t[0])
            np.subtract(v, t[0], out=v)
            np.multiply(absd[:, None], smallest, out=t[1])
            np.subtract(t[1], absb[:, None], out=t[1])
            np.maximum(v, t[1], out=v)
            np.subtract(v.min(axis=1), tau, out=lower[start:stop])
        return np.flatnonzero(~(lower > upper))


def _scan_minimum(base: np.ndarray, dirv: np.ndarray, ws: np.ndarray, skip: np.ndarray):
    """Smallest |base[i] + ws[j] dirv[i]| over all pairs, as (value, i, j).

    Branch and bound in two passes over one fixed pair of buffers of
    _SCAN_BLOCK entries (one row if a row is longer), so memory does not
    grow with the number of samples: `_kept_rows` bounds every row from
    below through clusters of directions and drops the rows provably
    above a value the scan attains, then whole kept rows go through the
    full scan.  The result is np.argmin's over the full matrix, bit for
    bit: the first occurrence of the minimum wins, and so does the first
    NaN.
    """
    nx = len(ws)
    cbuf = np.empty(max(_SCAN_BLOCK, nx), dtype=complex)
    fbuf = np.empty(len(cbuf))
    kept = _kept_rows(base, dirv, ws, skip, cbuf, fbuf)
    rows = len(cbuf) // nx
    cols = np.flatnonzero(skip)
    best = (math.inf, 0, 0)
    for start in range(0, len(kept), rows):
        idx = kept[start : start + rows]
        n = len(idx) * nx
        b, v = cbuf[:n].reshape(-1, nx), fbuf[:n].reshape(-1, nx)
        np.multiply(dirv[idx, None], ws, out=b)
        np.add(b, base[idx, None], out=b)
        np.abs(b, out=v)
        v[:, cols] = np.inf
        k = int(np.argmin(v))
        val = float(v.flat[k])
        if val < best[0] or math.isnan(val):
            best = (val, int(idx[k // nx]), k % nx)
            if math.isnan(val):
                break
    return best


def _image_zeros(s_pole: SigmaSeries, zs: np.ndarray, g: np.ndarray):
    """Zeros of G inside the circle that `zs` samples evenly (g = G(zs)), or
    None when G winds -1 times about 0 along it (only its pole at 0 inside).
    The winding + 1 zeros are the roots of the polynomial that Newton's
    identities build from their power sums, the contour moments of
    z^p G'/G: on the circle the trapezoid means of z^p (z G'/G) (Delves &
    Lyness, Math. Comp. 21, 1967).  Newton on G polishes each root."""
    count = round(float(np.angle(np.roll(g, -1) / g).sum()) / (2.0 * math.pi)) + 1
    if count == 0:
        return None
    d_pole = z_fprime(s_pole)
    ratio = evaluate_grid(d_pole, zs) / g
    sums = [np.mean(zs**p * ratio) for p in range(1, count + 1)]
    elem = [1.0]
    for k in range(1, count + 1):
        elem.append(sum((-1) ** (i - 1) * elem[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    z = np.roots([(-1) ** k * e for k, e in enumerate(elem)]).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ZERO_STEPS):
            gz, zg = _eval_series((s_pole, d_pole), z)
            step = z * gz / zg  # G/G', with G' = (z G')/z
            live = np.isfinite(step) & (np.abs(step) > 4.0 * np.finfo(float).eps * np.abs(z))
            if not live.any():
                break
            z = np.where(live, z - step, z)
    return z


def _zero_witness(s_base, s_dir, spec: ClassSpec, which: str, ends, grid: GridSpec):
    """(|F|, z, x) at the best of the zeros of F that a secant locates on
    the radii [0, z_k], taking the indicator's limit -1 at 0, each paired
    with its nearest circle direction; `InconclusiveError` when that |F|
    is not below grid.min_modulus (a zero proven but not located)."""

    def inside(z):
        return _inside_indicator(spec, *_eval_series((s_base, s_dir), z), which)

    hits = secant_zeros(inside, np.zeros(len(ends), dtype=complex), ends, np.full(len(ends), -1.0))
    hits = hits[np.isfinite(hits) & (hits != 0)]
    bh, dh = _eval_series((s_base, s_dir), hits)
    x = _nearest_circle_direction(spec, bh, dh, which)
    ok = np.isfinite(x)
    w, skip = _direction_weights(spec, np.where(ok, x, 1.0), which)
    vals = np.where(ok & ~skip, np.abs(bh + w * dh), np.inf)
    if not np.any(vals < grid.min_modulus):
        raise InconclusiveError(f"a zero in |z| <= {grid.r_max} is proven, but none was located")
    k = int(np.argmin(vals))
    return float(vals[k]), complex(hits[k]), complex(x[k])


def check_convolution(
    f: SigmaSeries, spec: ClassSpec, grid: GridSpec, which: str = "t1"
) -> MembershipReport:
    """Non-vanishing test of the direction-indexed convolution, decided on |z| = r_max.

    F_x(z) = base(z) + W(x) dir(z) vanishes for some |x| = 1 exactly when
    the annulling value e(z) (`_annulling_points`) lies on the boundary of
    the target region.  e is E(0) = 1, inside, at the puncture, and its
    only poles are the zeros of the operator image G (base - dir for t1,
    dir for t2).  So F has a zero in 0 < |z| <= r_max iff e is outside the
    region at a sample of |z| = r_max (grid.angles of them; grid.radii is
    not used), or the winding of G along that circle is not -1.  The
    radius to such a sample, or to each zero of G that its contour moments
    give, brackets a zero of F that a secant locates to rounding: a non-member,
    or `InconclusiveError` when none falls below grid.min_modulus.  With
    no zero, |F| is smallest on the torus |z| = r_max, |x| = 1, where the
    pair scan (`_scan_minimum`) and Newton's method in the two angles find
    it: member iff it is at least grid.min_modulus.  For the convex kind
    the test is applied to -z f'.
    """
    _require_sigma(f)
    _require_univalent(spec.theta)
    _require_which(which)
    s_base, s_dir = _scan_series(f, spec, which)
    zs = grid.circle_points()
    xs = grid.x_points()
    ws, skip = _direction_weights(spec, xs, which)
    skipped = int(skip.sum())
    if skipped == len(xs):
        raise InconclusiveError("every boundary direction is degenerate")
    base, dirv = evaluate_grid(s_base, zs), evaluate_grid(s_dir, zs)
    ends = zs[~(_inside_indicator(spec, base, dirv, which) < 0.0)]
    proven = len(ends) > 0
    if not proven:
        s_pole, g = (s_base - s_dir, base - dirv) if which == "t1" else (s_dir, dirv)
        zeros = _image_zeros(s_pole, zs, g)
        if zeros is not None:  # kept on |z| <= r_max, where the winding puts them
            proven, ends = True, zeros * (grid.r_max / np.maximum(np.abs(zeros), grid.r_max))
    if proven:
        best_val, best_z, best_x = _zero_witness(s_base, s_dir, spec, which, ends, grid)
    else:
        best_val, i0, j0 = _scan_minimum(base, dirv, ws, skip)
        best_z, best_x = complex(zs[i0]), complex(xs[j0])
        if best_val >= grid.min_modulus:
            val, z_ref, x_ref, _ = _polish_minimum(
                s_base, s_dir, spec, which, best_z, best_x, grid.r_max
            )
            if val < best_val:
                best_val, best_z, best_x = val, z_ref, x_ref

    return MembershipReport(
        verdict="member" if best_val >= grid.min_modulus else "non-member",
        margin=best_val,
        witness_z=best_z,
        witness_x=best_x,
        method=f"conv_{which}",
        skipped=skipped,
    )


def convolution_value(f: SigmaSeries, spec: ClassSpec, z: complex, x: complex, which: str):
    """Scan value at one (z, x) pair with |x| = 1, for report re-evaluation."""
    _require_which(which)
    _require_on_circle(x)
    s_base, s_dir = _scan_series(f, spec, which)
    ws, skip = _direction_weights(spec, np.array([complex(x)]), which)
    if skip[0]:
        raise DegenerateDirectionError(f"direction x = {x!r} makes the kernel singular")
    bv, dv = _eval_series((s_base, s_dir), np.array([complex(z)]))
    return complex((bv + ws * dv)[0])


# ---------------------------------------------------------------------------
# witnesses


def extremal_function(alpha: float, lam: float, order: int) -> SigmaSeries:
    """Series of (1 - z)^(2 tau) / z with tau = (1 - alpha) e^{-i lam} cos(lam).

    The boundary-hugging member of the half-plane class with A = 1 - 2 alpha,
    B = -1: its phase ratio coincides with the target map itself, so the
    margin at radius r is (1 - alpha) cos(lam) (1 - r)/(1 + r) > 0.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not abs(lam) < math.pi / 2:
        raise ValueError(f"|lam| must be < pi/2, got {lam}")
    tau = (1.0 - alpha) * cmath.exp(-1j * lam) * math.cos(lam)
    d = binomial_series(2.0 * tau, -1.0, order)
    return SigmaSeries(1.0, d[1:])


def construct_nonmember(f: SigmaSeries, spec: ClassSpec, grid: GridSpec) -> SigmaSeries:
    """Scale one tail coefficient of a member until the direct check just fails.

    The factor is bracketed by doubling and then bisected to 1e-3 relative
    width; the returned series is re-checked, so it is a certified
    non-member.  Convex-kind checks never see c_1 (both routes ignore it),
    so scaling starts at c_2 there.
    """
    base = check_direct(f, spec, grid)
    if not base.is_member:
        raise ValueError("construct_nonmember needs a member to start from")
    start = 2 if spec.kind == "convex" else 1
    index = next(
        (n for n in range(start, f.order + 1) if f.coefficient(n) != 0),
        None,
    )
    if index is None:
        raise ConstructionError("no scalable tail coefficient available")

    def fails(factor: float) -> bool:
        cand = f.with_coefficient(index, f.coefficient(index) * factor)
        try:
            return not check_direct(cand, spec, grid).is_member
        except InconclusiveError:
            return True

    t_lo, t_hi = 1.0, 2.0
    while not fails(t_hi):
        t_lo = t_hi
        t_hi *= 2.0
        if t_hi > 1e6:
            raise ConstructionError(
                f"scaling c_{index} by up to 1e6 never left the class"
            )
    while t_hi - t_lo > 1e-3 * t_lo:
        mid = 0.5 * (t_lo + t_hi)
        if fails(mid):
            t_hi = mid
        else:
            t_lo = mid
    out = f.with_coefficient(index, f.coefficient(index) * t_hi)
    try:
        certified = not check_direct(out, spec, grid).is_member
    except InconclusiveError:
        certified = False
    if not certified:
        raise ConstructionError("bisection endpoint failed to certify a non-member")
    return out
