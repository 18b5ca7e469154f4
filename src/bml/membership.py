"""Membership verdicts for the spirallike and convex subordination classes.

A class is described by a spiral angle, a boundary target (Möbius or
polynomial), the operator parameters, and a kind.  Every check reads the
operator image G of f, or of -z f' for the convex kind (f is convex-type
iff -z f' is spirallike-type), on |z| = r_max only through G and z G' from
one FFT.  Membership is decided two independent ways (``check_alexander``,
the transform route of a convex query, is ``check_direct`` renamed):

* ``check_direct`` decides whether the phase ratio q = z G'/G maps the disc
  into the target region (range containment is subordination, as the
  target is univalent and both sides agree at the origin; a polynomial
  target whose derivative vanishes in the disc is refused): q is inside at
  every circle sample, and G, whose zeros are the poles of q, winds -1
  times about 0.  For a polynomial target, w is inside exactly when the
  root of Theta(x) = theta_need(w) nearest the origin lies in the unit
  disc, the one root solved per sample (closed forms up to degree 3);
* ``check_convolution`` decides whether a convolution indexed by boundary
  directions vanishes in the punctured disc: a sample whose annulling
  value -z G'/G (one for t1 and t2) leaves the target region, or a
  winding of G other than -1, proves a zero, which Newton's method on it
  locates ray by ray (the first ray also from a bracketed sign change of
  the inside indicator); else Newton's method in the direction angle, at
  every circle sample from its annulling direction, and then in both
  angles finds the minimum modulus on the torus (no direction is sampled).

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
from .laurent import SigmaSeries, alexander, binomial_series, circle, evaluate_grid
from .operator import apply_operator, build_kernel, max_kernel_order
from .solvers import newton_angle_minima, newton_minimum, newton_zero, secant_zero
from .special_fn import BMLParams

DEFAULT_MIN_MODULUS = 1e-9
_DEGENERATE_TOL = 1e-12
_FLOOR = 4 * np.finfo(float).eps  # a zero is located once |F| <= _FLOOR times its term scale
_RECOUNT_SAMPLES = 1 << 14  # most samples of a winding recount
_RING_SHRINKS = 16  # see `_pole_witness`


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


ThetaSpec = Union[JanowskiTheta, PolynomialTheta]


def theta_grid(theta: ThetaSpec, zs: np.ndarray, derivatives: int = 0):
    """Vectorized target values, with `derivatives` = 1 also Theta', and the
    mask of points too close to a pole: (Theta, [Theta',] bad)."""
    zs = np.asarray(zs, dtype=complex)
    if isinstance(theta, JanowskiTheta):
        den = 1.0 + theta.B * zs
        bad = np.abs(den) < 1e-14
        den = np.where(bad, 1.0, den)
        out = [(1.0 + theta.A * zs) / den, (theta.A - theta.B) / den**2]
        return (*out[: derivatives + 1], bad)
    co = np.array(theta.coefficients[::-1])
    out = [np.polyval(co, zs), np.polyval(np.polyder(co), zs)]
    return (*out[: derivatives + 1], np.zeros(zs.shape, dtype=bool))


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
    """Sampling plan: every check samples |z| = r_max alone, at `angles`
    points (at most _RECOUNT_SAMPLES, the most any circle of a check takes).
    `radii` and `boundary_x` are validated but read by no check; they stay
    for the benchmark harness, which builds and reads them."""

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
            radii = tuple(self.r_max * (k / 12) for k in range(1, 13))
        if not all(0.0 < r <= self.r_max for r in radii):
            raise ValueError("all radii must lie in (0, r_max]")
        if self.angles < 8 or self.boundary_x < 8:
            raise ValueError("angle and boundary sample counts must be at least 8")
        if self.angles > _RECOUNT_SAMPLES:
            raise ValueError(f"at most {_RECOUNT_SAMPLES} angles, got {self.angles}")
        if not self.min_modulus > 0:
            raise ValueError("min_modulus must be positive")
        object.__setattr__(self, "radii", radii)

    def circle_points(self) -> np.ndarray:
        """The `angles` samples of the circle |z| = r_max."""
        return circle(self.r_max, self.angles)


@dataclass(frozen=True)
class MembershipReport:
    """Verdict plus the evidence needed to reproduce it.

    `skipped` counts circle samples: for `check_direct` the singular ones,
    left out of the margin; for `check_convolution` on a member, those whose
    annulling direction is undefined or degenerate, so that the minimum over
    x there starts from a fixed live direction (0 when a zero is found)."""

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


def target_value(spec: ClassSpec, z):
    """Boundary target Phi(z) = -e^{-i lam} (cos(lam) Theta(z) + i sin(lam)),
    at a point or an array of points; `PoleError` where Theta has a pole.

    Phi(0) = -1 for every spec, which is what anchors the subordination
    checks: the phase ratio of any class-Sigma image also tends to -1 at
    the puncture.
    """
    th, bad = theta_grid(spec.theta, z)
    if bad.any():
        raise PoleError(f"the target has a pole at z = {complex(np.asarray(z)[bad][0])!r}")
    phi = -cmath.exp(-1j * spec.lam) * (math.cos(spec.lam) * th + 1j * math.sin(spec.lam))
    return phi[()]


def _disc_parameters(spec: ClassSpec):
    """Centre and radius of the open target disc (Janowski, |B| < 1)."""
    A, B = spec.theta.A, spec.theta.B
    c_theta = (1.0 - A * B) / (1.0 - B * B)
    r_theta = (A - B) / (1.0 - B * B)
    center = -cmath.exp(-1j * spec.lam) * (
        math.cos(spec.lam) * c_theta + 1j * math.sin(spec.lam)
    )
    return center, math.cos(spec.lam) * r_theta


def _theta_need(spec: ClassSpec, d: np.ndarray) -> np.ndarray:
    """Theta - 1 = e^{i lam} d / cos(lam) where E(x) = -Phi(x) equals 1 + d:
    0 exactly at d = 0 (E(0) = 1), so that preimage is x = 0, not rounding."""
    with np.errstate(invalid="ignore", over="ignore"):
        return cmath.exp(1j * spec.lam) * d / math.cos(spec.lam)


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


_LARGE = 2.0**300  # below it, h * h of Cardano stays finite (see `_monic_frame`)
_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)[:, None]
_NO_ROWS = np.empty(0, dtype=int)


@lru_cache(maxsize=16)
def _monic_frame(theta: PolynomialTheta):
    """(-t_M, hi, fixed, limit): (Theta(x) - 1 - u)/t_M = x^M + hi[0] x^(M-1)
    + ... + c0 with c0 = u/(-t_M), hi of Fujiwara bound `fixed`; rows with
    |c0| < limit are solved unscaled (none where fixed^M exceeds _LARGE)."""
    co = _trimmed_coefficients(theta)
    hi = (co[-2:0:-1] / co[-1]).tolist()
    fixed = max((abs(a) ** (1.0 / j) for j, a in enumerate(hi, 1)), default=0.0)
    m = len(hi) + 1
    limit = (_LARGE if fixed <= _LARGE ** (1.0 / m) else -1.0) if m in (2, 3) else math.inf
    return complex(-co[-1]), hi, fixed, limit


def _preimage_roots(theta: PolynomialTheta, u) -> np.ndarray:
    """The root of Theta(x) = 1 + u nearest the origin per offset u, shape
    (n,), for Theta of degree M >= 1 in its `_monic_frame`: x = -c0 for
    M = 1; M = 2, 3 take `_monic_roots`, for y = x/s where |c0| reaches the
    limit (s a per-row power of two above the Fujiwara bound) and for x
    elsewhere, so such a row's root does not depend on the batch; above, one
    eigenvalue solve over the stack of companion matrices.  Rows whose u is
    non-finite, or makes c0 or its modulus overflow, are inf; u = 0 gives
    the root x = 0 exactly."""
    neg_lead, hi, fixed, limit = _monic_frame(theta)
    m = len(hi) + 1
    with np.errstate(all="ignore"):
        c0 = np.asarray(u, dtype=complex).ravel() / neg_lead
        size = np.abs(c0)
        origin = np.flatnonzero(c0 == 0.0) if size.min() == 0.0 else _NO_ROWS
        nonfinite = rows = _NO_ROWS
        if not size.max() < limit:  # also where a size is nan
            big = np.flatnonzero(~(size < limit))
            finite = np.isfinite(size[big])
            nonfinite, rows = big[~finite], big[finite]
            c0[nonfinite] = 0.0
        if m == 1:
            roots = -c0
        elif m <= 3:
            roots = _monic_roots(hi, c0)
            if len(rows):
                s = np.ldexp(1.0, np.frexp(np.maximum(size[rows] ** (1.0 / m), fixed))[1])
                inv, coef = 1.0 / s, [*hi, c0[rows]]
                for j in range(m):  # coefficient k is divided by s^(k+1), exactly
                    coef[j:] = [c * inv for c in coef[j:]]
                roots[rows] = _monic_roots(coef[:-1], coef[-1]) * s
        else:
            comp = np.zeros((len(c0), m, m), dtype=complex)
            comp[:, 0, :-1], comp[:, 0, -1] = -np.array(hi), -c0
            comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            roots = _nearest(np.linalg.eigvals(comp).T)
    roots[nonfinite] = np.inf
    roots[origin] = 0.0
    return roots


def _nearest(y: np.ndarray) -> np.ndarray:
    """Per column of y, the entry of least modulus."""
    return y[np.abs(y).argmin(axis=0), np.arange(y.shape[1])]


def _monic_roots(hi, c0) -> np.ndarray:
    """The root nearest the origin of x^M + hi[0] x^(M-1) + ... + c0,
    M = 2, 3, polished by one Newton step where finite: the quadratic
    formula, its square root signed against cancellation (c0/q is the
    smaller root), or `_nearest` of Cardano's with the larger cube."""
    if len(hi) == 1:
        (b,) = hi
        d = np.sqrt(b * b - 4.0 * c0)
        q = -0.5 * b - d * np.copysign(0.5, (d * np.conjugate(b)).real)
        x = c0 / q  # 0/0 only where c0 = b = 0
    else:
        a3, b = hi[0] / 3.0, hi[1]
        p = b - hi[0] * a3
        h = 0.5 * a3 * (b - 2.0 * a3 * a3) - 0.5 * c0  # -q/2 of the depressed cubic
        r = np.sqrt(h * h + p * p * p / 27.0)
        cube = h + r * np.copysign(1.0, (h * np.conjugate(r)).real)
        w = np.cbrt(np.abs(cube)) * np.exp(1j / 3.0 * np.angle(cube))
        v = np.where(w == 0.0, 0.0, p / 3.0 / w)  # w = 0 only where p = 0
        x = _nearest(w * _CUBE_ROOTS_OF_UNITY - v * _CUBE_ROOTS_OF_UNITY.conjugate() - a3)
    val = x + hi[0]
    der = x + val  # Horner's rule for the value and the derivative
    for c in hi[1:]:
        val = val * x + c
        der = der * x + val
    step = (val * x + c0) / der
    return np.where(np.isfinite(step), x - step, x)


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
    x = _preimage_roots(spec.theta, _theta_need(spec, -(ws.ravel() + 1.0)))
    with np.errstate(invalid="ignore"):
        margins = math.cos(spec.lam) * np.abs(np.polyval(np.polyder(co[::-1]), x)) * (1.0 - np.abs(x))
    return np.where(np.isfinite(x), margins, -np.inf).reshape(ws.shape)


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


def _image(f: SigmaSeries, spec: ClassSpec) -> SigmaSeries:
    """The operator image G that every check reads: of f, or of -z f' for
    the convex kind, truncated where the weights leave the Gamma range
    (past it they underflow to zero anyway: the numerically exact image)."""
    f = alexander(f) if spec.kind == "convex" else f
    order = min(f.order, max_kernel_order(spec.params))
    if order < 1:
        return SigmaSeries(f.principal, np.zeros(0, dtype=complex))
    return apply_operator(f, _cached_kernel(spec.params, order))


def phase_ratio(
    f: SigmaSeries,
    spec: ClassSpec,
    z: complex,
    min_modulus: float = DEFAULT_MIN_MODULUS,
) -> complex:
    """Quantity whose subordination to `target_value` defines membership:
    z G'/G for the image G of f, or of -z f' for the convex kind (there
    1 + z g''/g' for the image g of f), exact on the truncated series:
    G and z G' summed at the one point z from their `_jet_table`."""
    if z == 0:
        raise PoleError("the phase ratio has a pole at z = 0")
    g, dg = _series_at(_jet_table(_image(f, spec), 1), complex(z))
    if abs(g) < min_modulus:
        raise SingularPointError(f"the phase ratio's denominator vanishes near z = {z!r}")
    return dg / g


def phase_grid(f: SigmaSeries, spec: ClassSpec, zs: np.ndarray, min_modulus: float):
    """Vectorized phase ratios q = z G'/G of the image G (`_image`), the
    mask of singular sample points, G, and (G, z G') at zs from one
    `evaluate_grid`: the zeros of G are the poles of q."""
    return _image_phases(_image(f, spec), zs, min_modulus)


def _image_phases(g: SigmaSeries, zs: np.ndarray, min_modulus: float):
    """`phase_grid` of the image G already built."""
    values = evaluate_grid(g, zs, 1)
    skip = np.abs(values[0]) < min_modulus
    return values[1] / np.where(skip, 1.0, values[0]), skip, g, values


# ---------------------------------------------------------------------------
# the direct (range containment) check


def _require_sigma(f: SigmaSeries):
    if abs(f.principal - 1.0) > 1e-12:
        raise ValueError("class checks expect a series with principal coefficient 1")


def check_direct(f: SigmaSeries, spec: ClassSpec, grid: GridSpec) -> MembershipReport:
    """Subordination test on |z| = r_max: member iff the phase ratio
    q = z G'/G (`phase_grid`) is in the target region at the grid.angles
    samples of the circle (grid.radii is not used) and G winds -1 times
    about 0 along it.  q tends to -1 = Phi(0) at 0, and its poles, the
    zeros of G, leave the region; with none, q is analytic on the disc, so
    by the argument principle it maps the disc into the simply connected
    region iff it maps the circle into it.  The margin is the smallest over
    the circle samples, the disc minimum for a Janowski target (its margin
    is superharmonic in q); a polynomial margin cos(lam) |Theta'(x)| (1 - |x|)
    is not, so its disc minimum may be interior.  More than 1% singular
    samples (skipped, counted) raises `InconclusiveError`."""
    _require_sigma(f)
    _require_univalent(spec.theta)
    zs = grid.circle_points()
    q, skip, g, values = phase_grid(f, spec, zs, grid.min_modulus)
    skipped = int(skip.sum())
    if skipped > 0.01 * len(zs):
        raise InconclusiveError(f"{skipped} of {len(zs)} samples were singular; verdict withheld")
    margins = np.where(skip, np.inf, region_margins(spec, q))
    idx = int(np.argmin(margins))
    margin, witness = float(margins[idx]), complex(zs[idx])
    if margin > 0.0 and len(zeros := _image_zeros(g, zs, values, grid.r_max)):
        margin, witness = _pole_witness(g, spec, zeros[0], grid)
    verdict = "member" if margin > 0.0 else "non-member"
    return MembershipReport(verdict, margin, witness, None, "direct", skipped)


def check_alexander(f: SigmaSeries, spec: ClassSpec, grid: GridSpec) -> MembershipReport:
    """Convex membership via the transform route, the spirallike check of
    -z f': that is how `check_direct` reads every convex query (`_image`),
    so this is its report under the method name "alexander"."""
    if spec.kind != "convex":
        raise ValueError("the transform route only answers convex-kind queries")
    return replace(check_direct(f, spec, grid), method="alexander")


def _pole_witness(g: SigmaSeries, spec: ClassSpec, z0: complex, grid: GridSpec):
    """(margin, z) at the sample furthest outside the region of a ring about
    the pole z0 of q = z G'/G within |z| <= r_max, of radius |z0|/2 shrunk by 4
    until one is outside (on a ray to z0, q can tend to infinity in a half-plane)."""
    for h in 0.5 * abs(z0) * 0.25 ** np.arange(_RING_SHRINKS):
        zs = z0 + circle(h, 16)
        zs = np.where(np.abs(zs) > grid.r_max, zs * (grid.r_max / np.abs(zs)), zs)
        q, skip, *_ = _image_phases(g, zs, grid.min_modulus)
        margins = np.where(skip, np.inf, region_margins(spec, q))
        if margins.min() <= 0.0:
            return float(margins.min()), complex(zs[np.argmin(margins)])
    raise InconclusiveError(f"the phase ratio has a pole at z = {z0}, but nothing near is outside")


# ---------------------------------------------------------------------------
# convolution criteria


def _require_which(which: str):
    if which not in ("t1", "t2"):
        raise ValueError(f"which must be 't1' or 't2', got {which!r}")


def _require_on_circle(x: complex):
    if abs(abs(x) - 1.0) > 1e-6:
        raise ValueError(f"direction point must sit on the unit circle, got {x!r}")


def _weight_at(spec: ClassSpec, x: complex, which: str) -> complex:
    """`_direction_weights` at one direction |x| = 1; `DegenerateDirectionError`
    where it is degenerate (E(x) = 1, or a pole of Theta)."""
    _require_which(which)
    _require_on_circle(x)
    w, skip = _direction_weights(spec, complex(x), which)
    if skip:
        raise DegenerateDirectionError(f"direction x = {x!r} makes the kernel singular")
    return w


def epsilon_t1(x: complex, spec: ClassSpec) -> complex:
    """Direction coefficient (2 - E)/(1 - E) with E(x) = -Phi(x), |x| = 1."""
    return -_weight_at(spec, x, "t1")


def kernel_series(x: complex, spec: ClassSpec, order: int, which: str) -> SigmaSeries:
    """Direction-indexed convolution kernel in the 1/z-basis.

    which="t1": principal 1, tail (n+1) - eps n  (acts on the operator image);
    which="t2": principal E - 1, tail (n - 1 + E) h_n  (acts on f itself, the
    operator weights folded in), so hadamard(f, kernel) reproduces
    z G'(z) + E G(z) coefficientwise.
    """
    n = np.arange(1, order + 1)
    w = _weight_at(spec, x, which)
    if which == "t1":
        return SigmaSeries(1.0, (n + 1) + w * n)
    h = _cached_kernel(spec.params, order).h
    return SigmaSeries(w - 1.0, (n - 1 + w) * h)


@lru_cache(maxsize=16)
def _direction_table(theta: PolynomialTheta, lam: float) -> tuple:
    """Coefficients of E = -Phi, x E' and x (x E')' for a polynomial target,
    as rows of Python complex numbers, highest power first: the row of x^k
    is E_k (1, k, k^2), with E_0 = 1 and E_k = e^{-i lam} cos(lam) t_k."""
    e = cmath.exp(-1j * lam) * math.cos(lam) * _trimmed_coefficients(theta)
    e[0] = 1.0
    return tuple((c, c * k, c * (k * k)) for k, c in reversed(list(enumerate(e.tolist()))))


def _ones_where(mask, values):
    """`values` with 1 where `mask` holds: arrays, or one Python scalar."""
    if isinstance(values, np.ndarray):
        return np.where(mask, 1.0, values)
    return 1.0 if mask else values


def _direction_weights(spec: ClassSpec, x, which: str, order: int = 0):
    """W at directions x (an array or one Python scalar), then W_1 = x dW/dx
    and W_2 = x d/dx W_1 up to `order`, and the skip of degenerate ones (a
    pole of Theta, or |1 - E| < _DEGENERATE_TOL): base(z) + W(x) dir(z) has
    W = -eps(x) = -1 - 1/(1 - E) for t1, E = -Phi for t2.  E, x E', x (x E')'
    by closed forms (Möbius) or Horner's rule over `_direction_table`."""
    if isinstance(spec.theta, PolynomialTheta):
        rows = iter(_direction_table(spec.theta, spec.lam))
        es, bad = list(next(rows)[: order + 1]), False
        for row in rows:
            es = [e * x + c for e, c in zip(es, row)]
    else:
        A, B = spec.theta.A, spec.theta.B
        bad = abs(1.0 + B * x) < 1e-14
        den = _ones_where(bad, 1.0 + B * x)
        rot, cos = cmath.exp(-1j * spec.lam), math.cos(spec.lam)
        es = [rot * (cos * ((1.0 + A * x) / den) + 1j * math.sin(spec.lam))]
        if order > 0:
            es.append(rot * cos * x * ((A - B) / den**2))  # x dE/dx
        if order > 1:
            es.append(es[1] * (1.0 - B * x) / den)  # x d/dx (x dE/dx)
    skip = bad | (abs(1.0 - es[0]) < _DEGENERATE_TOL)
    if which == "t2":
        return (*es, skip)
    den = _ones_where(skip, 1.0 - es[0])
    ws = [-(2.0 - es[0]) / den, *(-e1 / (den * den) for e1 in es[1:2])]
    if order > 1:
        ws.append((2.0 * ws[1] * es[1] - es[2] / den) / den)
    return (*ws, skip)


def _convolution_pair(which: str, jets, j: int = 0):
    """(D^j base, D^j dir) of F = base + W dir from the jets D^k G (D = z d/dz),
    arrays or Python scalars: (DG + 2G, DG + G) for t1, (DG, G) for t2."""
    g, dg = jets[j], jets[j + 1]
    return (dg + 2.0 * g, dg + g) if which == "t1" else (dg, g)


def _jet_table(s: SigmaSeries, derivatives: int):
    """Coefficients of D^j s (D = z d/dz) for j = 0..derivatives: an
    (N x (derivatives + 1)) table whose columns are the tail times
    (n - 1)^j, and the principals times (-1)^j."""
    j = np.arange(derivatives + 1)
    return np.arange(s.order)[:, None] ** j * s.tail[:, None], s.principal * (-1.0) ** j


def _series_at(table, z: complex) -> list:
    """Every column of a `_jet_table` at one nonzero z, as Python complex numbers."""
    tails, principals = table
    powers = np.full(len(tails), z)
    powers[:1] = 1.0
    np.multiply.accumulate(powers, out=powers)
    return [v + p / z for v, p in zip((powers @ tails).tolist(), principals.tolist())]


def _point_jet(table, spec: ClassSpec, which: str, z: complex, x: complex, order: int = 2):
    """F = B + W D at one z = rho e^{i phi} and x = e^{i t} on Python
    scalars, from `table`, the `_jet_table` of G to j = 3 (D = z d/dz).
    Returns (F, (F_phi, F_t), ((F_phiphi, F_phit), (F_phit, F_tt)) or None
    below `order` 2, |B| + |W D|, skip of a degenerate x): F_phi = i (DB +
    W DD), F_t = i W_1 D, F_phiphi = -(D^2 B + W D^2 D), F_tt = -W_2 D,
    F_phit = -W_1 DD (d/dt = i x d/dx); dF/drho = -i F_phi/rho."""
    gs = _series_at(table, z)
    (b, d), (b1, d1), (b2, d2) = (_convolution_pair(which, gs, j) for j in range(3))
    w, w1, *w2, skip = _direction_weights(spec, x, which, order)
    hess = ((-b2 - w * d2, -w1 * d1), (-w1 * d1, -w2[0] * d)) if order > 1 else None
    return b + w * d, (1j * (b1 + w * d1), 1j * w1 * d), hess, abs(b) + abs(w * d), skip


def _polish_minimum(table, spec, which, z0, x0, radius):
    """Newton's polish of the smallest |F| on the torus |z| = radius, |x| = 1,
    by `newton_minimum` from the angles of (z0, x0), when no zero was found:
    F then has no zero in 0 < |z| <= radius and one pole, at 0, so its
    smallest modulus lies on |z| = radius.  Returns (|F|, z, x, iterations);
    |F| is inf when x0 is a degenerate direction."""

    def jet(phi, t):
        return _point_jet(table, spec, which, radius * cmath.exp(1j * phi), cmath.exp(1j * t))

    phi, t, val, steps = newton_minimum(jet, cmath.phase(z0), cmath.phase(x0))
    return val, radius * cmath.exp(1j * phi), cmath.exp(1j * t), steps


def _annulling_points(spec: ClassSpec, g: np.ndarray, dg: np.ndarray):
    """Per sample of (G, z G'), the point x (not restricted to the circle)
    that annuls t1 and t2 alike: F_t2 = z G' + E G and F_t1 = -F_t2/(1 - E)
    vanish where E(x) is the annulling value e = -z G'/G, carried as the
    offset e - 1 = -(z G' + G)/G; x is the Möbius preimage, or the
    `_preimage_roots` root nearest the origin.  Returns the signed inside
    indicator (|x| - 1)/(|x| + 1), negative where x lies inside the unit
    circle (e inside the target region), positive outside, -1 at the
    puncture, and in [-1, 1], so no end value near a pole of e stalls the
    secant; and the circle direction x/|x|, nan where x is 0 or not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = _theta_need(spec, -(dg + g) / g)
        if isinstance(spec.theta, JanowskiTheta):
            x = u / (spec.theta.A - spec.theta.B - spec.theta.B * u)
        else:
            x = _preimage_roots(spec.theta, u)
        size = np.abs(x)
        ok = np.isfinite(x) & (x != 0)
        return (size - 1.0) / (size + 1.0), np.where(ok, x / np.where(ok, size, 1.0), np.nan)


def _direction_minima(spec: ClassSpec, which: str, base, dirv, x: np.ndarray):
    """Per sample, the least |base + W(e^{it}) dirv| that the steps of
    `newton_angle_minima` in the direction angle t reach, from the
    angle of x, the direction of the annulling point there, or from
    a fixed live direction where x is undefined or degenerate.  Returns
    (t, |F|, number of such starts).  |F| is a value F takes, so never
    below the minimum over t; where the start lies far from that minimum
    (an annulling point deep inside the disc) it may stay above it, and
    the polish in both angles from the smallest sample is what makes the
    margin the torus minimum."""

    def jet(t):  # F = B + W D and its t-derivatives i W_1 D, -W_2 D
        w, w1, w2, skip = _direction_weights(spec, np.exp(1j * t), which, 2)
        return base + w * dirv, 1j * w1 * dirv, -w2 * dirv, skip

    t = np.angle(np.where(np.isnan(x), 1.0, x))
    first = jet(t)
    fallback = np.isnan(x) | first[3]
    if fallback.any():  # the first live one of m + 2 angles: at most m are degenerate
        poly = isinstance(spec.theta, PolynomialTheta)
        m = len(_trimmed_coefficients(spec.theta)) - 1 if poly else 1
        ts = np.pi * (2 * np.arange(m + 2) + 1) / (m + 2)
        _, dead = _direction_weights(spec, np.exp(1j * ts), which)
        t = np.where(fallback, ts[np.argmin(dead)], t)
        first = jet(t)
    t, size = newton_angle_minima(jet, t, first)
    return t, size, int(fallback.sum())


def _image_zeros(g: SigmaSeries, zs: np.ndarray, values, r_max: float):
    """Zeros of G (simple pole at 0) in 0 < |z| <= r_max, from values =
    (G, D G) (D = z d/dz) at the even samples zs of |z| = r_max: the
    samples where G is 0, if any; else none when G winds -1 times about 0,
    else the roots of the polynomial that Newton's identities build from
    the trapezoid means of z^p (D G/G) (Delves & Lyness, Math. Comp. 21,
    1967), polished by `newton_zero`, that reach |G| <= 4 eps |D G|.  A
    count that none backs may be aliased: it is taken again with 4x the
    samples, up to _RECOUNT_SAMPLES, then `InconclusiveError` is raised."""
    p, dp = values
    if len(on_circle := zs[p == 0.0]):
        return on_circle
    turn = float(np.angle(p[1:] / p[:-1]).sum()) + cmath.phase(p[0] / p[-1])
    count = round(turn / (2.0 * math.pi)) + 1
    if count == 0:
        return np.empty(0, dtype=complex)
    ratio = dp / p
    sums = [np.mean(zs**k * ratio) for k in range(1, count + 1)]
    elem = [1.0]
    for k in range(1, count + 1):
        elem.append(sum((-1) ** (i - 1) * elem[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    z = np.roots([(-1) ** k * e for k, e in enumerate(elem)]).astype(complex)
    table = _jet_table(g, 1)

    def jet(rho, phi):  # G in polar coordinates; |G| <= 4 eps |D G| is |Newton step| <= 4 eps |z|
        pz, zp = _series_at(table, rho * cmath.exp(1j * phi))
        return pz, zp / rho, 1j * zp, abs(zp), not cmath.isfinite(pz)

    runs = (newton_zero(jet, min(abs(z0), r_max), cmath.phase(z0), r_max) for z0 in z.tolist() if z0)
    located = [rho * cmath.exp(1j * a) for rho, a, size, scale, _ in runs if size <= _FLOOR * scale]
    if located:
        return np.array(located)
    if 4 * len(zs) > _RECOUNT_SAMPLES:
        raise InconclusiveError(f"a zero of G in |z| <= {r_max} is proven, but none was located")
    zs = circle(r_max, 4 * len(zs))
    return _image_zeros(g, zs, evaluate_grid(g, zs, 1), r_max)


def _zero_witness(table, spec: ClassSpec, which: str, ends, x, grid: GridSpec):
    """(|F|, z, x) at a zero of F on the rays to the points `ends`, by
    `newton_zero` on F(rho z_k/|z_k|, e^{it}) from (|z_k|, the angle of
    x_k, the direction of the annulling point at z_k), one ray at a
    time in order: the first |F| below grid.min_modulus and at the
    rounding floor 4 eps (|B| + |W D|) is the witness, so rounding does not
    move it.  A miss on the first ray where F is defined at the start gets
    a second start: the radius where `secant_zero` brackets the sign change
    of the inside indicator on [0, |z_k|], and the circle direction of the
    annulling point there.  Else the least |F| below grid.min_modulus is
    the witness, or `InconclusiveError` is raised."""

    def jet(rho, t):  # on the ray of u, as it is when called
        f, (f_p, f_t), _, scale, skip = _point_jet(table, spec, which, rho * u, cmath.exp(1j * t), 1)
        return f, -1j * f_p / rho, f_t, scale, skip

    def located(rho, x0):  # one Newton run on the ray of u, kept in `runs`
        rho, t, size, scale, _ = newton_zero(jet, rho, cmath.phase(x0), grid.r_max)
        runs.append((size, rho * u, cmath.exp(1j * t)))
        return size < grid.min_modulus and size <= _FLOOR * scale

    def annulling(rho):  # the inside indicator and the circle direction at rho u
        indicator, x = _annulling_points(spec, *np.array([_series_at(table, rho * u)[:2]]).T)
        return float(indicator[0]), complex(x[0])

    runs = []
    for k, (end, x_end) in enumerate(zip(ends.tolist(), x.tolist())):
        u = end / abs(end)
        if located(abs(end), x_end):
            return runs[-1]
        if len(runs) == k + 1 and runs[-1][0] < math.inf:  # no bracket yet, and F was defined
            rho = secant_zero(lambda r: annulling(r)[0], abs(end), -1.0)
            if located(rho, annulling(rho)[1]):
                return runs[-1]
    best = min(runs, key=lambda run: run[0])
    if best[0] < grid.min_modulus:
        return best
    raise InconclusiveError(f"a zero in |z| <= {grid.r_max} is proven, but none was located")


def check_convolution(
    f: SigmaSeries, spec: ClassSpec, grid: GridSpec, which: str = "t1"
) -> MembershipReport:
    """Non-vanishing test of the direction-indexed convolution, decided on |z| = r_max.

    F_x(z) = base(z) + W(x) dir(z), with (base, dir) = (DG + 2G, DG + G)
    for t1 and (DG, G) for t2 (`_convolution_pair`), vanishes for some
    |x| = 1 exactly when the annulling value e(z) = -DG/G
    (`_annulling_points`) lies on the boundary of the target region.  e is
    E(0) = 1, inside, at the puncture, and its only poles are the zeros of
    G.  So F has a zero in 0 < |z| <= r_max iff e is outside the
    region at a sample of |z| = r_max (grid.angles of them; grid.radii and
    grid.boundary_x are not used), or G has a zero inside (`_image_zeros`:
    a winding other than -1 that a located zero backs).  On the rays to
    such samples or zeros, Newton's method on F, also from a bracket on
    the first, locates a zero: a non-member, or `InconclusiveError` when
    no |F| falls below grid.min_modulus.  With no zero, |F| is
    smallest on the torus |z| = r_max, |x| = 1: Newton's method in the
    direction angle at every circle sample (`_direction_minima`), then in
    both angles from the smallest, finds it: member iff it is at least
    grid.min_modulus.  For the convex kind the test is applied to -z f'.
    """
    _require_sigma(f)
    _require_univalent(spec.theta)
    _require_which(which)
    if isinstance(spec.theta, PolynomialTheta) and len(_trimmed_coefficients(spec.theta)) == 1:
        raise InconclusiveError("the target is constant: every boundary direction is degenerate")
    g = _image(f, spec)
    zs = grid.circle_points()
    values = evaluate_grid(g, zs, 1)
    base, dirv = _convolution_pair(which, values)
    indicator, x = _annulling_points(spec, *values)
    outside = ~(indicator < 0.0)
    table = _jet_table(g, 3)
    if len(ends := zs[outside]) > 0:
        x = x[outside]
    elif len(ends := _image_zeros(g, zs, values, grid.r_max)) > 0:
        x = _annulling_points(spec, *np.array([_series_at(table, z)[:2] for z in ends.tolist()]).T)[1]
    skipped = 0
    if len(ends) > 0:
        best_val, best_z, best_x = _zero_witness(table, spec, which, ends, x, grid)
    else:
        t, size, skipped = _direction_minima(spec, which, base, dirv, x)
        i = int(np.argmin(size))
        best_val, best_z, best_x = float(size[i]), complex(zs[i]), cmath.exp(1j * t[i])
        if best_val >= grid.min_modulus:
            val, z_ref, x_ref, _ = _polish_minimum(table, spec, which, best_z, best_x, grid.r_max)
            if val < best_val:
                best_val, best_z, best_x = val, z_ref, x_ref
    verdict = "member" if best_val >= grid.min_modulus else "non-member"
    return MembershipReport(verdict, best_val, best_z, best_x, f"conv_{which}", skipped)


def convolution_value(f: SigmaSeries, spec: ClassSpec, z: complex, x: complex, which: str):
    """Convolution value at one (z, x) pair with |x| = 1, for report re-evaluation."""
    w = _weight_at(spec, x, which)
    if z == 0:
        raise PoleError("the convolution has a pole at z = 0")
    b, d = _convolution_pair(which, _series_at(_jet_table(_image(f, spec), 3), complex(z)))
    return b + w * d


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
