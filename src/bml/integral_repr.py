"""Integral representation of class members driven by a Schwarz function.

Any member's operator image can be written as z^{-1} exp of an integral
whose integrand is built from the boundary target composed with a
Schwarz function.  This module evaluates that representation by
Gauss-Legendre quadrature, reconstructs the underlying series by the
coefficient recurrence of the exponential plus deconvolution, and
provides the Möbius-target closed form used as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LogObstructionError, PoleError
from .laurent import SigmaSeries
from .membership import ClassSpec, JanowskiTheta, theta_grid
from .operator import OperatorKernel, invert_operator

_SCHWARZ_SAMPLES = 2048


@dataclass(frozen=True)
class SchwarzSpec:
    """Polynomial self-map of the disc fixing the origin: w(z) = sum w_k z^k.

    The self-map property is enforced by sampling: the modulus must stay
    below 1 on 2048 points of the circle of radius 0.999.
    """

    coefficients: tuple

    def __post_init__(self):
        co = tuple(complex(c) for c in self.coefficients)
        if not all(cmath.isfinite(c) for c in co):
            raise ValueError("Schwarz coefficients must be finite")
        object.__setattr__(self, "coefficients", co)
        if co:
            t = 2.0 * np.pi * np.arange(_SCHWARZ_SAMPLES) / _SCHWARZ_SAMPLES
            worst = np.abs(self.value(0.999 * np.exp(1j * t))).max()
            if not worst < 1.0:
                raise ValueError(
                    f"not a Schwarz function: modulus reaches {worst:.6f} inside the disc"
                )

    def value(self, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return acc * z

    @property
    def linear_coefficient(self) -> complex:
        return self.coefficients[0] if self.coefficients else 0j


def integrand(spec: ClassSpec, omega: SchwarzSpec, xi):
    """cos(lam) [Theta(w(xi)) - 1]/xi at a point or an array of points, the
    origin filled with its limit cos(lam) Theta'(0) w'(0); `PoleError` where
    Theta(w(xi)) is at a pole.
    """
    xi = np.asarray(xi, dtype=complex)
    th, bad = theta_grid(spec.theta, omega.value(xi))
    if bad.any():
        raise PoleError("the target has a pole on the integration path")
    at0 = xi == 0
    limit = theta_grid(spec.theta, 0j, 1)[1] * omega.linear_coefficient
    out = np.where(at0, limit, (th - 1.0) / np.where(at0, 1.0, xi))
    return (math.cos(spec.lam) * out)[()]


@lru_cache(maxsize=8)
def _gauss_unit(nodes: int):
    """Gauss-Legendre nodes and weights transplanted to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def bml_from_schwarz(
    spec: ClassSpec, omega: SchwarzSpec, z: complex, nodes: int = 64
) -> complex:
    """Operator image value z^{-1} exp(-e^{-i lam} integral_0^z integrand).

    The integral runs along the straight segment [0, z] (the integrand is
    analytic there, so the path does not matter) with `nodes`-point
    Gauss-Legendre quadrature.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("the representation has a pole at z = 0")
    if nodes < 8:
        raise ValueError(f"need at least 8 quadrature nodes, got {nodes}")
    t, w = _gauss_unit(nodes)
    integral = z * (w @ integrand(spec, omega, t * z))
    return cmath.exp(-cmath.exp(-1j * spec.lam) * integral) / z


def closed_form_janowski(spec: ClassSpec, z: complex) -> complex:
    """Antiderivative oracle for the identity Schwarz function w(z) = z.

    For a Möbius target: z^{-1} (1 + B z)^g with
    g = -e^{-i lam} cos(lam) (A - B)/B (principal branch), and the B -> 0
    limit z^{-1} exp(-e^{-i lam} cos(lam) A z).
    """
    if not isinstance(spec.theta, JanowskiTheta):
        raise ValueError("the closed form is only available for Möbius targets")
    z = complex(z)
    if z == 0:
        raise PoleError("the representation has a pole at z = 0")
    a, b = spec.theta.A, spec.theta.B
    c = -cmath.exp(-1j * spec.lam) * math.cos(spec.lam)
    if b == 0.0:
        return cmath.exp(c * a * z) / z
    return (1.0 + b * z) ** (c * (a - b) / b) / z


# ---------------------------------------------------------------------------
# series route


def _exp_coefficients(spec: ClassSpec, omega: SchwarzSpec, order: int) -> np.ndarray:
    """Coefficients e_0..e_order of e = exp(p), p(0) = 0, z p' = c (Theta(w) - 1).

    z p' is rational: num/den with den(0) = 1 (c (A - B) w over 1 + B w for
    a Möbius target, c (Theta(w) - 1) over 1 for a polynomial one, composed
    exactly).  So e is D-finite, den z e' = num e, and its coefficients obey
    m e_m = sum_k num_k e_{m-k} - sum_{j>=1} den_j (m - j) e_{m-j} (Stanley,
    Eur. J. Combin. 1, 1980), at O(order deg(den, num)) cost.
    """
    c = -cmath.exp(-1j * spec.lam) * math.cos(spec.lam)
    w = np.array([0j, *omega.coefficients])
    w = w[: np.flatnonzero(w).max(initial=0) + 1]  # at its true degree d
    theta = spec.theta
    if isinstance(theta, JanowskiTheta):
        num, den = c * (theta.A - theta.B) * w, theta.B * w  # den - 1: den(0) = 1
    else:  # Theta(w) to degree M d, at most order, by Horner's rule
        comp = np.zeros(1, dtype=complex)
        for t in theta.coefficients[::-1]:
            comp = np.convolve(comp, w)[: order + 1]
            comp[0] += t
        num, den = c * comp, np.zeros(len(comp))
    terms = list(zip(range(1, len(num)), num[1:].tolist(), den[1:].tolist()))
    e = [1.0 + 0j] + [0j] * order
    for m in range(1, order + 1):
        e[m] = sum((a - b * (m - k)) * e[m - k] for k, a, b in terms[:m]) / m
    return np.array(e)


def reconstruct_f(
    spec: ClassSpec,
    omega: SchwarzSpec,
    kernel: OperatorKernel,
    order: int,
    kind: str,
) -> SigmaSeries:
    """Recover the series whose operator image the Schwarz data describes.

    Spirallike kind: the exponential of the integrated integrand, from its
    coefficient recurrence, shifted by z^{-1}, with the kernel weights
    divided out (`ValueError` when the kernel has fewer than `order`).
    Convex kind: take the termwise antiderivative of -eta^{-2} times the
    same exponential in the 1/z-basis first; that primitive only exists
    when the exponential's linear coefficient vanishes (within 1e-10),
    otherwise the logarithmic term is reported via `LogObstructionError`
    rather than dropped.  The convex result satisfies -z d/dz(image) =
    spirallike image exactly.
    """
    if kind not in ("spirallike", "convex"):
        raise ValueError(f"kind must be 'spirallike' or 'convex', got {kind!r}")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if len(kernel.h) < order:
        raise ValueError(f"the kernel has {len(kernel.h)} weights, fewer than order {order}")
    e = _exp_coefficients(spec, omega, order)
    if kind == "spirallike":
        image = SigmaSeries(1.0, e[1:])
    else:
        if abs(e[1]) > 1e-10:
            raise LogObstructionError(complex(e[1]))
        tail = np.zeros(order, dtype=complex)
        if order >= 2:
            n = np.arange(2, order + 1)
            tail[1:] = -e[2:] / (n - 1)
        image = SigmaSeries(1.0, tail)
    return invert_operator(image, kernel)
