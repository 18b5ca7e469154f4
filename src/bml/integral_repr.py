"""Integral representation of class members driven by a Schwarz function.

Any member's operator image can be written as z^{-1} exp of an integral
whose integrand is built from the boundary target composed with a
Schwarz function.  This module evaluates that representation by
Gauss-Legendre quadrature, reconstructs the underlying series by formal
exponentiation plus deconvolution, and provides the Möbius-target
closed form used as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LogObstructionError, PoleError
from .laurent import SigmaSeries
from .membership import ClassSpec, JanowskiTheta, PolynomialTheta, theta_grid
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


def integrand(spec: ClassSpec, omega: SchwarzSpec, xi: complex) -> complex:
    """cos(lam) [Theta(w(xi)) - 1]/xi, the origin filled with its limit.

    At xi = 0 the removable singularity evaluates to
    cos(lam) Theta'(0) w'(0).
    """
    xi = complex(xi)
    if xi == 0:
        return math.cos(spec.lam) * spec.theta.deriv0() * omega.linear_coefficient
    th = spec.theta.value(complex(omega.value(xi)))
    return math.cos(spec.lam) * (th - 1.0) / xi


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
    xi = t * z
    om = omega.value(xi)
    th, bad = theta_grid(spec.theta, om)
    if bad.any():
        raise PoleError("the target has a pole on the integration segment")
    integral = z * (w @ (math.cos(spec.lam) * (th - 1.0) / xi))
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


def _ps_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def _compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) to z^order; inner must annihilate 0."""
    if inner[0] != 0:
        raise ValueError("inner series must have zero constant term")
    # convolve at inner's true degree: its zero padding made each step O(order^2)
    inner = inner[: np.flatnonzero(inner).max(initial=0) + 1]
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[-1]
    for c in outer[-2::-1]:
        acc = _ps_mul(acc, inner, order)
        acc[0] += c
    return acc


def _theta_series(theta, order: int) -> np.ndarray:
    """Power-series coefficients of the boundary target to z^order."""
    co = np.zeros(order + 1, dtype=complex)
    if isinstance(theta, JanowskiTheta):
        co[0] = 1.0
        if order >= 1:
            k = np.arange(1, order + 1)
            co[1:] = (theta.A - theta.B) * (-theta.B) ** (k - 1)
        return co
    if isinstance(theta, PolynomialTheta):
        src = np.asarray(theta.coefficients, dtype=complex)
        n = min(len(src), order + 1)
        co[:n] = src[:n]
        return co
    raise ValueError(f"unsupported target type {type(theta).__name__}")


def _omega_series(omega: SchwarzSpec, order: int) -> np.ndarray:
    co = np.zeros(order + 1, dtype=complex)
    src = np.asarray(omega.coefficients, dtype=complex)
    n = min(len(src), order)
    co[1 : n + 1] = src[:n]
    return co


def _exp_series(p: np.ndarray) -> np.ndarray:
    """exp of a power series via the derivative recurrence.

    e_0 = exp(p_0) and m e_m = sum_{k=1}^{m} k p_k e_{m-k}.
    """
    n = len(p)
    e = np.zeros(n, dtype=complex)
    e[0] = cmath.exp(complex(p[0]))
    for m in range(1, n):
        k = np.arange(1, m + 1)
        e[m] = np.sum(k * p[1 : m + 1] * e[m - 1 :: -1][: m]) / m
    return e


def reconstruct_f(
    spec: ClassSpec,
    omega: SchwarzSpec,
    kernel: OperatorKernel,
    order: int,
    kind: str,
) -> SigmaSeries:
    """Recover the series whose operator image the Schwarz data describes.

    Spirallike kind: exponentiate the integrated integrand formally, shift
    by z^{-1}, and divide out the kernel weights.  Convex kind: take the
    termwise antiderivative of -eta^{-2} times the same exponential in the
    1/z-basis first; that primitive only exists when the exponential's
    linear coefficient vanishes (within 1e-10), otherwise the logarithmic
    term is reported via `LogObstructionError` rather than dropped.  The
    convex result satisfies -z d/dz(image) = spirallike image exactly.
    """
    if kind not in ("spirallike", "convex"):
        raise ValueError(f"kind must be 'spirallike' or 'convex', got {kind!r}")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    comp = _compose(_theta_series(spec.theta, order), _omega_series(omega, order), order)
    p = np.zeros(order + 1, dtype=complex)
    k = np.arange(1, order + 1)
    p[1:] = -cmath.exp(-1j * spec.lam) * math.cos(spec.lam) * comp[1:] / k
    e = _exp_series(p)
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
