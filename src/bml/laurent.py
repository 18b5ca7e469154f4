"""Truncated Laurent series with a simple pole at the origin.

Everything lives in the basis {1/z, 1, z, z^2, ...}: a series is stored
as the coefficient of 1/z (``principal``) plus tail coefficients
c_1..c_N, where c_n multiplies z^(n-1).  Values are immutable; all
operations return new series.  `evaluate_grid` sums a series over the
samples of a `circle` by one FFT, and anywhere else by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PoleError


@dataclass(frozen=True, eq=False)
class SigmaSeries:
    """Coefficients of principal/z + sum_{n=1}^{N} tail[n-1] z^(n-1)."""

    principal: complex
    tail: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.tail, dtype=complex).reshape(-1).copy()
        p = complex(self.principal)
        if not (np.all(np.isfinite(arr)) and np.isfinite(p.real) and np.isfinite(p.imag)):
            raise ValueError("series coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "principal", p)
        object.__setattr__(self, "tail", arr)

    @property
    def order(self) -> int:
        return len(self.tail)

    def coefficient(self, n: int) -> complex:
        """Tail coefficient c_n (the z^(n-1) coefficient), zero past the truncation."""
        if n < 1:
            raise ValueError(f"tail coefficients are indexed from 1, got {n}")
        return complex(self.tail[n - 1]) if n <= len(self.tail) else 0j

    def with_coefficient(self, n: int, value: complex) -> "SigmaSeries":
        """Copy of the series with c_n replaced."""
        if not 1 <= n <= len(self.tail):
            raise ValueError(f"coefficient index {n} outside 1..{len(self.tail)}")
        tail = self.tail.copy()
        tail[n - 1] = value
        return SigmaSeries(self.principal, tail)

    def __add__(self, other: "SigmaSeries") -> "SigmaSeries":
        n = max(len(self.tail), len(other.tail))
        tail = np.zeros(n, dtype=complex)
        tail[: len(self.tail)] = self.tail
        tail[: len(other.tail)] += other.tail
        return SigmaSeries(self.principal + other.principal, tail)

    def __sub__(self, other: "SigmaSeries") -> "SigmaSeries":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "SigmaSeries":
        return SigmaSeries(self.principal * scalar, self.tail * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SigmaSeries(principal={self.principal!r}, order={len(self.tail)})"


def hadamard_identity(order: int) -> SigmaSeries:
    """Two-sided identity for `hadamard`: principal 1 and an all-ones tail."""
    return SigmaSeries(1.0, np.ones(order, dtype=complex))


def evaluate(f: SigmaSeries, z: complex) -> complex:
    """Value of f at z != 0: the terms principal/z and c_n z^(n-1), powers
    by repeated multiplication, with their real and imaginary parts each
    summed by `math.fsum` (the sum of the rounded terms, rounded once)."""
    z = complex(z)
    if z == 0:
        raise PoleError("series has a pole at z = 0")
    terms = [f.principal / z]
    zp = 1.0 + 0.0j
    for c in f.tail.tolist():
        terms.append(c * zp)
        zp *= z
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


@lru_cache(maxsize=16)
def _roots(samples: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(samples) / samples)
    roots.flags.writeable = False
    return roots


def circle(radius: float, samples: int) -> np.ndarray:
    """The points radius e^{2 pi i k / samples}, k = 0..samples-1."""
    return radius * _roots(samples)


def evaluate_grid(f: SigmaSeries, zs: np.ndarray) -> np.ndarray:
    """Values of f over an array of nonzero points: on `circle(r, n)`, bit for
    bit, with 0 < r <= 1, one DFT f(r w^k) = sum_j b_j w^(jk), w = e^{2 pi i/n},
    whose bin b_j sums c_(m+1) r^m over m = j mod n plus principal/r at
    j = n - 1; anywhere else, Horner's rule."""
    zs = np.asarray(zs, dtype=complex)
    n = len(zs) if zs.ndim == 1 else 0
    if n and 0.0 < (r := zs[0].real) <= 1.0 and np.array_equal(zs, r * _roots(n)):
        bins = np.zeros(n * (f.order // n + 1), dtype=complex)
        bins[: f.order] = f.tail * r ** np.arange(f.order)
        bins = bins.reshape(-1, n).sum(axis=0)
        bins[-1] += f.principal / r
        return np.fft.ifft(bins, norm="forward")  # n times numpy's ifft
    acc = np.zeros_like(zs)
    for c in f.tail[::-1]:
        acc = acc * zs + c
    return acc + f.principal / zs


def hadamard(f: SigmaSeries, g: SigmaSeries) -> SigmaSeries:
    """Coefficientwise product; the result keeps the shorter tail.

    Truncating to the shorter operand (rather than zero-padding) keeps
    non-vanishing scans from seeing fabricated zero coefficients.
    """
    n = min(len(f.tail), len(g.tail))
    return SigmaSeries(f.principal * g.principal, f.tail[:n] * g.tail[:n])


def z_fprime(f: SigmaSeries) -> SigmaSeries:
    """z f'(z) in the same basis: principal -> -principal, c_n -> (n-1) c_n."""
    n = np.arange(1, len(f.tail) + 1)
    return SigmaSeries(-f.principal, (n - 1) * f.tail)


def alexander(f: SigmaSeries) -> SigmaSeries:
    """-z f'(z), the transform tying the convex-type and spirallike-type classes.

    The z^0 coefficient is annihilated: c_1 maps to 0.
    """
    n = np.arange(1, len(f.tail) + 1)
    return SigmaSeries(f.principal, -(n - 1) * f.tail)


def binomial_series(beta: complex, w: complex, order: int) -> np.ndarray:
    """Taylor coefficients d_0..d_order of (1 + w z)^beta, principal branch.

    Built from d_0 = 1 and d_{k+1} = d_k w (beta - k)/(k + 1); for a
    nonnegative integer beta the sequence terminates exactly.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    d = np.zeros(order + 1, dtype=complex)
    d[0] = 1.0
    for k in range(order):
        d[k + 1] = d[k] * w * (beta - k) / (k + 1)
    return d
