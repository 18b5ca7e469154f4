"""Gamma on the positive reals and the Mittag-Leffler series family.

Gamma is the standard library's `math.gamma`.  Series are summed forward
in n, the real and imaginary parts of the terms each by `math.fsum`, so
the sum of the rounded terms is rounded once.  Truncation is controlled
by a geometric tail bound: once consecutive terms decay by at least a
factor of two, the whole omitted tail is bounded by the last term kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Gamma(171.62...) overflows a 64-bit float; stay a little below.
GAMMA_MAX_ARG = 170.0


@dataclass(frozen=True)
class BMLParams:
    """Positive-real parameter tuple (K, theta, a, s) of the four-parameter series.

    K is the order parameter multiplying n inside Gamma, theta the shift,
    a the Barnes shift and s the Barnes exponent.
    """

    K: float
    theta: float
    a: float
    s: float = 0.0

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.s >= 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")


def gamma_pos(x: float) -> float:
    """Gamma(x) for 0 < x <= 170 by `math.gamma` (a few ulp): `ValueError`
    for x <= 0, `OverflowError` naming x where Gamma(x) leaves the float
    range (above 170, or x so close to 0 that 1/x does)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_pos requires x > 0, got {x}")
    try:
        if x <= GAMMA_MAX_ARG:
            return math.gamma(x)
    except OverflowError:
        pass
    raise OverflowError(f"gamma_pos({x}) would overflow the 64-bit float range")


def term_denominator(params: BMLParams, n: int) -> float:
    """Denominator d_n = Gamma(K n + theta) (n + a)^s of the n-th series
    term; the operator weights are h_n = d_0 / d_(n-1)."""
    d = gamma_pos(params.K * n + params.theta)
    if params.s != 0.0:
        d *= (n + params.a) ** params.s
    return d


def truncation_order(params: BMLParams, radius: float, tol: float) -> int:
    """Smallest order N whose term at `radius` certifies a sub-`tol` tail.

    With t_n = radius^n / (Gamma(K n + theta) (n + a)^s), returns the first
    N >= 1 with t_N < tol and t_{N+1} <= t_N / 2.  Past the ratio threshold
    the tail sum beyond N is bounded by t_N itself, hence below `tol`.
    Larger tolerances never yield larger N.  A certificate that would need
    Gamma or radius^n beyond the float range raises OverflowError naming
    the parameters.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")

    t_n = radius / term_denominator(params, 1)
    n = 1
    while True:
        try:
            t_next = radius ** (n + 1) / term_denominator(params, n + 1)
        except OverflowError:  # Gamma or radius^n left the float range
            if t_n == 0.0:
                return n
            raise OverflowError(
                "tail certification needs Gamma or radius^n beyond the float range "
                f"(K={params.K}, theta={params.theta}, radius={radius}, tol={tol})"
            ) from None
        if t_n < tol and t_next <= 0.5 * t_n:
            return n
        t_n, n = t_next, n + 1


def mittag_leffler_2p(K: float, theta: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler value: sum of z^n / Gamma(K n + theta).

    The one-parameter function is the theta = 1 case; the error contract
    is `barnes_ml`'s.
    """
    return barnes_ml(BMLParams(K, theta, 1.0, 0.0), z)


def barnes_ml(params: BMLParams, z: complex) -> complex:
    """Four-parameter value: sum of z^n / (Gamma(K n + theta) (n + a)^s).

    Reduces to ``mittag_leffler_2p`` when s = 0.  Absolute error below
    1e-12 for |z| <= 4 and K >= 1.  Each term is rounded once, and so is
    their sum (`math.fsum`), so the error is about eps times the largest
    term.  For K < 1 (or larger |z|) the terms grow far above the
    sum: 2.3e-9 at K = 0.5, theta = 0.3, z = -2.83 - 2.83i.
    """
    z = complex(z)
    terms = []
    zp = 1.0 + 0.0j
    for n in range(truncation_order(params, max(abs(z), 1e-30), 1e-14) + 1):
        terms.append(zp / term_denominator(params, n))
        zp *= z
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
