"""Gamma on the positive reals and the Mittag-Leffler series family.

Series are summed forward in n with compensated (Kahan) accumulation.
Truncation is controlled by a geometric tail bound: once consecutive
terms decay by at least a factor of two, the whole omitted tail is
bounded by the last term kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Gamma(171.62...) overflows a 64-bit float; stay a little below.
GAMMA_MAX_ARG = 170.0

# Lanczos rational approximation, g = 7, 9 terms: ~13-15 significant
# digits on the positive axis in double precision.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


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
    """Gamma(x) for 0 < x <= 170.

    Lanczos approximation evaluated in log space (the bare power t^(x-1/2)
    overflows long before Gamma itself does); arguments below 1/2 go
    through the reflection formula.  Relative error is below 1e-12 on
    [0.1, 170].
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_pos requires x > 0, got {x}")
    if x > GAMMA_MAX_ARG:
        raise OverflowError(f"gamma_pos({x}) would overflow the 64-bit float range")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_pos(1.0 - x))
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * acc * math.exp((x - 0.5) * math.log(t) - t)


def _term_denominator(params: BMLParams, n: int) -> float:
    """Denominator Gamma(K n + theta) (n + a)^s of the n-th series term."""
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

    def out_of_range():
        return OverflowError(
            "tail certification needs Gamma or radius^n beyond the float range "
            f"(K={params.K}, theta={params.theta}, radius={radius}, tol={tol})"
        )

    t_next = radius / _term_denominator(params, 1)
    n = 1
    while True:
        t_n = t_next
        if params.K * (n + 1) + params.theta > GAMMA_MAX_ARG:
            if t_n == 0.0:
                return n
            raise out_of_range()
        try:
            power = radius ** (n + 1)
        except OverflowError:
            # radius^n left the float range before the tail was certified
            raise out_of_range() from None
        t_next = power / _term_denominator(params, n + 1)
        if t_n < tol and t_next <= 0.5 * t_n:
            return n
        n += 1


def _series_sum(params: BMLParams, z: complex, tol: float = 1e-14) -> complex:
    """Partial sum of z^n / (Gamma(K n + theta) (n + a)^s), n = 0..N."""
    z = complex(z)
    order = truncation_order(params, max(abs(z), 1e-30), tol)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    for n in range(order + 1):
        term = zp / _term_denominator(params, n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        zp *= z
    return total


def mittag_leffler_2p(K: float, theta: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler value: sum of z^n / Gamma(K n + theta).

    The one-parameter function is the theta = 1 case.  Absolute error is
    below 1e-12 for |z| <= 4 and order parameters that keep the terms
    inside the float range.
    """
    return _series_sum(BMLParams(K, theta, 1.0, 0.0), z)


def barnes_ml(params: BMLParams, z: complex) -> complex:
    """Four-parameter value: sum of z^n / (Gamma(K n + theta) (n + a)^s).

    Reduces to ``mittag_leffler_2p`` when s = 0.  Absolute error below
    1e-12 for |z| <= 4.
    """
    return _series_sum(params, z)
