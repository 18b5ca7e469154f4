"""The normalized weight series and the induced coefficientwise operator.

The operator multiplies the n-th tail coefficient of a series by a
positive weight h_n built from Gamma ratios; its inverse divides by the
same weights.  Realizing it coefficientwise (instead of convolving
sampled function values) keeps the algebra exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import SigmaSeries
from .special_fn import BMLParams, GAMMA_MAX_ARG, term_denominator


@dataclass(frozen=True)
class OperatorKernel:
    """Weights h_1..h_N of the operator with parameters `params`."""

    params: BMLParams
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(-1).copy()
        if len(h) < 1 or not np.all(h > 0):
            raise ValueError("kernel weights must be a nonempty positive sequence")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def series(self) -> SigmaSeries:
        """The weights packaged as a series with principal coefficient 1."""
        return SigmaSeries(1.0, self.h)


def coefficient_h(n: int, params: BMLParams) -> float:
    """Weight of the n-th tail coefficient.

    h_n = a^s Gamma(theta) / (Gamma(K (n-1) + theta) (n - 1 + a)^s), the
    ratio d_0 / d_(n-1) of two `term_denominator` values: strictly
    positive, with h_1 = 1 exactly.
    """
    if n < 1:
        raise ValueError(f"weights are indexed from 1, got {n}")
    return term_denominator(params, 0) / term_denominator(params, n - 1)


def max_kernel_order(params: BMLParams) -> int:
    """Largest order whose weight formula stays inside the Gamma range."""
    return int((GAMMA_MAX_ARG - params.theta) / params.K) + 1


def build_kernel(params: BMLParams, order: int) -> OperatorKernel:
    """Kernel with weights h_1..h_order, as `coefficient_h` gives them."""
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    d = np.array([term_denominator(params, n) for n in range(order)])
    return OperatorKernel(params, d[0] / d)


def apply_operator(f: SigmaSeries, kernel: OperatorKernel) -> SigmaSeries:
    """Coefficientwise image on the shorter tail: tail_n -> h_n c_n, principal preserved."""
    n = min(len(f.tail), len(kernel.h))
    return SigmaSeries(f.principal, kernel.h[:n] * f.tail[:n])


def invert_operator(g: SigmaSeries, kernel: OperatorKernel) -> SigmaSeries:
    """Preimage under the operator: tail_n -> c_n / h_n.

    Round-trips with `apply_operator` exactly up to one rounding per
    coefficient; the weights are positive, so the division always exists.
    """
    n = min(len(g.tail), len(kernel.h))
    return SigmaSeries(g.principal, g.tail[:n] / kernel.h[:n])
