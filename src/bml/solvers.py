"""Superlinear iterations that polish the witnesses of the convolution check,
each on a function the caller gives: ``newton_zeros`` locates zeros in two
real unknowns by Newton's method, with ``secant_zeros`` (Illinois regula
falsi on segments) as its bracketed safety net, and ``newton_minimum`` and
``newton_angle_minima`` minimise |F|^2 by a safeguarded Newton's method,
over two angles from one start or over one angle from many at once.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(float).eps
# function calls of the zero search beyond the one at the right ends
_SECANT_STEPS = 60
# iteration bound of the Newton polish; it converges in a handful
_NEWTON_STEPS = 40
# halvings of a step that does not lower |F|^2 before the next one is tried
_BACKTRACKS = 8
# longest step in an angle that the polish or the zero search takes at once
_MAX_STEP = 0.1
# longest step of the one-angle minimisation: its starts can lie far from
# the minimum, and an iterate counts only where it lowers |F|
_ANGLE_STEP = 0.5
# steps of the one-angle minimisation (fewer left random members above a
# dense scan of the torus; see `membership._direction_minima`)
_ANGLE_STEPS = 3
# step budget of the Newton zero search (zeros near its starts close in 3-4)
_ZERO_STEPS = 8


def newton_zeros(jet, rho: np.ndarray, t: np.ndarray, r_max: float):
    """Zeros of a complex F(rho, t) in the real unknowns rho and t, per start.

    jet(rho, t) gives (F, F_rho, F_t, scale, undefined) for the batch, scale
    the size of the terms summed into F.  A step solves F_rho d_rho + F_t
    d_t = -F by Cramer's rule (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004), keeps rho in [rho/2, r_max] and |d_t| <= _MAX_STEP.  A
    start is done once |F| <= 4 eps scale, or F is undefined or did not fall
    (rounding).  Returns per start (rho, t, |F|, scale) at its least |F|
    (scale 0 where F was undefined throughout), and steps.
    """
    best = [rho, t, np.full(len(rho), math.inf), np.zeros(len(rho))]
    for steps in range(_ZERO_STEPS + 1):
        f, f_rho, f_t, scale, undefined = jet(rho, t)
        size = np.where(undefined, math.inf, np.abs(f))
        live = size < best[2]
        best = [np.where(live, new, old) for new, old in zip((rho, t, size, scale), best)]
        live &= size > 4 * _EPS * scale
        if steps == _ZERO_STEPS or not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (f_rho * f_t.conjugate()).imag
            d_rho, d_t = -(f * f_t.conjugate()).imag / c, (f * f_rho.conjugate()).imag / c
        rho = np.where(live, np.clip(rho + d_rho, 0.5 * rho, r_max), rho)
        t = np.where(live, t + np.clip(d_t, -_MAX_STEP, _MAX_STEP), t)
    return (*best, steps)


def secant_zeros(fn, za, zb, fa) -> np.ndarray:
    """A sign change of the real function fn on each segment [za, zb].

    The Illinois variant of regula falsi (Dowell & Jarratt, BIT 11, 1971),
    for all segments at once: each step calls fn at the false-position
    point of every open bracket, or at its midpoint where that point is
    not strictly inside, and keeps the part across which the sign
    changes; an end kept twice in a row has its value halved, which makes
    the convergence superlinear.  A point within 2 ulp of an end moves to
    2 ulp from it, so a zero at an end closes its bracket at once.  `fa`
    holds fn at za; fn at zb is one more call, and a non-finite value
    counts as +1.  A segment is done once its bracket is at most 4 ulp
    wide (relative) or fn is exactly 0 there.  Returns, per segment, the
    bracket end with the smaller |fn|.
    """

    def call(z):
        v = fn(z)
        return np.where(np.isfinite(v), v, 1.0)

    z = np.array([za, zb], dtype=complex)
    v = np.array([fa, call(z[1])], dtype=float)
    size = np.abs(v)  # v gets halved, size keeps |fn|
    last = np.full(z.shape[1], -1)  # the end each step replaced
    for _ in range(_SECANT_STEPS):
        width = np.abs(z[1] - z[0])
        live = np.flatnonzero((v[0] * v[1] < 0) & (width > 4 * _EPS * np.abs(z).max(axis=0)))
        if len(live) == 0:
            break
        (a, b), (va, vb) = z[:, live], v[:, live]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = va / (va - vb)
        p = np.where((s > 0.0) & (s < 1.0), a + s * (b - a), 0.5 * (a + b))
        gap = 2 * _EPS * np.maximum(np.abs(a), np.abs(b)) * (b - a) / width[live]
        p = np.where(np.abs(p - a) < np.abs(gap), a + gap, p)
        p = np.where(np.abs(b - p) < np.abs(gap), b - gap, p)
        vp = call(p)
        k = (va * vp < 0).astype(int)  # 1: the sign changes on [a, p], so p replaces b
        v[1 - k, live] *= np.where(last[live] == k, 0.5, 1.0)
        z[k, live], v[k, live], size[k, live], last[live] = p, vp, np.abs(vp), k
    return z[np.argmin(size, axis=0), np.arange(z.shape[1])]


def newton_minimum(jet, angles: np.ndarray):
    """Local minimum of g = |F|^2 over two angles, from `angles`.

    jet(angles) gives (F, [F_1, F_2], [[F_11, F_12], [F_21, F_22]], scale,
    undefined): the partial derivatives of F in the angles, the size of the
    terms whose sum is F, and whether F is undefined (which counts as +inf).
    Each step uses the exact gradient 2 Re(conj(F) F_a) and Hessian
    2 Re(conj(F_a) F_b + conj(F) F_ab) of g (Nocedal & Wright, Numerical
    Optimization, 2006).  Where the Hessian is not positive definite, or
    the Newton step does not lower g within _BACKTRACKS halvings, a Cauchy
    step along the gradient takes over.  It stops once the step is below
    1e-14 in both angles, the decrease the quadratic model predicts is
    below the rounding of g, or no step lowers g.  Returns
    (angles, |F|, iterations); |F| is inf when F is undefined at the start.
    """
    at = jet(angles)
    if at[4]:
        return angles, math.inf, 0
    for steps in range(1, _NEWTON_STEPS + 1):
        f, df, ddf, scale, _ = at
        g = abs(f) ** 2
        grad = 2.0 * (f.conjugate() * df).real
        hess = 2.0 * (np.outer(df.conjugate(), df) + f.conjugate() * ddf).real
        if not grad.any():
            break
        (h11, h12), (_, h22) = hess
        det = h11 * h22 - h12 * h12
        moves = []
        if h11 > 0 and det > 0:  # Newton's step, where the Hessian is positive definite
            newton = [h12 * grad[1] - h22 * grad[0], h12 * grad[0] - h11 * grad[1]]
            moves.append(np.array(newton) / det)
        curv = grad @ hess @ grad
        cauchy = grad @ grad / curv if curv > 0 else math.inf
        moves.append(-grad * min(cauchy, _MAX_STEP / np.abs(grad).max()))
        # converged, or the model decrease is below the rounding of g
        decrease = -0.5 * grad @ moves[0]
        if np.abs(moves[0]).max() < 1e-14 or decrease <= 16 * _EPS * abs(f) * scale:
            break
        for move in moves:
            move = move * min(1.0, _MAX_STEP / np.abs(move).max())
            for _ in range(_BACKTRACKS + 1):
                trial = jet(angles + move)
                if not trial[4] and abs(trial[0]) ** 2 < g:
                    break
                move = 0.5 * move
            else:
                continue
            break
        else:
            break
        angles, at = angles + move, trial
    return angles, float(abs(at[0])), steps


def newton_angle_minima(jet, t: np.ndarray):
    """Newton steps towards the minima of g = |F|^2 in one angle, all starts at once.

    jet(t) gives (F, F_t, F_tt, undefined) at the angles t.  Each of the
    _ANGLE_STEPS steps is Newton's, -g'/g'' with g' = 2 Re(conj(F) F_t) and
    g'' = 2 (|F_t|^2 + Re(conj(F) F_tt)), where g'' > 0, else the
    Gauss-Newton step -g'/(2 |F_t|^2); none is longer than _ANGLE_STEP.
    Returns (t, |F|) per start at the least |F| its iterates reached (nan
    where F is nan at the start, inf where it is undefined throughout).
    """
    t = np.array(t, dtype=float)
    for k in range(_ANGLE_STEPS + 1):
        f, f_t, f_tt, undefined = jet(t)
        size = np.where(undefined, math.inf, np.abs(f))
        if k == 0:
            best_t, best = t, size
        better = size < best
        best_t, best = np.where(better, t, best_t), np.where(better, size, best)
        if k == _ANGLE_STEPS:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (f.conjugate() * f_t).real
            gauss = np.abs(f_t) ** 2
            curv = gauss + (f.conjugate() * f_tt).real
            step = -slope / np.where(curv > 0.0, curv, gauss)
        # a nan step (0/0, where F_t = 0 and g'' <= 0) becomes -_ANGLE_STEP
        t = t + np.fmin(np.fmax(step, -_ANGLE_STEP), _ANGLE_STEP)
    return best_t, best
