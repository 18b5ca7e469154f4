"""Superlinear iterations that polish the witnesses of the convolution check,
each on a function the caller gives.  Three follow one point on Python
scalars: ``newton_zero`` locates a zero in two real unknowns by Newton's
method, ``newton_minimum`` minimises |F|^2 over two angles by a
safeguarded Newton's method, and ``secant_zero`` (Illinois regula falsi)
brackets a sign change on one segment.  ``newton_angle_minima`` minimises
|F|^2 over one angle at every point of a numpy array at once.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
# calls of fn that the secant makes beyond the one at b
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


def newton_zero(jet, rho: float, t: float, r_max: float):
    """A zero of a complex F(rho, t) in the real unknowns rho and t, from one start.

    jet(rho, t) gives (F, F_rho, F_t, scale, undefined) as Python scalars,
    scale the size of the terms summed into F.  A step solves F_rho d_rho +
    F_t d_t = -F by Cramer's rule (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004), keeps rho in [rho/2, r_max] and |d_t| <= _MAX_STEP.  It
    stops once |F| <= 4 eps scale, or F is undefined, did not fall
    (rounding) or has parallel F_rho and F_t.  Returns (rho, t, |F|, scale)
    at the least |F| (inf and 0 where F was undefined throughout), and steps.
    """
    best = (rho, t, math.inf, 0.0)
    for steps in range(_ZERO_STEPS + 1):
        f, f_rho, f_t, scale, undefined = jet(rho, t)
        size = math.inf if undefined else abs(f)
        if not size < best[2]:
            break
        best = (rho, t, size, scale)
        c = (f_rho * f_t.conjugate()).imag
        if steps == _ZERO_STEPS or size <= 4 * _EPS * scale or c == 0.0:
            break
        d_rho, d_t = -(f * f_t.conjugate()).imag / c, (f * f_rho.conjugate()).imag / c
        rho = min(max(rho + d_rho, 0.5 * rho), r_max)
        t += min(max(d_t, -_MAX_STEP), _MAX_STEP)
    return (*best, steps)


def secant_zero(fn, b: float, fa: float) -> float:
    """A sign change of the real function fn on [0, b], on Python floats.

    The Illinois variant of regula falsi (Dowell & Jarratt, BIT 11, 1971):
    each step calls fn at the false-position point, or at the midpoint
    where that point is not strictly inside, and keeps the part across
    which the sign changes; an end kept twice in a row has its value
    halved.  A point within 2 ulp of an end moves to 2 ulp from it, so a
    zero at an end closes the bracket at once.  `fa` is fn(0), and a
    non-finite value of fn counts as +1.  It stops once the bracket is at
    most 4 ulp wide (relative to b) or fn is 0 there, and returns the end
    with the smaller |fn|, b on a tie.
    """

    def call(r):
        v = fn(r)
        return v if math.isfinite(v) else 1.0

    z, v = [0.0, b], [fa, call(b)]
    size = [abs(x) for x in v]  # v gets halved, size keeps |fn|
    last = -1  # the end the last step replaced
    for _ in range(_SECANT_STEPS):
        if not (v[0] * v[1] < 0 and z[1] - z[0] > 4 * _EPS * z[1]):
            break
        s, gap = v[0] / (v[0] - v[1]), 2 * _EPS * z[1]
        p = z[0] + s * (z[1] - z[0]) if 0.0 < s < 1.0 else 0.5 * (z[0] + z[1])
        p = min(max(p, z[0] + gap), z[1] - gap)
        vp = call(p)
        k = int(v[0] * vp < 0)  # 1: the sign changes on [z[0], p], so p replaces z[1]
        v[1 - k] *= 0.5 if last == k else 1.0
        z[k], v[k], size[k], last = p, vp, abs(vp), k
    return z[0] if size[0] < size[1] else z[1]


def newton_minimum(jet, a: float, b: float):
    """Local minimum of g = |F|^2 over two angles, from (a, b).

    jet(a, b) gives (F, (F_a, F_b), ((F_aa, F_ab), (F_ba, F_bb)), scale,
    undefined) as Python scalars: the partial derivatives of F in the
    angles, the size of the terms whose sum is F, and whether F is
    undefined (which counts as +inf).  Each step uses the exact gradient
    2 Re(conj(F) F_a) and Hessian 2 Re(conj(F_a) F_b + conj(F) F_ab) of g
    (Nocedal & Wright, Numerical Optimization, 2006).  Where the Hessian is
    not positive definite, or the Newton step does not lower g within
    _BACKTRACKS halvings, a Cauchy step along the gradient takes over; where
    the gradient vanishes, a step of _MAX_STEP either way along the direction
    of most negative curvature.  It stops once the step is below 1e-14 in
    both angles, the decrease the quadratic model predicts is below the
    rounding of g, or no step lowers g.  Returns (a, b, |F|, iterations);
    |F| is inf when F is undefined at the start.
    """
    at = jet(a, b)
    if at[4]:
        return a, b, math.inf, 0
    for steps in range(1, _NEWTON_STEPS + 1):
        f, (f1, f2), ((f11, f12), (_, f22)), scale, _ = at
        g, fc = abs(f) ** 2, f.conjugate()
        g1, g2 = 2.0 * (fc * f1).real, 2.0 * (fc * f2).real
        h11 = 2.0 * (f1.conjugate() * f1 + fc * f11).real
        h12 = 2.0 * (f1.conjugate() * f2 + fc * f12).real
        h22 = 2.0 * (f2.conjugate() * f2 + fc * f22).real
        if g1 or g2:
            det = h11 * h22 - h12 * h12
            moves = []
            if h11 > 0 and det > 0:  # Newton's step, where the Hessian is positive definite
                moves.append(((h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det))
            curv = (g1 * h11 + g2 * h12) * g1 + (g1 * h12 + g2 * h22) * g2
            cauchy = (g1 * g1 + g2 * g2) / curv if curv > 0 else math.inf
            k = min(cauchy, _MAX_STEP / max(abs(g1), abs(g2)))
            moves.append((-g1 * k, -g2 * k))
            # converged, or the model decrease is below the rounding of g
            decrease = -0.5 * (g1 * moves[0][0] + g2 * moves[0][1])
            if max(map(abs, moves[0])) < 1e-14 or decrease <= 16 * _EPS * abs(f) * scale:
                break
        else:  # a stationary point: a minimum unless an eigenvalue of the Hessian is negative
            low = 0.5 * (h11 + h22) - math.hypot(0.5 * (h11 - h22), h12)
            if not low < 0.0:
                break
            v = (h12, low - h11) if h12 else ((1.0, 0.0) if h11 <= h22 else (0.0, 1.0))
            k = _MAX_STEP / max(map(abs, v))
            moves = [(v[0] * k, v[1] * k), (-v[0] * k, -v[1] * k)]
        for da, db in moves:
            k = _MAX_STEP / max(abs(da), abs(db), _MAX_STEP)
            da, db = da * k, db * k
            for _ in range(_BACKTRACKS + 1):
                trial = jet(a + da, b + db)
                if not trial[4] and abs(trial[0]) ** 2 < g:
                    break
                da, db = 0.5 * da, 0.5 * db
            else:
                continue
            break
        else:
            break
        a, b, at = a + da, b + db, trial
    return a, b, abs(at[0]), steps


def newton_angle_minima(jet, t: np.ndarray, first=None):
    """Newton steps towards the minima of g = |F|^2 in one angle, all starts at once.

    jet(t) gives (F, F_t, F_tt, undefined) at the angles t; `first`, if
    given, is jet(t) at the starts, which is then not evaluated again.  Each
    of the _ANGLE_STEPS steps is Newton's, -g'/g'' with g' = 2 Re(conj(F) F_t) and
    g'' = 2 (|F_t|^2 + Re(conj(F) F_tt)), where g'' > 0, else the
    Gauss-Newton step -g'/(2 |F_t|^2), and -_ANGLE_STEP where g' = 0 and
    g'' <= 0; none is longer than _ANGLE_STEP.
    Returns (t, |F|) per start at the least |F| its iterates reached (nan
    where F is nan at the start, inf where it is undefined throughout).
    """
    t = np.array(t, dtype=float)
    for k in range(_ANGLE_STEPS + 1):
        f, f_t, f_tt, undefined = first if k == 0 and first is not None else jet(t)
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
            step = -slope / np.where(curv > 0.0, curv, np.where(slope == 0.0, 0.0, gauss))
        # a nan step (0/0: g' = 0 and g'' <= 0, a maximum or F_t = 0) becomes -_ANGLE_STEP
        t = t + np.fmin(np.fmax(step, -_ANGLE_STEP), _ANGLE_STEP)
    return best_t, best
