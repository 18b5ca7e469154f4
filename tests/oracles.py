"""Independent reference computations used by the tests.

Nothing here shares code with the library: Gamma comes from a shifted
Stirling-Bernoulli series (and the C library), series values from brute
partial summation over libm's gamma, derivatives from central
differences, polynomial preimages from one numpy.roots call per point,
the convolution scan minimum from one dense matrix and np.argmin,
member images by formal composition (Horner's rule over full-length
convolutions) and exponentiation, in floats or exactly in integers,
sign bisection by a fixed 80 steps over a caller-supplied indicator,
zeros in two real unknowns by Newton's method over every start at once,
the convolution minimum by a 27-point pattern search over a
caller-supplied modulus, the convolution verdict by all three over the
whole polar grid (`polar_points`), and the direct verdict by the smallest
region margin over the whole polar grid.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

# B_2, B_4, ..., B_16
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def gamma_stirling(x: float) -> float:
    """Gamma by argument shifting plus the Stirling-Bernoulli series.

    Shift until the argument reaches 40, expand log-Gamma there, and
    divide the shift product back out in log space.  Good to ~1e-13
    relative on (0, 170].
    """
    shift = 0
    y = x
    while y < 40.0:
        y += 1.0
        shift += 1
    lg = (y - 0.5) * math.log(y) - y + 0.5 * math.log(2.0 * math.pi)
    for k, b in enumerate(_BERNOULLI, start=1):
        lg += b / ((2 * k) * (2 * k - 1) * y ** (2 * k - 1))
    for j in range(shift):
        lg -= math.log(x + j)
    return math.exp(lg)


def brute_series_sum(K, theta, a, s, z, max_terms=400):
    """Brute-force partial summation of z^n/(Gamma(K n + theta)(n + a)^s).

    Sums with libm's gamma until the partial sums stagnate at machine
    precision.
    """
    total = 0j
    zp = 1.0 + 0j
    for n in range(max_terms):
        den = math.gamma(K * n + theta)
        if s != 0.0:
            den *= (n + a) ** s
        term = zp / den
        new = total + term
        if n > 2 and abs(term) <= 1e-18 * max(abs(new), 1e-30):
            return new
        total = new
        zp *= z
    return total


def brute_tail(K, theta, a, s, radius, start, count=60):
    """Sum of the absolute series terms for n = start .. start+count."""
    acc = 0.0
    for n in range(start, start + count):
        den = math.gamma(K * n + theta)
        if s != 0.0:
            den *= (n + a) ** s
        acc += radius**n / den
    return acc


def central_derivative(fn, z, h=1e-6, order=1):
    """Central-difference derivative of an analytic callable."""
    if order == 1:
        return (fn(z + h) - fn(z - h)) / (2.0 * h)
    if order == 2:
        return (fn(z + h) - 2.0 * fn(z) + fn(z - h)) / (h * h)
    raise ValueError(order)


def preimage_roots_reference(coefficients, t):
    """Roots of t_0 + t_1 x + ... + t_M x^M = t, one numpy.roots call per t.

    numpy.roots drops vanishing leading coefficients, so a trailing zero in
    `coefficients` lowers the degree.
    """
    out = []
    for value in t:
        poly = np.array(coefficients, dtype=complex)
        poly[0] -= value
        out.append(np.roots(poly[::-1]))
    return out


def dense_scan_minimum(base, dirv, ws, skip):
    """(value, i, j) of the smallest |base[i] + dirv[i] ws[j]|, skipped
    columns excluded, from the whole matrix at once and np.argmin."""
    vals = np.abs(base[:, None] + dirv[:, None] * ws[None, :])
    vals[:, skip] = np.inf
    fi = int(np.argmin(vals.ravel()))
    i, j = divmod(fi, len(ws))
    return float(vals.ravel()[fi]), i, j


def reconstruct_reference(lam, theta, omega_coefficients, order):
    """Image coefficients e_0..e_order of the spirallike member that the
    Schwarz coefficients describe, by formal composition and exponentiation:
    the Taylor series of Theta composed with w by Horner's rule over
    full-length np.convolve steps, p_k = c [Theta(w)]_k / k with
    c = -e^{-i lam} cos(lam), and m e_m = sum_{k<=m} k p_k e_{m-k}."""
    outer = np.zeros(order + 1, dtype=complex)
    if hasattr(theta, "A"):
        outer[0] = 1.0
        outer[1:] = (theta.A - theta.B) * (-theta.B) ** np.arange(order)
    else:
        src = np.asarray(theta.coefficients, dtype=complex)[: order + 1]
        outer[: len(src)] = src
    inner = np.zeros(order + 1, dtype=complex)
    src = np.asarray(omega_coefficients, dtype=complex)[:order]
    inner[1 : len(src) + 1] = src
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[-1]
    for t in outer[-2::-1]:
        acc = np.convolve(acc, inner)[: order + 1]
        acc[0] += t
    k = np.arange(1, order + 1)
    p = -cmath.exp(-1j * lam) * math.cos(lam) * acc[1:] / k
    e = np.zeros(order + 1, dtype=complex)
    e[0] = 1.0
    for m in range(1, order + 1):
        e[m] = np.sum(k[:m] * p[:m] * e[m - 1 :: -1]) / m
    return e


def exact_image_coefficients(theta, omega_coefficients, order):
    """e_0..e_order of the same series for lam = 0 and real data, exactly,
    as (numerator, denominator) integer pairs.

    Every input float is a dyadic rational, and so is each q_k = -[Theta(w)]_k
    (= k p_k): Theta(w) - 1 comes from exact power-series division,
    (A - B) w / (1 + B w), or from Horner's rule.  With R = 2^r such that
    every Q_k = q_k R^k is an integer, E_m = m! R^m e_m obeys the integer
    recurrence E_m = sum_{k<=m} Q_k (m-1)!/(m-k)! E_{m-k}, so no rational
    ever needs reducing."""
    w = [Fraction(0)] + [Fraction(c.real) for c in omega_coefficients]
    d = len(w) - 1

    def times_w(s, m):  # [w s]_m
        return sum(w[j] * s[m - j] for j in range(1, min(m, d) + 1))

    q = [Fraction(0)] * (order + 1)
    if hasattr(theta, "A"):
        a, b = Fraction(theta.A), Fraction(theta.B)
        for m in range(1, order + 1):  # (1 + B w) q = -(A - B) w
            q[m] = -(a - b) * (w[m] if m <= d else 0) - b * times_w(q, m)
    else:
        comp = [Fraction(0)] * (order + 1)
        for t in theta.coefficients[::-1]:
            comp = [Fraction(t.real)] + [times_w(comp, m) for m in range(1, order + 1)]
        q[1:] = [-c for c in comp[1:]]
    assert all(v.denominator & (v.denominator - 1) == 0 for v in q)  # dyadic
    r = max(math.ceil((v.denominator.bit_length() - 1) / k) for k, v in enumerate(q) if k)
    big = [v.numerator * (1 << (r * k - v.denominator.bit_length() + 1)) for k, v in enumerate(q)]
    e = [1]
    for m in range(1, order + 1):
        e.append(sum(big[k] * math.perm(m - 1, k - 1) * e[m - k] for k in range(1, m + 1)))
    return [(num, math.factorial(m) << (r * m)) for m, num in enumerate(e)]


def bisect_reference(indicator, za, zb, sa, steps=80):
    """Parallel sign bisection of segments [za, zb], always `steps` steps.

    `indicator(mid)` gives the signed value at the midpoints (non-finite
    counts as +1); a segment keeps its left half where the sign differs
    from `sa` at its left end.
    """
    za = np.array(za, dtype=complex)
    zb = np.array(zb, dtype=complex)
    sa = np.array(sa, dtype=float)
    for _ in range(steps):
        mid = 0.5 * (za + zb)
        sm = indicator(mid)
        sm = np.where(np.isfinite(sm), sm, 1.0)
        left = sa * sm < 0
        za, zb = np.where(left, za, mid), np.where(left, mid, zb)
    return 0.5 * (za + zb)


def newton_zeros_reference(jet, rho, t, r_max, zero_steps=8, max_step=0.1):
    """Zeros of a complex F(rho, t) in the real unknowns rho and t, every start at once.

    jet(rho, t) gives (F, F_rho, F_t, scale, undefined) for the batch.  A
    step solves F_rho d_rho + F_t d_t = -F by Cramer's rule, keeps rho in
    [rho/2, r_max] and |d_t| <= max_step.  A start is done once
    |F| <= 4 eps scale, or F is undefined or did not fall.  Returns per
    start (rho, t, |F|, scale) at its least |F|, and steps.
    """
    eps = np.finfo(float).eps
    best = [rho, t, np.full(len(rho), math.inf), np.zeros(len(rho))]
    for steps in range(zero_steps + 1):
        f, f_rho, f_t, scale, undefined = jet(rho, t)
        size = np.where(undefined, math.inf, np.abs(f))
        live = size < best[2]
        best = [np.where(live, new, old) for new, old in zip((rho, t, size, scale), best)]
        live &= size > 4 * eps * scale
        if steps == zero_steps or not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (f_rho * f_t.conjugate()).imag
            d_rho, d_t = -(f * f_t.conjugate()).imag / c, (f * f_rho.conjugate()).imag / c
        rho = np.where(live, np.clip(rho + d_rho, 0.5 * rho, r_max), rho)
        t = np.where(live, t + np.clip(d_t, -max_step, max_step), t)
    return (*best, steps)


# offsets of the 27-point pattern over (Re z, Im z, direction angle)
_STENCIL = np.array(
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)], dtype=float
)


def pattern_search_reference(modulus, z0, t0, step_z, step_t, r_max, delta, iterations=250):
    """(value, z, t) of a pattern search for a small modulus(z, t) near (z0, t0).

    `modulus(zs, ts)` gives |F| at interior points zs and directions e^{i ts}
    (inf where degenerate).  The search recentres on the best of 27 points
    of a (Re z, Im z, t) stencil when it improves and halves the steps
    otherwise, clamping z to 1e-9 <= |z| <= r_max; it stops below
    0.05 delta, once both steps are negligible, or after `iterations`.
    """
    z, t = complex(z0), float(t0)
    val = float(modulus(np.array([z]), np.array([t]))[0])
    hz, ht = float(step_z), float(step_t)
    for _ in range(iterations):
        if val < 0.05 * delta or (hz < 1e-15 and ht < 1e-14):
            break
        cz = z + (_STENCIL[:, 0] + 1j * _STENCIL[:, 1]) * hz
        ct = t + _STENCIL[:, 2] * ht
        m = np.abs(cz)
        cz = np.where(m > r_max, cz * (r_max / np.maximum(m, 1e-300)), cz)
        cz = np.where(m < 1e-9, 1e-9, cz)
        v = modulus(cz, ct)
        k = int(np.argmin(v))
        if v[k] < val:
            val, z, t = float(v[k]), complex(cz[k]), float(ct[k])
        else:
            hz *= 0.5
            ht *= 0.5
    return val, z, t


def polar_points(grid):
    """The polar grid of `grid`: r e^{2 pi i k / angles} for r in
    `grid.radii`, then k = 0..angles-1 (radius-major)."""
    roots = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    return np.concatenate([r * roots for r in grid.radii])


def grid_convolution_reference(zs, xs, n_radii, values, weights, indicator, nearest, r_max, delta):
    """(verdict, value, z, x) of the convolution check decided over a polar grid.

    `zs` are the grid's samples, radius-major with `len(zs) // n_radii`
    angles per circle, and `xs` the boundary directions.  The callables
    give the series pair (base, dir) at points, the weights and degenerate
    mask (w, skip) of directions, the signed inside indicator at points,
    and the circle direction nearest to annulling F = base + w dir at
    points (nan where none).  The smallest |F| over all (point, direction)
    pairs, one circle at a time, is lowered by the zeros that 80-step
    bisection locates on every grid edge (angular, wrapping, then radial)
    whose ends the indicator puts on opposite sides, each paired with its
    nearest direction, and by the samples where the indicator is exactly
    0.  With nothing below `delta`, a pattern search from the best pair
    lowers it further.
    """

    def modulus(points, ts):
        ws, skip = weights(np.exp(1j * ts))
        base, dirv = values(points)
        return np.where(skip, np.inf, np.abs(base + ws * dirv))

    n_angles = len(zs) // n_radii
    ws, skip = weights(xs)
    best = (math.inf, 0j, 0j)
    for row in zs.reshape(n_radii, n_angles):
        value, i, j = dense_scan_minimum(*values(row), ws, skip)
        if value < best[0]:
            best = (value, complex(row[i]), complex(xs[j]))
    ind = indicator(zs)
    sign = np.where(np.isfinite(ind), np.sign(ind), 0.0).reshape(n_radii, n_angles)
    edges = []
    for r in range(n_radii):
        for k in range(n_angles):
            if sign[r, k] * sign[r, (k + 1) % n_angles] < 0:
                edges.append((r * n_angles + k, r * n_angles + (k + 1) % n_angles))
    for r in range(n_radii - 1):
        for k in range(n_angles):
            if sign[r, k] * sign[r + 1, k] < 0:
                edges.append((r * n_angles + k, (r + 1) * n_angles + k))
    hits = zs[ind == 0.0]
    if edges:
        ia, ib = np.array(edges).T
        hits = np.concatenate([hits, bisect_reference(indicator, zs[ia], zs[ib], ind[ia])])
    if len(hits):
        x = nearest(hits)
        ok = np.isfinite(x)
        vals = np.where(ok, modulus(hits, np.angle(np.where(ok, x, 1.0))), np.inf)
        k = int(np.argmin(vals))
        if vals[k] < best[0]:
            best = (float(vals[k]), complex(hits[k]), complex(x[k]))
    if best[0] >= delta:
        step_z = max(r_max / n_radii, r_max * 2.0 * np.pi / n_angles)
        val, z, t = pattern_search_reference(
            modulus, best[1], np.angle(best[2]), step_z, 2.0 * np.pi / len(xs), r_max, delta
        )
        if val < best[0]:
            best = (val, z, complex(np.exp(1j * t)))
    return ("member" if best[0] >= delta else "non-member"), *best


def grid_direct_reference(zs, phase, margins):
    """(verdict, margin, z) of the direct check decided over the polar grid
    samples `zs`: `phase(zs)` gives the phase ratios and the mask of
    singular samples, `margins(q)` the signed distances of phase ratios to
    the target-region boundary.  The smallest margin over the samples that
    are not singular is the verdict's; more than 1% singular samples give
    the verdict "inconclusive"."""
    q, skip = phase(zs)
    if skip.sum() > 0.01 * len(zs):
        return "inconclusive", math.nan, complex(math.nan, math.nan)
    values = np.where(skip, np.inf, margins(q))
    i = int(np.argmin(values))
    return ("member" if values[i] > 0.0 else "non-member"), float(values[i]), complex(zs[i])
