"""Independent reference computations used by the tests.

Nothing here shares code with the library: Gamma comes from a shifted
Stirling-Bernoulli series (and the C library), series values from brute
partial summation over libm's gamma, derivatives from central
differences, polynomial preimages from one numpy.roots call per point,
the convolution scan minimum from one dense matrix and np.argmin,
series composition by Horner's rule over full-length convolutions,
sign bisection by a fixed 80 steps over a caller-supplied indicator,
the convolution minimum by a 27-point pattern search over a
caller-supplied modulus, and the convolution verdict by all three over
the whole polar grid.
"""

import math

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


def compose_reference(outer, inner, order):
    """Coefficients of outer(inner(z)) to z^order: Horner's rule, each step
    a full-length np.convolve with the zero-padded inner series."""
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[-1]
    for c in outer[-2::-1]:
        acc = np.convolve(acc, inner)[: order + 1]
        acc[0] += c
    return acc


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
