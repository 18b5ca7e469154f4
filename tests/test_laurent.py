import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bml import (
    PoleError,
    SigmaSeries,
    alexander,
    binomial_series,
    circle,
    evaluate,
    evaluate_grid,
    hadamard,
    hadamard_identity,
    z_fprime,
)
from oracles import central_derivative

# dyadic coefficients keep products exact in double precision
_dyadic = st.integers(-32, 32).map(lambda k: k / 16.0)
_coeff = st.builds(complex, _dyadic, _dyadic)
_series = st.builds(
    SigmaSeries,
    principal=_coeff,
    tail=st.lists(_coeff, min_size=0, max_size=8).map(lambda c: np.array(c, dtype=complex)),
)


def _same(f: SigmaSeries, g: SigmaSeries):
    assert f.principal == g.principal
    assert np.array_equal(f.tail, g.tail)


class TestEvaluate:
    def test_pure_pole(self):
        assert evaluate(SigmaSeries(1.0, []), 0.5) == 2.0

    def test_pole_plus_linear(self):
        assert evaluate(SigmaSeries(1.0, [0.0, 1.0]), 0.5j) == pytest.approx(-1.5j, abs=1e-15)

    def test_geometric_closed_form(self):
        # 1/z + sum z^(n-1) is the truncation of 1/(z(1-z))
        f = SigmaSeries(1.0, np.ones(40))
        z = 0.5
        expected = 1.0 / z + (1.0 - z**40) / (1.0 - z)
        assert evaluate(f, z) == pytest.approx(expected, abs=1e-15)
        assert abs(evaluate(f, z) - 1.0 / (z * (1.0 - z))) < 1e-11

    def test_pole_error(self):
        with pytest.raises(PoleError):
            evaluate(SigmaSeries(1.0, [1.0]), 0.0)

    def test_cancelling_terms_sum_exactly(self):
        # a running sum, compensated or not, loses both 1s under 1e100
        assert evaluate(SigmaSeries(0.0, [1.0, 1e100, 1.0, -1e100]), 1.0) == 2.0

    def test_linearity(self, rng):
        for _ in range(20):
            f = SigmaSeries(1.0, rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
            g = SigmaSeries(-0.5j, rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            z = complex(rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            assert abs(evaluate(f + g, z) - (evaluate(f, z) + evaluate(g, z))) <= 1e-13

    def test_grid_matches_scalar(self, rng):
        f = SigmaSeries(1.0, rng.normal(size=12) + 1j * rng.normal(size=12))
        zs = rng.uniform(0.1, 0.9, 7) * np.exp(2j * np.pi * rng.uniform(size=7))
        grid_vals = evaluate_grid(f, zs)
        for z, v in zip(zs, grid_vals):
            assert abs(v - evaluate(f, complex(z))) < 1e-13


def _horner(f: SigmaSeries, zs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zs)
    for c in f.tail[::-1]:
        acc = acc * zs + c
    return acc + f.principal / zs


def _ifft_calls(monkeypatch):
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
    return calls


class TestEvaluateGridOnCircles:
    """`evaluate_grid` takes one FFT on `circle(r, n)`, 0 < r <= 1, bit for
    bit; every other array goes through Horner's rule unchanged."""

    @staticmethod
    def _decaying(rng, order, principal=1.0 - 0.5j):
        c = rng.normal(size=order) + 1j * rng.normal(size=order)
        return SigmaSeries(principal, c / (1.0 + np.arange(order)) ** 1.5)

    @pytest.mark.parametrize(
        "order,samples,r",
        [(10, 16, 0.9), (16, 16, 0.99), (256, 256, 0.99), (1024, 16, 0.99), (1024, 256, 0.99),
         (1024, 256, 1.0), (1024, 256, 1e-3), (40, 64, 0.5)],
    )
    def test_matches_pointwise_evaluate(self, rng, monkeypatch, order, samples, r):
        # N < n, N = n and N >> n fold differently; at r = 1e-3, r^m underflows
        f = self._decaying(rng, order)
        calls = _ifft_calls(monkeypatch)
        zs = circle(r, samples)
        got = evaluate_grid(f, zs)
        assert len(calls) == 1
        scale = np.abs(f.tail) @ r ** np.arange(order) + abs(f.principal) / r
        assert np.abs(got - [evaluate(f, z) for z in zs]).max() <= 1e-13 * scale

    def test_principal_only(self, monkeypatch):
        f = SigmaSeries(2.0 - 1.0j, [])
        calls = _ifft_calls(monkeypatch)
        zs = circle(0.7, 16)
        got = evaluate_grid(f, zs)
        assert len(calls) == 1
        assert np.abs(got - (2.0 - 1.0j) / zs).max() <= 1e-13 * abs(f.principal) / 0.7

    def test_circle_is_radius_times_the_roots_of_unity(self):
        zs = circle(0.99, 256)
        assert np.array_equal(zs, 0.99 * np.exp(2j * np.pi * np.arange(256) / 256))
        zs[0] = 0.0  # a fresh array each call: the shared table stays intact
        assert circle(0.99, 256)[0] == 0.99

    def test_other_points_keep_horner_bit_for_bit(self, rng, monkeypatch):
        f = self._decaying(rng, 64)
        moved = circle(0.9, 64)
        moved[5] = complex(np.nextafter(moved[5].real, 2.0), moved[5].imag)
        inputs = [
            circle(0.9, 64) * np.exp(1j * np.pi / 64),  # rotated half a step
            moved,  # one point one ulp off the circle
            0.3 + circle(0.1, 64),  # a ring about z0 != 0; its first point is real in (0, 1]
            circle(1.5, 64),  # r > 1
            circle(0.9, 64).reshape(4, 16),  # a 2-D array of the circle's points
        ]
        calls = _ifft_calls(monkeypatch)
        for zs in inputs:
            assert np.array_equal(evaluate_grid(f, zs), _horner(f, zs))
        assert calls == []


class TestHadamard:
    @given(f=_series)
    @settings(max_examples=60)
    def test_identity_element(self, f):
        _same(hadamard(f, hadamard_identity(f.order)), f)
        _same(hadamard(hadamard_identity(f.order), f), f)

    def test_forced_example(self):
        f = SigmaSeries(1.0, [1.0, 2.0])
        g = SigmaSeries(1.0, [3.0, 4.0])
        out = hadamard(f, g)
        assert out.principal == 1.0
        assert np.array_equal(out.tail, np.array([3.0, 8.0], dtype=complex))

    @given(f=_series, g=_series)
    @settings(max_examples=80)
    def test_commutative_exact(self, f, g):
        _same(hadamard(f, g), hadamard(g, f))

    @given(f=_series, g=_series, h=_series)
    @settings(max_examples=80)
    def test_associative_exact(self, f, g, h):
        _same(hadamard(hadamard(f, g), h), hadamard(f, hadamard(g, h)))

    def test_truncates_to_shorter(self):
        f = SigmaSeries(1.0, [1.0, 2.0, 3.0])
        g = SigmaSeries(1.0, [5.0])
        assert hadamard(f, g).order == 1


class TestDerivativeTransforms:
    def test_z_fprime_examples(self):
        _same(z_fprime(SigmaSeries(1.0, [])), SigmaSeries(-1.0, []))
        _same(z_fprime(SigmaSeries(1.0, [0.0, 1.0])), SigmaSeries(-1.0, [0.0, 1.0]))
        _same(z_fprime(SigmaSeries(1.0, [0.0, 0.0, 3.0])), SigmaSeries(-1.0, [0.0, 0.0, 6.0]))

    def test_z_fprime_matches_numeric_derivative(self, rng):
        f = SigmaSeries(1.0, rng.normal(size=8) + 1j * rng.normal(size=8))
        for _ in range(5):
            z = complex(rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.uniform()))
            numeric = z * central_derivative(lambda w: evaluate(f, w), z)
            assert abs(evaluate(z_fprime(f), z) - numeric) < 1e-6

    def test_alexander_examples(self):
        _same(alexander(SigmaSeries(1.0, [])), SigmaSeries(1.0, []))
        _same(alexander(SigmaSeries(1.0, [5.0])), SigmaSeries(1.0, [0.0]))
        # (1-z)^2/z maps to 1/z - z
        _same(alexander(SigmaSeries(1.0, [-2.0, 1.0])), SigmaSeries(1.0, [0.0, -1.0]))

    @given(f=_series)
    @settings(max_examples=60)
    def test_alexander_kills_constant_term(self, f):
        out = alexander(f)
        if out.order >= 1:
            assert out.tail[0] == 0.0


class TestBinomialSeries:
    def test_square(self):
        d = binomial_series(2.0, -1.0, 5)
        assert np.array_equal(d, np.array([1, -2, 1, 0, 0, 0], dtype=complex))

    def test_geometric(self):
        d = binomial_series(-1.0, -1.0, 6)
        assert np.array_equal(d, np.ones(7, dtype=complex))

    def test_sqrt_coefficients(self):
        d = binomial_series(0.5, 1.0, 3)
        assert d[1] == pytest.approx(0.5)
        assert d[2] == pytest.approx(-0.125)

    @given(m=st.integers(0, 10))
    @settings(max_examples=20)
    def test_integer_exponent_terminates(self, m):
        d = binomial_series(float(m), -1.0, m + 6)
        assert np.all(d[m + 1 :] == 0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            binomial_series(1.0, 1.0, -1)


class TestSeriesContainer:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SigmaSeries(1.0, [float("nan")])
        with pytest.raises(ValueError):
            SigmaSeries(float("inf"), [1.0])

    def test_coefficient_indexing(self):
        f = SigmaSeries(1.0, [2.0, 3.0])
        assert f.coefficient(1) == 2.0
        assert f.coefficient(5) == 0.0
        with pytest.raises(ValueError):
            f.coefficient(0)

    def test_with_coefficient(self):
        f = SigmaSeries(1.0, [2.0, 3.0])
        g = f.with_coefficient(2, -1.0)
        assert g.coefficient(2) == -1.0
        assert f.coefficient(2) == 3.0
