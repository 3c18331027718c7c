"""Grid representation, Fourier coefficients, Dirichlet kernel, partial sums."""

import math

import mpmath
import numpy as np
import pytest

from logmeans.grid import GridFunction2D, axis_points
from logmeans.means import pointwise_mean
from logmeans.fourier import (
    BandwidthError,
    GridOp,
    SpectralCoeffs,
    angle_table,
    dirichlet_kernel,
    dirichlet_matrix,
    evaluate_grid,
    fourier_coeffs,
    quad_partial_sum,
    rect_partial_sum,
    reduce_angle,
)

from conftest import dense_fourier_coeffs, dense_synthesis, random_band_limited


# ---------------------------------------------------------------- grid type

def test_grid_size_must_be_power_of_two():
    for bad in (3, 6, 12, 100):
        with pytest.raises(ValueError):
            GridFunction2D(values=np.zeros((bad, bad)))
    GridFunction2D(values=np.zeros((4, 4)))  # smallest legal


def test_real_flag_rejects_complex_samples():
    values = np.zeros((8, 8), dtype=complex)
    values[1, 2] = 1e-6j
    with pytest.raises(ValueError):
        GridFunction2D(values=values, is_real=True)
    GridFunction2D(values=values, is_real=False)


def test_grid_dtype_follows_the_real_flag():
    values = np.zeros((8, 8), dtype=complex)
    values[1, 2] = 2.0 + 1e-13j
    real = GridFunction2D(values=values, is_real=True)
    assert real.values.dtype == np.float64 and real.values.flags.c_contiguous
    assert real.values[1, 2] == 2.0
    assert GridFunction2D(values=values.real).values.dtype == np.complex128
    assert GridFunction2D.constant(3.0, 8).values.dtype == np.float64
    assert GridFunction2D.from_function(lambda x, y: np.cos(x) * y, 8).values.dtype == np.float64
    assert GridFunction2D.from_function(lambda x, y: np.exp(1j * x) + y, 8).values.dtype == np.complex128


def test_grid_values_are_read_only():
    # the magnitude histogram is cached on the grid, so its samples must not change
    grid = GridFunction2D(values=np.ones((8, 8)), is_real=True)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 2.0
    mags, counts = grid.magnitude_histogram
    assert mags.tolist() == [1.0] and counts.tolist() == [64]
    assert grid.magnitude_histogram is grid.magnitude_histogram


# ---------------------------------------------------------- dirichlet kernel

def test_dirichlet_order_zero_is_half_everywhere():
    assert dirichlet_kernel(0, 1.0) == pytest.approx(0.5, abs=1e-15)
    ts = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_allclose(dirichlet_kernel(0, ts), 0.5, atol=1e-12)


def test_dirichlet_limit_at_zero():
    assert dirichlet_kernel(3, 0.0) == pytest.approx(3.5, abs=0.0)
    # every multiple of 2*pi takes the same limit
    assert dirichlet_kernel(7, 2 * math.pi) == dirichlet_kernel(7, -4 * math.pi) == 7.5
    np.testing.assert_array_equal(dirichlet_kernel(7, np.array([2 * math.pi, -4 * math.pi])), 7.5)


def test_dirichlet_near_pi():
    # D_1(pi) = sin(3*pi/2) / (2 sin(pi/2)) = -1/2
    assert dirichlet_kernel(1, math.pi - 1e-9) == pytest.approx(-0.5, abs=1e-8)
    assert dirichlet_kernel(1, math.pi) == pytest.approx(-0.5, abs=1e-12)


def test_dirichlet_matches_cosine_expansion(rng):
    # D_k(t) = 1/2 + sum_{j=1}^{k} cos(jt), an independent route
    for _ in range(20):
        k = int(rng.integers(0, 12))
        t = float(rng.uniform(-math.pi, math.pi))
        expected = 0.5 + sum(math.cos(j * t) for j in range(1, k + 1))
        assert dirichlet_kernel(k, t) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- angle tables

def _sampled_orders(count, rng):
    """Indices into an order range to check: both ends, the edges of the first and last blocks, and random ones."""
    step = math.isqrt(count - 1) + 1
    edges = [0, 1, step - 1, step, step + 1, count - step - 1, count - step, count - 2, count - 1]
    return np.unique(np.clip(np.concatenate([edges, rng.integers(0, count, 48)]), 0, count - 1))


@pytest.mark.parametrize("N", [3, 64, 1024, 65536])
@pytest.mark.parametrize("cosine", [False, True])
@pytest.mark.parametrize("start, offset", [(0, 0.5), (1, 0.0)])
def test_angle_table_matches_mpmath(N, cosine, start, offset, rng):
    # each sampled entry lies within 2 eps (1 + |(k + offset) u|) of the
    # 40-digit value at the float point u, and each point's row is the same
    # whether it is tabled alone or with the others
    us = np.concatenate([[math.pi, -math.pi, 1e-6, 2 * math.pi - 1e-6], rng.uniform(-2 * math.pi, 2 * math.pi, 4)])
    table = angle_table(us, start, N, offset, cosine)
    assert table.shape == (len(us), N)
    for p, u in enumerate(us):
        assert np.array_equal(angle_table(us[p : p + 1], start, N, offset, cosine)[0], table[p])
    trig = mpmath.cos if cosine else mpmath.sin
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for i in _sampled_orders(N, rng):
            order = mpmath.mpf(start + int(i)) + mpmath.mpf(offset)
            for p, u in enumerate(us):
                err = abs(mpmath.mpf(float(table[p, i])) - trig(order * mpmath.mpf(float(u))))
                assert err <= 2 * eps * (1 + abs(float(order) * u)), (N, int(i), float(u))


def test_one_order_angle_table_is_np_sin_bit_for_bit(rng):
    # a one-order range makes no angle addition, so dirichlet_kernel's values are the direct formula's
    us = np.concatenate([[math.pi, -math.pi, 0.0, 1e-6, 2 * math.pi - 1e-6], rng.uniform(-50.0, 50.0, 200)])
    for k in (0, 1, 7, 1000, 65535):
        for offset in (0.0, 0.5):
            assert np.array_equal(angle_table(us, k, 1, offset)[:, 0], np.sin((k + offset) * us))
            assert np.array_equal(angle_table(us, k, 1, offset, cosine=True)[:, 0], np.cos((k + offset) * us))
    ts = rng.uniform(-3.0, 3.0, 50)
    r, half_sin, _ = reduce_angle(ts)
    for k in (0, 5, 300):
        assert np.array_equal(dirichlet_kernel(k, ts), np.sin((k + 0.5) * r) / (2.0 * half_sin))


def test_kernel_tables_need_a_range_of_consecutive_orders():
    ts = np.array([0.3, 1.2])
    for orders in (np.array([0, 2, 3]), np.array([3, 2]), np.array([], dtype=int), np.arange(4).reshape(2, 2)):
        with pytest.raises(ValueError, match="consecutive"):
            dirichlet_matrix(orders, ts)
    with pytest.raises(ValueError, match="at least one order"):
        angle_table(ts, 0, 0)


# --------------------------------------------------------- fourier_coeffs

def test_coeffs_of_constant():
    f = GridFunction2D.constant(1.0, 32)
    c = fourier_coeffs(f, 4, 4)
    assert c.get(0, 0) == pytest.approx(1.0, abs=1e-12)
    others = c.coeffs.copy()
    others[4, 4] = 0.0
    assert np.max(np.abs(others)) <= 1e-12


def test_coeffs_of_single_exponential():
    f = GridFunction2D.from_function(lambda x, y: np.exp(2j * x) * np.exp(-1j * y), 64)
    c = fourier_coeffs(f, 4, 4)
    assert c.get(2, -1) == pytest.approx(1.0, abs=1e-12)
    mask = np.abs(c.coeffs) > 1e-12
    assert mask.sum() == 1


def test_coeffs_of_cosine():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) + 0.0 * y, 32, real=True)
    c = fourier_coeffs(f, 2, 2)
    assert c.get(1, 0) == pytest.approx(0.5, abs=1e-12)
    assert c.get(-1, 0) == pytest.approx(0.5, abs=1e-12)


def test_coeffs_rejects_nyquist():
    f = GridFunction2D.constant(1.0, 16)
    with pytest.raises(BandwidthError):
        fourier_coeffs(f, 8, 2)
    with pytest.raises(BandwidthError):
        fourier_coeffs(f, 2, 8)
    fourier_coeffs(f, 7, 7)


def test_quadrature_exactness_recovers_random_polynomials(rng):
    grid, coeffs = random_band_limited(rng, 5, 32)
    recovered = fourier_coeffs(grid, 5, 5)
    np.testing.assert_allclose(recovered.coeffs, coeffs.coeffs, atol=1e-10)


def test_hermitian_symmetry_for_real_inputs(rng):
    for _ in range(5):
        grid, _ = random_band_limited(rng, 4, 32, real=True)
        c = fourier_coeffs(grid, 6, 6)
        assert c.hermitian_defect() <= 1e-10


# ------------------------------------------------------------- partial sums

def test_rect_sum_of_constant_is_one(rng):
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 5, 5)
    for _ in range(5):
        M, N = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        x, y = rng.uniform(-math.pi, math.pi, 2)
        assert rect_partial_sum(c, M, N, float(x), float(y)) == pytest.approx(1.0, abs=1e-12)


def test_rect_sum_excludes_out_of_window_frequency():
    f = GridFunction2D.from_function(lambda x, y: np.exp(2j * x) + 0.0 * y, 32)
    c = fourier_coeffs(f, 4, 4)
    assert rect_partial_sum(c, 1, 1, 0.3, -0.7) == pytest.approx(0.0, abs=1e-12)


def test_rect_sum_reproduces_cos_cos_at_origin():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) * np.cos(y), 32, real=True)
    c = fourier_coeffs(f, 2, 2)
    assert rect_partial_sum(c, 1, 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_rect_sum_bandwidth_error():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 3, 3)
    with pytest.raises(BandwidthError):
        rect_partial_sum(c, 4, 0, 0.0, 0.0)


def test_rect_sum_linearity(rng):
    ga, ca = random_band_limited(rng, 3, 16)
    gb, cb = random_band_limited(rng, 3, 16)
    a, b = 1.7, -0.4
    mix = SpectralCoeffs(coeffs=a * ca.coeffs + b * cb.coeffs, bandwidth_m=3, bandwidth_n=3)
    for _ in range(10):
        x, y = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        lhs = rect_partial_sum(mix, 2, 3, x, y)
        rhs = a * rect_partial_sum(ca, 2, 3, x, y) + b * rect_partial_sum(cb, 2, 3, x, y)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_quad_sum_reproduces_polynomial_and_degenerate_order(rng):
    grid, coeffs = random_band_limited(rng, 3, 32)
    for _ in range(5):
        x, y = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        direct = sum(
            coeffs.get(m, n) * np.exp(1j * (m * x + n * y))
            for m in range(-3, 4)
            for n in range(-3, 4)
        )
        assert quad_partial_sum(coeffs, 3, x, y) == pytest.approx(direct, abs=1e-10)
    assert quad_partial_sum(coeffs, 0, 0.4, 0.5) == pytest.approx(coeffs.get(0, 0), abs=0.0)


def test_quad_sum_of_step_against_1d_oracle():
    # f(x, y) = 1 on x in [0, pi): y-independent, so S_{8,8} at any y equals
    # the 1D Dirichlet partial sum of the sampled step at x.
    G = 64
    f = GridFunction2D.from_function(lambda x, y: np.where(x >= 0.0, 1.0, 0.0) + 0.0 * y, G, real=True)
    c = fourier_coeffs(f, 8, 8)
    pts = axis_points(G)
    samples = np.where(pts >= 0.0, 1.0, 0.0)
    x = math.pi / 2
    oracle = 0.0j
    for m in range(-8, 9):
        coeff_1d = np.sum(samples * np.exp(-1j * m * pts)) / G
        oracle += coeff_1d * np.exp(1j * m * x)
    for y in (0.0, 1.1, -2.0):
        val = quad_partial_sum(c, 8, x, y)
        assert val == pytest.approx(complex(oracle), abs=1e-12)


# ------------------------------------------------------------ grid evaluation

def test_evaluate_grid_constant_under_rect():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 2, 2)
    out = evaluate_grid(c, GridOp.rect(1, 1))
    np.testing.assert_allclose(out.values, 1.0, atol=1e-12)


def test_evaluate_grid_reproduces_low_degree_polynomial(rng):
    grid, _ = random_band_limited(rng, 1, 16)
    wide = fourier_coeffs(grid, 4, 4)
    out = evaluate_grid(wide, GridOp.rect(4, 4))
    np.testing.assert_allclose(out.values, grid.values, atol=1e-10)


def test_evaluate_grid_matches_pointwise_quad_sums(rng):
    # each op's weights of S_{0,0}..S_{reach,reach}, as the means are defined;
    # the grid path's radial profile must agree with the partial-sum-by-partial-sum mean
    grid, coeffs = random_band_limited(rng, 4, 32)
    pts = axis_points(32)
    defined_weights = {
        GridOp.quad(3): [0, 0, 0, 1],
        GridOp.norlund_log(1): [1],
        GridOp.norlund_log(5): [1 / 5, 1 / 4, 1 / 3, 1 / 2, 1],
        GridOp.marcinkiewicz(1): [0, 1],
        GridOp.marcinkiewicz(4): [0, 1, 1, 1, 1],
        GridOp.riesz_log(2): [0, 1],
        GridOp.riesz_log(5): [0, 1, 1 / 2, 1 / 3, 1 / 4],
    }
    for op, weights in defined_weights.items():
        np.testing.assert_array_equal(op.weights(), weights, err_msg=str(op))
        out = evaluate_grid(coeffs, op)
        for i, j in rng.integers(0, 32, size=(100, 2)):
            expected = pointwise_mean(coeffs, op, float(pts[i]), float(pts[j]))
            assert out.values[i, j] == pytest.approx(expected, abs=1e-12), op


def test_evaluate_grid_requires_grid_size():
    c = SpectralCoeffs(coeffs=np.zeros((3, 3), dtype=complex), bandwidth_m=1, bandwidth_n=1)
    with pytest.raises(ValueError):
        evaluate_grid(c, GridOp.rect(1, 1))
    evaluate_grid(c, GridOp.rect(1, 1), grid_size=8)


# ------------------------------------------------- FFT against the dense DFT

def _random_coeffs(rng, bandwidth_m, bandwidth_n, source_grid=None):
    shape = (2 * bandwidth_m + 1, 2 * bandwidth_n + 1)
    return SpectralCoeffs(coeffs=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                          bandwidth_m=bandwidth_m, bandwidth_n=bandwidth_n, source_grid=source_grid)


def _dense_op_values(c, op, G):
    """Reference values of ``op`` on the G-point grid: the weighted dense syntheses of its partial sums."""
    def window(M, N):
        return c.coeffs[c.bandwidth_m - M : c.bandwidth_m + M + 1, c.bandwidth_n - N : c.bandwidth_n + N + 1]

    if op.kind == "rect":
        return dense_synthesis(window(*op.reach()), G)
    w = op.weights()
    return sum(wj * dense_synthesis(window(j, j), G) for j, wj in enumerate(w) if wj) / w.sum()


@pytest.mark.parametrize("G", [8, 16, 32])
def test_fft_coeffs_match_dense_dft(G, rng):
    values = rng.normal(size=(G, G)) + 1j * rng.normal(size=(G, G))
    real_values = rng.normal(size=(G, G))
    # a complex grid takes fft2; a real one rfft2, mirrored into exactly Hermitian coefficients
    for f in (GridFunction2D(values=values), GridFunction2D(values=real_values, is_real=True)):
        for M, N in [(G // 2 - 1, G // 2 - 1), (G // 2 - 1, 1), (0, G // 4), (1, 0), (0, 0)]:
            c = fourier_coeffs(f, M, N)
            np.testing.assert_allclose(c.coeffs, dense_fourier_coeffs(f.values, M, N), rtol=0, atol=1e-12)
            assert c.hermitian == f.is_real
            if f.is_real:
                assert c.hermitian_defect() == 0.0


def _random_hermitian_coeffs(rng, bandwidth_m, bandwidth_n, source_grid=None):
    c = _random_coeffs(rng, bandwidth_m, bandwidth_n).coeffs
    return SpectralCoeffs(coeffs=0.5 * (c + np.conj(c[::-1, ::-1])), bandwidth_m=bandwidth_m,
                          bandwidth_n=bandwidth_n, source_grid=source_grid)


def _assert_synthesis_matches_dense(c, op, G):
    """Complex coefficients take the ifft path, Hermitian ones the irfft path to a float64 grid."""
    out = evaluate_grid(c, op, grid_size=G)
    assert out.values.dtype == (np.float64 if c.hermitian else np.complex128)
    np.testing.assert_allclose(out.values, _dense_op_values(c, op, G), rtol=0, atol=1e-12,
                               err_msg=f"{op}, hermitian={c.hermitian}")


@pytest.mark.parametrize("G", [8, 16, 32])
def test_fft_synthesis_matches_dense_dft(G, rng):
    bm, bn = G // 2 - 1, G // 4
    complex_c = _random_coeffs(rng, bm, bn, source_grid=G)
    hermitian_c = _random_hermitian_coeffs(rng, bm, bn, source_grid=G)
    assert not complex_c.hermitian and hermitian_c.hermitian
    ops = [
        GridOp.rect(bm, bn), GridOp.rect(1, bn), GridOp.rect(bm, 0), GridOp.rect(0, 0),
        GridOp.quad(1), GridOp.norlund_log(1), GridOp.marcinkiewicz(1), GridOp.riesz_log(2),
        GridOp.quad(bn), GridOp.norlund_log(bn + 1), GridOp.marcinkiewicz(bn), GridOp.riesz_log(bn + 1),
    ]
    for c in (complex_c, hermitian_c):
        for op in ops:
            _assert_synthesis_matches_dense(c, op, G)


@pytest.mark.parametrize("reach", [4, 7, 11])
def test_synthesis_on_a_coarse_grid_sums_aliased_frequencies(reach, rng):
    # grid_size 8 < 2 reach + 1: frequencies m and m + 8 land on the same samples
    for c in (_random_coeffs(rng, reach, reach), _random_hermitian_coeffs(rng, reach, reach)):
        for op in (GridOp.rect(reach, reach - 1), GridOp.rect(1, reach), GridOp.marcinkiewicz(reach),
                   GridOp.quad(reach), GridOp.norlund_log(reach + 1), GridOp.riesz_log(reach + 1)):
            _assert_synthesis_matches_dense(c, op, 8)


def test_grid_op_validation():
    with pytest.raises(ValueError):
        GridOp("bogus", 1)
    with pytest.raises(ValueError):
        GridOp("rect", 1)  # missing second order
    # an order whose weight sequence has no nonzero entry
    for kind, order in [("riesz-log", 1), ("norlund-log", 0), ("marcinkiewicz", 0),
                        ("quad", -1), ("norlund-log", -3), ("riesz-log", -2)]:
        with pytest.raises(ValueError):
            GridOp(kind, order)
