"""Grid representation, Fourier coefficients, Dirichlet kernel, partial sums."""

import math

import mpmath
import numpy as np
import pytest

from logmeans.grid import GridFunction2D, axis_points
from logmeans.fourier import (
    BandwidthError,
    GridOp,
    SpectralCoeffs,
    angle_table,
    dirichlet_kernel,
    dirichlet_matrix,
    evaluate_grid,
    fourier_coeffs,
    reduce_angle,
)

from conftest import (
    coeff,
    dense_fourier_coeffs,
    dense_synthesis,
    hermitian_defect,
    pointwise_mean,
    random_band_limited,
    random_hermitian,
)


# ---------------------------------------------------------------- grid type

def test_grid_size_must_be_power_of_two():
    for bad in (3, 6, 12, 100):
        with pytest.raises(ValueError):
            GridFunction2D(values=np.zeros((bad, bad)))
    GridFunction2D(values=np.zeros((4, 4)))  # smallest legal


def test_grid_refuses_complex_samples():
    # a complex array is refused even when every imaginary part is zero
    with pytest.raises(ValueError, match="must be real"):
        GridFunction2D(values=np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="must be real"):
        GridFunction2D.from_function(lambda x, y: np.exp(1j * x) + y, 8)


def test_grid_values_are_read_only():
    # the magnitude histogram is cached on the grid, so its samples must not change
    grid = GridFunction2D(values=np.ones((8, 8)))
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
    c = fourier_coeffs(f, 4)
    assert coeff(c, 0, 0) == pytest.approx(1.0, abs=1e-12)
    others = c.coeffs.copy()
    others[4, 4] = 0.0
    assert np.max(np.abs(others)) <= 1e-12


def test_coeffs_of_single_exponential():
    # on a real grid e^{i(2x - y)} comes with its conjugate: cos(2x - y)
    f = GridFunction2D.from_function(lambda x, y: np.cos(2 * x - y), 64)
    c = fourier_coeffs(f, 4)
    assert coeff(c, 2, -1) == pytest.approx(0.5, abs=1e-12)
    assert coeff(c, -2, 1) == pytest.approx(0.5, abs=1e-12)
    mask = np.abs(c.coeffs) > 1e-12
    assert mask.sum() == 2


def test_coeffs_of_cosine():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) + 0.0 * y, 32)
    c = fourier_coeffs(f, 2)
    assert coeff(c, 1, 0) == pytest.approx(0.5, abs=1e-12)
    assert coeff(c, -1, 0) == pytest.approx(0.5, abs=1e-12)


def test_coeffs_rejects_nyquist():
    f = GridFunction2D.constant(1.0, 16)
    with pytest.raises(BandwidthError):
        fourier_coeffs(f, 8)
    fourier_coeffs(f, 7)


def test_quadrature_exactness_recovers_random_polynomials(rng):
    grid, coeffs = random_band_limited(rng, 5, 32)
    recovered = fourier_coeffs(grid, 5)
    np.testing.assert_allclose(recovered.coeffs, coeffs.coeffs, atol=1e-10)


def test_hermitian_symmetry_for_real_inputs(rng):
    for _ in range(5):
        grid, _ = random_band_limited(rng, 4, 32)
        c = fourier_coeffs(grid, 6)
        assert hermitian_defect(c) <= 1e-10


# ------------------------------------------------------------- partial sums

def test_quad_sum_of_constant_is_one(rng):
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 5)
    for _ in range(5):
        n = int(rng.integers(0, 6))
        i, j = rng.integers(0, 32, 2)
        assert evaluate_grid(c, GridOp.quad(n)).values[i, j] == pytest.approx(1.0, abs=1e-12)


def test_quad_sum_excludes_out_of_window_frequency():
    f = GridFunction2D.from_function(lambda x, y: np.cos(2 * x) + 0.0 * y, 32)
    c = fourier_coeffs(f, 4)
    out = evaluate_grid(c, GridOp.quad(1))
    np.testing.assert_allclose(out.values, 0.0, rtol=0.0, atol=1e-12)  # at every node


def test_quad_sum_reproduces_cos_cos_at_origin():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) * np.cos(y), 32)
    c = fourier_coeffs(f, 2)
    origin = 16  # index of x = 0
    assert evaluate_grid(c, GridOp.quad(1)).values[origin, origin] == pytest.approx(1.0, abs=1e-12)


def test_quad_sum_bandwidth_error():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 3)
    with pytest.raises(BandwidthError):
        evaluate_grid(c, GridOp.quad(4))


def test_quad_sum_linearity(rng):
    ga, ca = random_band_limited(rng, 3, 16)
    gb, cb = random_band_limited(rng, 3, 16)
    a, b = 1.7, -0.4
    mix = SpectralCoeffs(coeffs=a * ca.coeffs + b * cb.coeffs, bandwidth=3, source_grid=16)
    lhs = evaluate_grid(mix, GridOp.quad(3)).values
    rhs = a * evaluate_grid(ca, GridOp.quad(3)).values + b * evaluate_grid(cb, GridOp.quad(3)).values
    for i, j in rng.integers(0, 16, (10, 2)):
        assert lhs[i, j] == pytest.approx(rhs[i, j], abs=1e-10)


def test_quad_sum_reproduces_polynomial_and_degenerate_order(rng):
    grid, coeffs = random_band_limited(rng, 3, 32)
    pts = axis_points(32)
    out = evaluate_grid(coeffs, GridOp.quad(3))
    for i, j in rng.integers(0, 32, (5, 2)):
        x, y = float(pts[i]), float(pts[j])
        direct = sum(
            coeff(coeffs, m, n) * np.exp(1j * (m * x + n * y))
            for m in range(-3, 4)
            for n in range(-3, 4)
        )
        assert out.values[i, j] == pytest.approx(direct, abs=1e-10)
    degenerate = evaluate_grid(coeffs, GridOp.quad(0))
    assert np.all(degenerate.values == coeff(coeffs, 0, 0))


def test_quad_sum_of_step_against_1d_oracle():
    # f(x, y) = 1 on x in [0, pi): y-independent, so S_{8,8} at any y equals
    # the 1D Dirichlet partial sum of the sampled step at x.
    G = 64
    f = GridFunction2D.from_function(lambda x, y: np.where(x >= 0.0, 1.0, 0.0) + 0.0 * y, G)
    c = fourier_coeffs(f, 8)
    pts = axis_points(G)
    samples = np.where(pts >= 0.0, 1.0, 0.0)
    ix = 48  # x = pi/2
    oracle = 0.0j
    for m in range(-8, 9):
        coeff_1d = np.sum(samples * np.exp(-1j * m * pts)) / G
        oracle += coeff_1d * np.exp(1j * m * pts[ix])
    # at every node y of the x = pi/2 line
    np.testing.assert_allclose(evaluate_grid(c, GridOp.quad(8)).values[ix], complex(oracle), rtol=0.0, atol=1e-12)


# ------------------------------------------------------------ grid evaluation

def test_evaluate_grid_constant_under_quad():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 2)
    out = evaluate_grid(c, GridOp.quad(1))
    np.testing.assert_allclose(out.values, 1.0, atol=1e-12)


def test_evaluate_grid_reproduces_low_degree_polynomial(rng):
    grid, _ = random_band_limited(rng, 1, 16)
    wide = fourier_coeffs(grid, 4)
    out = evaluate_grid(wide, GridOp.quad(4))
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


def test_evaluate_grid_returns_a_real_grid_on_the_source_grid(rng):
    for G in (8, 16, 32):
        c = SpectralCoeffs(coeffs=random_hermitian(rng, 3), bandwidth=3, source_grid=G)
        for op in (GridOp.quad(0), GridOp.quad(3), GridOp.norlund_log(4), GridOp.riesz_log(2)):
            values = evaluate_grid(c, op).values
            assert values.dtype == np.float64 and values.shape == (G, G)
        with pytest.raises(TypeError):  # no resampling: the source grid is the only grid
            evaluate_grid(c, GridOp.quad(3), grid_size=2 * G)


def test_spectral_coeffs_refuse_what_no_real_grid_has(rng):
    hermitian = random_hermitian(rng, 3)
    SpectralCoeffs(coeffs=hermitian, bandwidth=3, source_grid=8)
    skewed, complex_mean = hermitian.copy(), hermitian.copy()
    skewed[0, 1] += 1e-12j  # c(-3, -2) is no longer conj(c(3, 2))
    complex_mean[3, 3] += 1e-12j  # c(0, 0) is no longer real
    for bad in (skewed, complex_mean):
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralCoeffs(coeffs=bad, bandwidth=3, source_grid=8)
    for B, G in ((3, 4), (4, 8)):  # 2B >= G
        with pytest.raises(BandwidthError):
            SpectralCoeffs(coeffs=random_hermitian(rng, B), bandwidth=B, source_grid=G)
    with pytest.raises(ValueError, match="power of two"):
        SpectralCoeffs(coeffs=random_hermitian(rng, 4), bandwidth=4, source_grid=12)


# ------------------------------------------------- FFT against the dense DFT

def _dense_op_values(c, op, G):
    """Reference values of ``op`` on the G-point grid: the weighted dense syntheses of its partial sums."""
    def window(j):
        return c.coeffs[c.bandwidth - j : c.bandwidth + j + 1, c.bandwidth - j : c.bandwidth + j + 1]

    w = op.weights()
    return sum(wj * dense_synthesis(window(j), G) for j, wj in enumerate(w) if wj) / w.sum()


@pytest.mark.parametrize("G", [8, 16, 32])
def test_fft_coeffs_match_dense_dft(G, rng):
    # rfft2, mirrored into exactly Hermitian coefficients
    f = GridFunction2D(values=rng.normal(size=(G, G)))
    for B in [G // 2 - 1, G // 4, 1, 0]:
        c = fourier_coeffs(f, B)
        np.testing.assert_allclose(c.coeffs, dense_fourier_coeffs(f.values, B), rtol=0, atol=1e-12)
        assert hermitian_defect(c) == 0.0


@pytest.mark.parametrize("G", [8, 16, 32])
def test_fft_synthesis_matches_dense_dft(G, rng):
    bm, bn = G // 2 - 1, G // 4
    c = SpectralCoeffs(coeffs=random_hermitian(rng, bm), bandwidth=bm, source_grid=G)
    ops = [
        GridOp.quad(bm), GridOp.quad(0),
        GridOp.quad(1), GridOp.norlund_log(1), GridOp.marcinkiewicz(1), GridOp.riesz_log(2),
        GridOp.quad(bn), GridOp.norlund_log(bn + 1), GridOp.marcinkiewicz(bn), GridOp.riesz_log(bn + 1),
    ]
    for op in ops:
        out = evaluate_grid(c, op)
        assert out.values.dtype == np.float64
        np.testing.assert_allclose(out.values, _dense_op_values(c, op, G), rtol=0, atol=1e-12, err_msg=str(op))


def test_grid_op_validation():
    with pytest.raises(ValueError):
        GridOp("bogus", 1)
    # every op is a mean of the quadratical partial sums: no rectangular kind, no second order
    with pytest.raises(ValueError, match="unknown grid op kind 'rect'"):
        GridOp("rect", 1)
    with pytest.raises(TypeError):
        GridOp("rect", 1, 1)
    # an order whose weight sequence has no nonzero entry
    for kind, order in [("riesz-log", 1), ("norlund-log", 0), ("marcinkiewicz", 0),
                        ("quad", -1), ("norlund-log", -3), ("riesz-log", -2)]:
        with pytest.raises(ValueError):
            GridOp(kind, order)
