"""Grid representation, Fourier coefficients, Dirichlet kernel, partial sums."""

import math

import mpmath
import numpy as np
import pytest

from logmeans.grid import GridFunction2D, axis_points
from logmeans.fourier import (
    _MEAN_WEIGHTS,
    BandwidthError,
    GridOp,
    SpectralCoeffs,
    angle_pair,
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
    pointwise_mean,
    random_band_limited,
    random_hermitian,
    rfft2_fourier_coeffs,
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


@pytest.mark.parametrize("func, column", [(lambda x, y: np.abs(x), True), (lambda x, y: np.cos(x + y), False)])
def test_from_function_matches_meshgrid_sampling(func, column):
    # |x| of the axis column is a (G, 1) column, broadcast to the grid
    for G in (4, 64, 1024):
        pts = axis_points(G)
        assert np.shape(func(pts[:, None], pts[None, :])) == ((G, 1) if column else (G, G))
        xx, yy = np.meshgrid(pts, pts, indexing="ij")
        assert np.array_equal(GridFunction2D.from_function(func, G).values, func(xx, yy))


def test_magnitude_histogram_matches_np_unique(rng):
    for values in (rng.normal(size=(64, 64)), np.round(rng.normal(size=(64, 64)), 1),
                   np.zeros((8, 8)), -rng.exponential(size=(32, 32)), np.round(-rng.exponential(size=(32, 32)))):
        distinct, counts = GridFunction2D(values=values).magnitude_histogram
        want_distinct, want_counts = np.unique(np.abs(values), return_counts=True)
        assert np.array_equal(distinct, want_distinct) and distinct.dtype == want_distinct.dtype
        assert np.array_equal(counts, want_counts) and counts.dtype == want_counts.dtype


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
    # whether it is tabled alone or with the others; both hold for the table
    # and for its half of angle_pair, which equals it bit for bit
    us = np.concatenate([[math.pi, -math.pi, 1e-6, 2 * math.pi - 1e-6], rng.uniform(-2 * math.pi, 2 * math.pi, 4)])
    tables = {
        "table": lambda pts: angle_table(pts, start + offset, N, cosine),
        "pair": lambda pts: angle_pair(pts, start + offset, N)[cosine],
    }
    batch = {form: make(us) for form, make in tables.items()}
    assert np.array_equal(batch["pair"], batch["table"])
    for form, make in tables.items():
        assert batch[form].shape == (len(us), N)
        for p, u in enumerate(us):
            assert np.array_equal(make(us[p : p + 1])[0], batch[form][p]), form
    trig = mpmath.cos if cosine else mpmath.sin
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for i in _sampled_orders(N, rng):
            order = mpmath.mpf(start + int(i)) + mpmath.mpf(offset)
            for p, u in enumerate(us):
                want = trig(order * mpmath.mpf(float(u)))
                for form, table in batch.items():
                    err = abs(mpmath.mpf(float(table[p, i])) - want)
                    assert err <= 2 * eps * (1 + abs(float(order) * u)), (form, N, int(i), float(u))


@pytest.mark.parametrize("count, step", [(3, 2), (32, 32), (64, 4096)])
def test_angle_pair_with_a_step_matches_mpmath(count, step, rng):
    # the orders origin + step k, as the kernel forms' a-parts take them (step B = sqrt(N), up to
    # 4096 at N = 4^12): each entry within 2 eps (1 + |order u|) of the 40-digit value, as at a
    # unit step, and each point's rows the same whether it is tabled alone or with the others
    us = np.concatenate([[math.pi, -math.pi, 1e-6], rng.uniform(-2 * math.pi, 2 * math.pi, 3)])
    eps = np.finfo(float).eps
    for origin in (0.5, 1.0):
        pair = angle_pair(us, origin, count, step=step)
        for p in range(len(us)):
            alone = angle_pair(us[p : p + 1], origin, count, step=step)
            assert all(np.array_equal(one[0], both[p]) for one, both in zip(alone, pair))
        with mpmath.workdps(40):
            for k in range(count):
                order = mpmath.mpf(origin) + step * k
                for p, u in enumerate(us):
                    for table, trig in zip(pair, (mpmath.sin, mpmath.cos)):
                        err = abs(mpmath.mpf(float(table[p, k])) - trig(order * mpmath.mpf(float(u))))
                        assert err <= 2 * eps * (1 + abs(float(order) * u)), (origin, k, float(u))


def test_one_order_angle_table_is_np_sin_bit_for_bit(rng):
    # a one-order table makes no angle addition; dirichlet_kernel builds no table, so its values are
    # the direct formula's for one order, a column of orders and a 0-d order alike
    us = np.concatenate([[math.pi, -math.pi, 0.0, 1e-6, 2 * math.pi - 1e-6], rng.uniform(-50.0, 50.0, 200)])
    for k in (0, 1, 7, 1000, 65535):
        for offset in (0.0, 0.5):
            assert np.array_equal(angle_table(us, k + offset, 1)[:, 0], np.sin((k + offset) * us))
            assert np.array_equal(angle_table(us, k + offset, 1, cosine=True)[:, 0], np.cos((k + offset) * us))
            sin, cos = angle_pair(us, k + offset, 1)
            assert np.array_equal(sin[:, 0], np.sin((k + offset) * us))
            assert np.array_equal(cos[:, 0], np.cos((k + offset) * us))
    ts = rng.uniform(-3.0, 3.0, 50)
    r, half_sin, _ = reduce_angle(ts)
    for k in (0, 5, 300, np.int64(7)):
        assert np.array_equal(dirichlet_kernel(k, ts), np.sin((k + 0.5) * r) / (2.0 * half_sin))
        assert np.array_equal(dirichlet_kernel(k, ts), dirichlet_matrix(np.array([k]), ts)[0])
    column = np.array([0, 5, 300, 4095])[:, None]
    want = np.sin((column + 0.5) * r) / (2.0 * half_sin)
    assert np.array_equal(dirichlet_kernel(column, ts), want)
    assert np.array_equal(dirichlet_matrix(column[:, 0], ts), want)


def two_parameter_angle_tables(u, start, count, offset, cosines):
    """The angle tables as built with a first order ``start`` and a separate ``offset``, summed inside."""
    u = np.asarray(u, dtype=float)
    step = math.isqrt(count - 1) + 1
    blocks = -(-count // step)
    a = np.multiply.outer(u, start + offset + step * np.arange(blocks, dtype=float))
    b = np.multiply.outer(u, np.arange(step, dtype=float))
    sin_cos_a = np.empty(a.shape + (2,))
    np.sin(a, out=sin_cos_a[..., 0])
    np.cos(a, out=sin_cos_a[..., 1])
    right = np.empty((len(u), 2, step))
    np.cos(b, out=right[:, 0])
    np.sin(b, out=right[:, 1])
    tables = np.empty((len(cosines), len(u), blocks * step))
    for cosine, table in zip(cosines, tables):
        left = sin_cos_a[..., ::-1] * (1.0, -1.0) if cosine else sin_cos_a
        np.matmul(left, right, out=table.reshape(len(u), blocks, step))
    return tables[..., :count]


def test_one_origin_angle_tables_are_the_start_and_offset_tables_bit_for_bit(rng):
    # the first order start + offset was always formed before any table entry, so one origin
    # gives the same bits for the Dirichlet tables (0, 1/2), the half-angle pairs (1, 0) and
    # every one-order table
    us = np.concatenate([[math.pi, -math.pi, 0.0, 1e-6], rng.uniform(-50.0, 50.0, 60)])
    cases = [(start, offset, count) for start, offset in ((0, 0.5), (1, 0.0)) for count in (1, 3, 64, 1000, 4096)]
    cases += [(k, offset, 1) for k in (0, 1, 7, 1000, 65535) for offset in (0.0, 0.5)]
    for start, offset, count in cases:
        sin, cos = two_parameter_angle_tables(us, start, count, offset, (False, True))
        assert np.array_equal(angle_table(us, start + offset, count), sin), (start, offset, count)
        assert np.array_equal(angle_table(us, start + offset, count, cosine=True), cos), (start, offset, count)
        pair = angle_pair(us, start + offset, count)
        assert np.array_equal(pair[0], sin) and np.array_equal(pair[1], cos), (start, offset, count)


def test_kernel_tables_need_a_range_of_consecutive_orders():
    ts = np.array([0.3, 1.2])
    with pytest.raises(ValueError, match="1-D"):
        dirichlet_matrix(np.arange(4).reshape(2, 2), ts)
    with pytest.raises(ValueError, match="at least one order"):
        angle_table(ts, 0, 0)
    with pytest.raises(ValueError, match="at least one order"):
        angle_pair(ts, 0, 0)


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


# ------------------------------------------------------------- partial sums

def test_quad_sum_of_constant_is_one(rng):
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 5)
    for _ in range(5):
        n = int(rng.integers(0, 6))
        i, j = rng.integers(0, 32, 2)
        assert evaluate_grid(c, GridOp("quad", n)).values[i, j] == pytest.approx(1.0, abs=1e-12)


def test_quad_sum_excludes_out_of_window_frequency():
    f = GridFunction2D.from_function(lambda x, y: np.cos(2 * x) + 0.0 * y, 32)
    c = fourier_coeffs(f, 4)
    out = evaluate_grid(c, GridOp("quad", 1))
    np.testing.assert_allclose(out.values, 0.0, rtol=0.0, atol=1e-12)  # at every node


def test_quad_sum_reproduces_cos_cos_at_origin():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) * np.cos(y), 32)
    c = fourier_coeffs(f, 2)
    origin = 16  # index of x = 0
    assert evaluate_grid(c, GridOp("quad", 1)).values[origin, origin] == pytest.approx(1.0, abs=1e-12)


def test_quad_sum_bandwidth_error():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 3)
    with pytest.raises(BandwidthError):
        evaluate_grid(c, GridOp("quad", 4))


def test_quad_sum_linearity(rng):
    ga, ca = random_band_limited(rng, 3, 16)
    gb, cb = random_band_limited(rng, 3, 16)
    a, b = 1.7, -0.4
    mix = SpectralCoeffs(coeffs=a * ca.coeffs + b * cb.coeffs, bandwidth=3, source_grid=16)
    lhs = evaluate_grid(mix, GridOp("quad", 3)).values
    rhs = a * evaluate_grid(ca, GridOp("quad", 3)).values + b * evaluate_grid(cb, GridOp("quad", 3)).values
    for i, j in rng.integers(0, 16, (10, 2)):
        assert lhs[i, j] == pytest.approx(rhs[i, j], abs=1e-10)


def test_quad_sum_reproduces_polynomial_and_degenerate_order(rng):
    grid, coeffs = random_band_limited(rng, 3, 32)
    pts = axis_points(32)
    out = evaluate_grid(coeffs, GridOp("quad", 3))
    for i, j in rng.integers(0, 32, (5, 2)):
        x, y = float(pts[i]), float(pts[j])
        direct = sum(
            coeff(coeffs, m, n) * np.exp(1j * (m * x + n * y))
            for m in range(-3, 4)
            for n in range(-3, 4)
        )
        assert out.values[i, j] == pytest.approx(direct, abs=1e-10)
    degenerate = evaluate_grid(coeffs, GridOp("quad", 0))
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
    np.testing.assert_allclose(evaluate_grid(c, GridOp("quad", 8)).values[ix], complex(oracle), rtol=0.0, atol=1e-12)


# ------------------------------------------------------------ grid evaluation

def test_evaluate_grid_constant_under_quad():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 2)
    out = evaluate_grid(c, GridOp("quad", 1))
    np.testing.assert_allclose(out.values, 1.0, atol=1e-12)


def test_evaluate_grid_reproduces_low_degree_polynomial(rng):
    grid, _ = random_band_limited(rng, 1, 16)
    wide = fourier_coeffs(grid, 4)
    out = evaluate_grid(wide, GridOp("quad", 4))
    np.testing.assert_allclose(out.values, grid.values, atol=1e-10)


def test_evaluate_grid_matches_pointwise_quad_sums(rng):
    # each op's weights of S_{0,0}..S_{reach,reach}, as the means are defined;
    # the grid path's radial profile must agree with the partial-sum-by-partial-sum mean
    grid, coeffs = random_band_limited(rng, 4, 32)
    pts = axis_points(32)
    defined_weights = {
        GridOp("quad", 3): [0, 0, 0, 1],
        GridOp("norlund-log", 1): [1],
        GridOp("norlund-log", 5): [1 / 5, 1 / 4, 1 / 3, 1 / 2, 1],
        GridOp("marcinkiewicz", 1): [0, 1],
        GridOp("marcinkiewicz", 4): [0, 1, 1, 1, 1],
        GridOp("riesz-log", 2): [0, 1],
        GridOp("riesz-log", 5): [0, 1, 1 / 2, 1 / 3, 1 / 4],
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
        for op in (GridOp("quad", 0), GridOp("quad", 3), GridOp("norlund-log", 4), GridOp("riesz-log", 2)):
            values = evaluate_grid(c, op).values
            assert values.dtype == np.float64 and values.shape == (G, G)
        with pytest.raises(TypeError):  # no resampling: the source grid is the only grid
            evaluate_grid(c, GridOp("quad", 3), grid_size=2 * G)


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


@pytest.mark.parametrize("G", [4, 64, 1024])
def test_row_block_coeffs_equal_rfft2_bit_for_bit(G, rng):
    # one rfft along n, then one fft along m over the kept columns, are rfft2's 1-D transforms
    f = GridFunction2D(values=rng.normal(size=(G, G)))
    for B in sorted({0, 1, G // 4, G // 2 - 1}):
        assert np.array_equal(fourier_coeffs(f, B).coeffs, rfft2_fourier_coeffs(f.values, B)), B


@pytest.mark.parametrize("G", [8, 16, 32])
def test_fft_synthesis_matches_dense_dft(G, rng):
    bm, bn = G // 2 - 1, G // 4
    c = SpectralCoeffs(coeffs=random_hermitian(rng, bm), bandwidth=bm, source_grid=G)
    ops = [
        GridOp("quad", bm), GridOp("quad", 0),
        GridOp("quad", 1), GridOp("norlund-log", 1), GridOp("marcinkiewicz", 1), GridOp("riesz-log", 2),
        GridOp("quad", bn), GridOp("norlund-log", bn + 1), GridOp("marcinkiewicz", bn), GridOp("riesz-log", bn + 1),
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
    # exactly the orders whose weight sequence has no nonzero entry are refused
    for kind, weights in _MEAN_WEIGHTS.items():
        for order in range(-3, 6):
            if np.any(weights(order)):
                assert GridOp(kind, order).order == order
            else:
                with pytest.raises(ValueError, match=f"{kind} op of order {order} has no nonzero weight"):
                    GridOp(kind, order)


@pytest.mark.parametrize("kind", ["quad", "norlund-log", "marcinkiewicz", "riesz-log"])
def test_grid_op_orders_must_be_integers(kind):
    # a float order is refused, not read as weights of no mean: norlund-log at 2.5 would weigh
    # [0.4, 0.667, 2.0] and marcinkiewicz at 2.5 would reach 3; NumPy integers pass as ints
    for bad in (2.5, 4.0, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match="grid op orders must be integers"):
            GridOp(kind, bad)
    op = GridOp(kind, np.int64(4))
    assert op == GridOp(kind, 4) and type(op.order) is int
    assert np.array_equal(op.weights(), GridOp(kind, 4).weights())
