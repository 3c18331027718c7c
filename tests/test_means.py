"""Summability means: spectral path, kernel path, convergence behaviour."""

import math

import numpy as np
import pytest

from logmeans.grid import GridFunction2D, GridMismatchError, GridResolutionError
from logmeans.fourier import BandwidthError, GridOp, evaluate_grid, fourier_coeffs
from logmeans.means import harmonic_number, l1_distance, pointwise_mean

from conftest import mean_via_kernel, random_band_limited, shrunken_window


def test_harmonic_numbers():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-15)
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_norlund_weights_sum_to_one():
    # the normalised weights 1/(H_n (n-i)), i = 0..n-1, sum to 1; the kernel
    # paths normalise by the fsum of the weights, which must be H_n exactly
    for n in (1, 2, 7, 50, 300):
        w = GridOp.norlund_log(n).weights()
        H = harmonic_number(n)
        assert math.fsum(w) == H
        assert math.fsum(w / H) == pytest.approx(1.0, abs=1e-14)


def test_norlund_fixes_constants():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8, 8)
    for n in (1, 2, 5, 9):
        assert pointwise_mean(c, GridOp.norlund_log(n), 0.4, -1.0) == pytest.approx(1.0, abs=1e-12)


def test_norlund_first_nontrivial_order():
    f = GridFunction2D.from_function(lambda x, y: np.exp(1j * x) * np.exp(1j * y), 32)
    c = fourier_coeffs(f, 4, 4)
    x, y = 0.3, 0.9
    expected = (2.0 / 3.0) * np.exp(1j * (x + y))
    assert pointwise_mean(c, GridOp.norlund_log(2), x, y) == pytest.approx(expected, abs=1e-12)


def test_norlund_weight_accounting_for_high_order():
    # t_n of a single frequency j* is f * H_{n-j*} / H_n; the deviation from f
    # is exactly the weight deficit (H_n - H_{n-j*}) / H_n.
    f = GridFunction2D.from_function(lambda x, y: np.exp(2j * x) * np.exp(1j * y), 64)
    c = fourier_coeffs(f, 24, 24)
    x, y = -0.7, 0.2
    fx = np.exp(1j * (2 * x + y))
    for n in (8, 16, 25):
        expected = fx * harmonic_number(n - 2) / harmonic_number(n)
        got = pointwise_mean(c, GridOp.norlund_log(n), x, y)
        assert got == pytest.approx(expected, abs=1e-12)
        deficit = 1.0 - harmonic_number(n - 2) / harmonic_number(n)
        assert abs(got - fx) == pytest.approx(abs(fx) * deficit, abs=1e-12)


def test_norlund_bandwidth_error():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 3, 3)
    with pytest.raises(BandwidthError):
        pointwise_mean(c, GridOp.norlund_log(5), 0.0, 0.0)


def test_marcinkiewicz_examples(rng):
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8, 8)
    assert pointwise_mean(c, GridOp.marcinkiewicz(5), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    f = GridFunction2D.from_function(lambda x, y: np.exp(1j * x) * np.exp(1j * y), 32)
    cf = fourier_coeffs(f, 4, 4)
    x, y = 0.2, -0.4
    assert pointwise_mean(cf, GridOp.marcinkiewicz(2), x, y) == pytest.approx(
        np.exp(1j * (x + y)), abs=1e-12
    )

    grid, cr = random_band_limited(rng, 8, 32)
    from logmeans.fourier import quad_partial_sum

    x, y = 0.5, 1.2
    expected = sum(quad_partial_sum(cr, j, x, y) for j in range(1, 9)) / 8.0
    assert pointwise_mean(cr, GridOp.marcinkiewicz(8), x, y) == pytest.approx(expected, abs=1e-12)


def test_riesz_examples():
    c1 = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8, 8)
    assert pointwise_mean(c1, GridOp.riesz_log(5), 0.1, 0.2) == pytest.approx(1.0, abs=1e-12)

    f = GridFunction2D.from_function(lambda x, y: np.exp(1j * x) * np.exp(1j * y), 32)
    cf = fourier_coeffs(f, 4, 4)
    x, y = 1.0, -0.3
    # n = 3: (1/H_2)(S_11 + S_22/2) = f * (1/1.5) * 1.5 = f
    assert pointwise_mean(cf, GridOp.riesz_log(3), x, y) == pytest.approx(
        np.exp(1j * (x + y)), abs=1e-12
    )
    # n = 2: the single term S_11
    from logmeans.fourier import quad_partial_sum

    assert pointwise_mean(cf, GridOp.riesz_log(2), x, y) == pytest.approx(
        quad_partial_sum(cf, 1, x, y), abs=1e-14
    )
    with pytest.raises(ValueError):
        pointwise_mean(cf, GridOp.riesz_log(1), x, y)


def test_mean_spec_validation():
    # the summability means are specified as GridOp mean kinds
    GridOp("norlund-log", 1)
    GridOp("riesz-log", 2)
    with pytest.raises(ValueError):
        GridOp("riesz-log", 1)
    with pytest.raises(ValueError):
        GridOp("cesaro", 3)
    assert GridOp.marcinkiewicz(4) == GridOp("marcinkiewicz", 4)


# --------------------------------------------------------------- kernel path

def test_mean_via_kernel_fixes_constants():
    one = GridFunction2D.constant(1.0, 64)
    assert mean_via_kernel(one, 4, 0.3, 0.4) == pytest.approx(1.0, abs=1e-8)


def test_mean_via_kernel_matches_spectral_path():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) * np.cos(y), 256, real=True)
    c = fourier_coeffs(f, 8, 8)
    for x, y in [(0.3, 0.3), (-1.2, 2.0), (0.0, 0.9)]:
        vk = mean_via_kernel(f, 8, x, y)
        vs = pointwise_mean(c, GridOp.norlund_log(8), x, y)
        assert vk == pytest.approx(vs.real, abs=1e-6)


def test_mean_via_kernel_on_random_band_limited(rng):
    grid, c = random_band_limited(rng, 5, 128, real=True, scale=0.3)
    for _ in range(3):
        x, y = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        assert mean_via_kernel(grid, 6, x, y) == pytest.approx(
            pointwise_mean(c, GridOp.norlund_log(6), x, y).real, abs=1e-6
        )


def test_mean_via_kernel_resolution_error():
    f = GridFunction2D.constant(1.0, 16)
    with pytest.raises(GridResolutionError):
        mean_via_kernel(f, 4, 0.0, 0.0)


def test_mean_via_kernel_bump_at_shrunken_region_point():
    # concentrated bump at scale 2, mean order 2^{2*2} = 16, evaluated at the
    # center of the first shrunken window's square: the grid path must
    # agree with a dense midpoint quadrature of the convolution over the
    # snapped support, and the region ratio x*y*t stays strictly positive.
    from logmeans.counterexamples import make_bump
    from logmeans.kernels import log_kernel_direct_many

    bump, spec = make_bump(2, scaled=True, grid_size=2048)
    (ax, bx), (ay, by) = shrunken_window(2), shrunken_window(2)
    x, y = 0.5 * (ax + bx), 0.5 * (ay + by)
    got = mean_via_kernel(bump, 16, x, y)

    q = 150
    edge = spec.support_hi
    ss = (np.arange(q) + 0.5) * edge / q
    sg, tg = np.meshgrid(ss, ss, indexing="ij")
    kern = log_kernel_direct_many(16, x - sg.ravel(), y - tg.ravel())
    oracle = float(np.mean(kern)) * edge ** 2 * spec.height / math.pi ** 2
    # the grid path anchors the one-cell support at its corner, so it differs
    # from the cell average at first order in the cell width (~1% here)
    assert got == pytest.approx(oracle, rel=3e-2)
    assert x * y * got > 0.0


# --------------------------------------------------------------- l1 distance

def test_l1_distance_basics():
    f = GridFunction2D.constant(1.0, 64)
    g = GridFunction2D.constant(0.0, 64)
    assert l1_distance(f, f) == 0.0
    assert l1_distance(f, g) == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)


def test_l1_distance_of_cosine():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) + 0.0 * y, 256, real=True)
    g = GridFunction2D.constant(0.0, 256)
    # analytic value 8*pi; the rectangle rule sees the |.| kinks at O(h^2)
    assert l1_distance(f, g) == pytest.approx(8.0 * math.pi, abs=2e-3)


def test_l1_distance_of_complex_grids():
    f = GridFunction2D.constant(3.0 + 4.0j, 16)
    g = GridFunction2D.constant(0.0, 16)
    assert l1_distance(f, g) == pytest.approx(5.0 * 4.0 * math.pi ** 2, rel=1e-12)
    assert l1_distance(g, f) == l1_distance(f, g)


def test_l1_distance_grid_mismatch():
    with pytest.raises(GridMismatchError):
        l1_distance(GridFunction2D.constant(1.0, 32), GridFunction2D.constant(1.0, 64))


# ----------------------------------------------------------- convergence

def test_regularity_on_fixed_trig_polynomial():
    # small-amplitude polynomial so the logarithmic weight deficit drops
    # below 1e-3 within desk-scale orders
    G = 128
    f = GridFunction2D.from_function(lambda x, y: 0.01 * np.cos(x) * np.cos(y), G, real=True)
    c = fourier_coeffs(f, G // 2 - 1, G // 2 - 1)
    errors = []
    for n in (8, 16, 32, 64):
        approx = evaluate_grid(c, GridOp.norlund_log(n))
        errors.append(l1_distance(approx, f))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_marcinkiewicz_dominance_on_nonsmooth_member():
    G = 512
    f = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, G, real=True)
    c = fourier_coeffs(f, G // 2 - 1, G // 2 - 1)
    t_err, s_err = [], []
    for n in (16, 64, 255):
        t_err.append(l1_distance(evaluate_grid(c, GridOp.norlund_log(n)), f))
        s_err.append(l1_distance(evaluate_grid(c, GridOp.marcinkiewicz(n)), f))
    C = 2.0  # one constant for every tested order
    assert all(s <= C * t for s, t in zip(s_err, t_err))
    assert all(b < a for a, b in zip(t_err, t_err[1:]))
    assert all(b < a for a, b in zip(s_err, s_err[1:]))


def test_mean_error_below_weighted_partial_sum_errors():
    # || t_n(f) - f ||_1 <= (1/H_n) sum_k || S_kk(f) - f ||_1 / (n - k);
    # checkable inequality only, no rate is asserted anywhere.
    G = 256
    f = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, G, real=True)
    c = fourier_coeffs(f, G // 2 - 1, G // 2 - 1)
    for n in (4, 16):
        lhs = l1_distance(evaluate_grid(c, GridOp.norlund_log(n)), f)
        terms = []
        for k in range(n):
            op = GridOp.quad(k) if k > 0 else GridOp.rect(0, 0)
            terms.append(l1_distance(evaluate_grid(c, op), f) / (n - k))
        rhs = math.fsum(terms) / harmonic_number(n)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_path_equivalence_on_random_inputs(rng):
    grid, c = random_band_limited(rng, 6, 256, real=True, scale=0.2)
    mean_grid = evaluate_grid(c, GridOp.norlund_log(7))
    from logmeans.grid import axis_points

    pts = axis_points(256)
    for i, j in rng.integers(0, 256, size=(5, 2)):
        spectral = mean_grid.values[i, j].real
        kernel = mean_via_kernel(grid, 7, float(pts[i]), float(pts[j]))
        assert kernel == pytest.approx(spectral, abs=1e-6)
