"""Summability means: spectral path, kernel path, convergence behaviour."""

import math

import numpy as np
import pytest

from logmeans.cli import KERNEL_VERIFY_N
from logmeans.grid import GridFunction2D, GridMismatchError, GridResolutionError, axis_points
from logmeans.fourier import BandwidthError, GridOp, axis_l1_distance, evaluate_grid, fourier_coeffs
from logmeans.means import harmonic_number, l1_distance

from conftest import (
    bump_grid,
    mean_via_kernel,
    quad_partial_sum,
    random_band_limited,
    shrunken_window,
)


def test_harmonic_numbers():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-15)
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_norlund_weights_sum_to_one():
    # the normalised weights 1/(H_n (n-i)), i = 0..n-1, sum to 1; the kernel
    # paths normalise by H_n, which must be the fsum of the weights exactly,
    # at every order kernel-verify runs and at the bump mean's N = 4^n
    for n in (1, 2, 7, 50, 300, *KERNEL_VERIFY_N, *(4 ** s for s in range(3, 7))):
        w = GridOp("norlund-log", n).weights()
        H = harmonic_number(n)
        assert math.fsum(w) == H
        assert math.fsum(w / H) == pytest.approx(1.0, abs=1e-14)


def nodes(G):
    """The nodes of a G x G grid as arrays X, Y with X[i, j] = x_i and Y[i, j] = y_j."""
    pts = axis_points(G)
    return np.meshgrid(pts, pts, indexing="ij")


def test_norlund_fixes_constants():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8)
    for n in (1, 2, 5, 9):
        assert evaluate_grid(c, GridOp("norlund-log", n)).values == pytest.approx(1.0, abs=1e-12)


def test_norlund_first_nontrivial_order():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x + y), 32)
    c = fourier_coeffs(f, 4)
    x, y = nodes(32)
    expected = (2.0 / 3.0) * np.cos(x + y)
    assert evaluate_grid(c, GridOp("norlund-log", 2)).values == pytest.approx(expected, abs=1e-12)


def test_norlund_weight_accounting_for_high_order():
    # t_n of a single frequency j* is f * H_{n-j*} / H_n; the deviation from f
    # is exactly the weight deficit (H_n - H_{n-j*}) / H_n.
    f = GridFunction2D.from_function(lambda x, y: np.cos(2 * x + y), 64)
    c = fourier_coeffs(f, 24)
    x, y = nodes(64)
    fx = np.cos(2 * x + y)
    for n in (8, 16, 25):
        expected = fx * harmonic_number(n - 2) / harmonic_number(n)
        got = evaluate_grid(c, GridOp("norlund-log", n)).values
        assert got == pytest.approx(expected, abs=1e-12)
        deficit = 1.0 - harmonic_number(n - 2) / harmonic_number(n)
        assert np.abs(got - fx) == pytest.approx(np.abs(fx) * deficit, abs=1e-12)


def test_norlund_bandwidth_error():
    c = fourier_coeffs(GridFunction2D.constant(1.0, 16), 3)
    with pytest.raises(BandwidthError):
        evaluate_grid(c, GridOp("norlund-log", 5))


def test_marcinkiewicz_examples(rng):
    c = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8)
    assert evaluate_grid(c, GridOp("marcinkiewicz", 5)).values == pytest.approx(1.0, abs=1e-12)

    f = GridFunction2D.from_function(lambda x, y: np.cos(x + y), 32)
    cf = fourier_coeffs(f, 4)
    x, y = nodes(32)
    assert evaluate_grid(cf, GridOp("marcinkiewicz", 2)).values == pytest.approx(np.cos(x + y), abs=1e-12)

    grid, cr = random_band_limited(rng, 8, 32)
    i, j = 19, 22  # the node nearest (0.5, 1.2)
    x, y = float(axis_points(32)[i]), float(axis_points(32)[j])
    expected = sum(quad_partial_sum(cr, k, x, y) for k in range(1, 9)) / 8.0
    assert evaluate_grid(cr, GridOp("marcinkiewicz", 8)).values[i, j] == pytest.approx(expected, abs=1e-12)


def test_riesz_examples():
    c1 = fourier_coeffs(GridFunction2D.constant(1.0, 32), 8)
    assert evaluate_grid(c1, GridOp("riesz-log", 5)).values == pytest.approx(1.0, abs=1e-12)

    f = GridFunction2D.from_function(lambda x, y: np.cos(x + y), 32)
    cf = fourier_coeffs(f, 4)
    x, y = nodes(32)
    # n = 3: (1/H_2)(S_11 + S_22/2) = f * (1/1.5) * 1.5 = f
    assert evaluate_grid(cf, GridOp("riesz-log", 3)).values == pytest.approx(np.cos(x + y), abs=1e-12)
    # n = 2: the single term S_11, at the node nearest (1.0, -0.3)
    i, j = 21, 14
    assert evaluate_grid(cf, GridOp("riesz-log", 2)).values[i, j] == pytest.approx(
        quad_partial_sum(cf, 1, float(x[i, j]), float(y[i, j])), abs=1e-14
    )
    with pytest.raises(ValueError):
        evaluate_grid(cf, GridOp("riesz-log", 1))


def test_mean_spec_validation():
    # the summability means are specified as GridOp mean kinds
    GridOp("norlund-log", 1)
    GridOp("riesz-log", 2)
    with pytest.raises(ValueError):
        GridOp("riesz-log", 1)
    with pytest.raises(ValueError):
        GridOp("cesaro", 3)
    # an op is its (kind, integer order), whatever the order's integer type, so equal ops hash alike
    same = GridOp("marcinkiewicz", 4), GridOp("marcinkiewicz", np.int64(4))
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])


# --------------------------------------------------------------- kernel path

def test_mean_via_kernel_fixes_constants():
    one = GridFunction2D.constant(1.0, 64)
    assert mean_via_kernel(one, 4, 0.3, 0.4) == pytest.approx(1.0, abs=1e-8)


def test_mean_via_kernel_matches_spectral_path():
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) * np.cos(y), 256)
    mean = evaluate_grid(fourier_coeffs(f, 8), GridOp("norlund-log", 8)).values
    pts = axis_points(256)
    # the nodes nearest (0.3, 0.3), (-1.2, 2.0) and (0.0, 0.9)
    for i, j in [(140, 140), (79, 209), (128, 165)]:
        vk = mean_via_kernel(f, 8, float(pts[i]), float(pts[j]))
        assert vk == pytest.approx(mean[i, j], abs=1e-6)


def test_mean_via_kernel_on_random_band_limited(rng):
    grid, c = random_band_limited(rng, 5, 128, scale=0.3)
    mean = evaluate_grid(c, GridOp("norlund-log", 6)).values
    pts = axis_points(128)
    for i, j in rng.integers(0, 128, size=(3, 2)):
        assert mean_via_kernel(grid, 6, float(pts[i]), float(pts[j])) == pytest.approx(
            mean[i, j], abs=1e-6
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
    from logmeans.counterexamples import BUMP_PREFACTOR, make_bump
    from logmeans.kernels import log_kernel_direct_many

    step = make_bump(2, grid_size=2048)
    bump = GridFunction2D(values=BUMP_PREFACTOR * bump_grid(step, 2048).values)
    height, edge = step.value, math.isqrt(step.cells) * 2.0 * math.pi / 2048
    (ax, bx), (ay, by) = shrunken_window(2), shrunken_window(2)
    x, y = 0.5 * (ax + bx), 0.5 * (ay + by)
    got = mean_via_kernel(bump, 16, x, y)

    q = 150
    ss = (np.arange(q) + 0.5) * edge / q
    sg, tg = np.meshgrid(ss, ss, indexing="ij")
    kern = log_kernel_direct_many(16, x - sg.ravel(), y - tg.ravel())
    oracle = float(np.mean(kern)) * edge ** 2 * BUMP_PREFACTOR * height / math.pi ** 2
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
    f = GridFunction2D.from_function(lambda x, y: np.cos(x) + 0.0 * y, 256)
    g = GridFunction2D.constant(0.0, 256)
    # analytic value 8*pi; the rectangle rule sees the |.| kinks at O(h^2)
    assert l1_distance(f, g) == pytest.approx(8.0 * math.pi, abs=2e-3)


def test_l1_distance_grid_mismatch():
    with pytest.raises(GridMismatchError):
        l1_distance(GridFunction2D.constant(1.0, 32), GridFunction2D.constant(1.0, 64))


def ops_of_reach(reach):
    """One op of each kind that reaches exactly ``reach``; Marcinkiewicz and Riesz-log start at reach 1."""
    ops = [GridOp("quad", reach), GridOp("norlund-log", reach + 1)]
    if reach >= 1:
        ops += [GridOp("marcinkiewicz", reach), GridOp("riesz-log", reach + 1)]
    assert all(op.reach() == reach for op in ops)
    return ops


@pytest.mark.parametrize("G", [4, 8, 64, 1024])
def test_axis_l1_distance_equals_whole_grid_route(G):
    # for f of x alone the 1-D route is the G x G route to rounding: 4 eps times the grid
    # integral of |f| bounds the gap, of which these cases use at most 0.39 (cos 3x at G = 64)
    eps = np.finfo(float).eps
    pts = axis_points(G)
    top = G // 2 - 1
    reaches = sorted({0, 1, 2, top // 4, top // 2, top - 1, top} & set(range(top + 1)))
    for func in (np.abs, lambda x: (x >= 1.0).astype(float), lambda x: np.cos(3 * x)):
        f = GridFunction2D.from_function(lambda x, y: func(x), G)
        c = fourier_coeffs(f, top)
        bound = 4 * eps * l1_distance(f, GridFunction2D.constant(0.0, G))
        ops = [op for reach in reaches for op in ops_of_reach(reach)]
        for op, got in zip(ops, axis_l1_distance(func(pts), ops)):
            want = l1_distance(evaluate_grid(c, op), f)
            assert abs(got - want) <= bound, (func, op)


def test_axis_l1_distance_refusals():
    samples = np.abs(axis_points(64))
    with pytest.raises(ValueError):
        axis_l1_distance(np.outer(samples, samples), [GridOp("quad", 4)])  # a 2-D grid
    with pytest.raises(ValueError):
        axis_l1_distance(samples + 0j, [GridOp("quad", 4)])  # complex samples
    with pytest.raises(ValueError):
        axis_l1_distance(np.ones(100), [GridOp("quad", 4)])  # not a power of two
    with pytest.raises(BandwidthError):
        axis_l1_distance(samples, [GridOp("quad", 32)])  # reach G/2
    with pytest.raises(BandwidthError):
        axis_l1_distance(samples, [GridOp("quad", 4), GridOp("quad", 32)])  # any op of the list
    assert axis_l1_distance(samples, [GridOp("quad", 31)])[0] > 0.0


def axis_l1_distance_per_call(samples, op):
    """The one-op route of axis_l1_distance as each op took it alone: its own rfft, weighted in place."""
    G = len(samples)
    spectrum = np.fft.rfft(samples, norm="forward")[: op.reach() + 1]
    spectrum *= op.profile()
    diff = np.fft.irfft(spectrum, n=G, norm="forward")
    diff -= samples
    return 2.0 * math.pi * (2.0 * math.pi / G) * float(np.sum(np.abs(diff, out=diff)))


@pytest.mark.parametrize("G", [256, 4096])
def test_axis_l1_distance_of_many_ops_is_each_op_alone_bit_for_bit(G):
    # converge's means share one rfft of the samples, and each distance is still its own call's
    samples = np.abs(axis_points(G))
    orders = (2, 4, 16, 64, G // 2 - 1)
    ops = [GridOp(kind, n) for kind in ("norlund-log", "marcinkiewicz", "riesz-log") for n in orders]
    got = axis_l1_distance(samples, ops)
    assert got == [axis_l1_distance_per_call(samples, op) for op in ops]
    assert got == [axis_l1_distance(samples, [op])[0] for op in ops]


# ----------------------------------------------------------- convergence

def test_grid_l1_error_of_abs_x_shrinks_like_inverse_square_grid():
    # converge's l1_error is a G x G rectangle-rule sum, whose gap to the torus integral shrinks
    # about like 1/G^2 (the |.| kinks of |t - f| cost O(h^2)); against G = 2^22, |l1(G) -
    # l1(2^22)| G^2 measured at most 103 (marcinkiewicz:4, G = 2048) for G = 256..8192, where
    # an O(1/G) gap would reach G times a constant; 150 leaves a half again of headroom
    ops = [GridOp("marcinkiewicz", 4), GridOp("riesz-log", 64)]
    reference = axis_l1_distance(np.abs(axis_points(2 ** 22)), ops)
    for G in 2 ** np.arange(8, 14):
        for op, got, want in zip(ops, axis_l1_distance(np.abs(axis_points(G)), ops), reference):
            assert abs(got - want) * G ** 2 <= 150.0, (op, G)


def test_regularity_on_fixed_trig_polynomial():
    # small-amplitude polynomial so the logarithmic weight deficit drops
    # below 1e-3 within desk-scale orders
    G = 128
    f = GridFunction2D.from_function(lambda x, y: 0.01 * np.cos(x) * np.cos(y), G)
    c = fourier_coeffs(f, G // 2 - 1)
    errors = []
    for n in (8, 16, 32, 64):
        approx = evaluate_grid(c, GridOp("norlund-log", n))
        errors.append(l1_distance(approx, f))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_marcinkiewicz_dominance_on_nonsmooth_member():
    G = 512
    f = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, G)
    c = fourier_coeffs(f, G // 2 - 1)
    t_err, s_err = [], []
    for n in (16, 64, 255):
        t_err.append(l1_distance(evaluate_grid(c, GridOp("norlund-log", n)), f))
        s_err.append(l1_distance(evaluate_grid(c, GridOp("marcinkiewicz", n)), f))
    C = 2.0  # one constant for every tested order
    assert all(s <= C * t for s, t in zip(s_err, t_err))
    assert all(b < a for a, b in zip(t_err, t_err[1:]))
    assert all(b < a for a, b in zip(s_err, s_err[1:]))


def test_mean_error_below_weighted_partial_sum_errors():
    # || t_n(f) - f ||_1 <= (1/H_n) sum_k || S_kk(f) - f ||_1 / (n - k);
    # checkable inequality only, no rate is asserted anywhere.
    G = 256
    f = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, G)
    c = fourier_coeffs(f, G // 2 - 1)
    for n in (4, 16):
        lhs = l1_distance(evaluate_grid(c, GridOp("norlund-log", n)), f)
        terms = []
        for k in range(n):
            terms.append(l1_distance(evaluate_grid(c, GridOp("quad", k)), f) / (n - k))
        rhs = math.fsum(terms) / harmonic_number(n)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_path_equivalence_on_random_inputs(rng):
    grid, c = random_band_limited(rng, 6, 256, scale=0.2)
    mean_grid = evaluate_grid(c, GridOp("norlund-log", 7))
    pts = axis_points(256)
    for i, j in rng.integers(0, 256, size=(5, 2)):
        spectral = mean_grid.values[i, j]
        kernel = mean_via_kernel(grid, 7, float(pts[i]), float(pts[j]))
        assert kernel == pytest.approx(spectral, abs=1e-6)
