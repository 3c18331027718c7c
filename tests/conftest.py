import numpy as np
import pytest

from logmeans.fourier import GridOp, SpectralCoeffs, evaluate_grid
from logmeans.grid import axis_points
from logmeans.kernels import alpha, beta, gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_band_limited(rng, bandwidth, grid_size, real=False, scale=1.0):
    """Random trig polynomial as (GridFunction2D, SpectralCoeffs)."""
    shape = (2 * bandwidth + 1, 2 * bandwidth + 1)
    c = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if real:
        c = 0.5 * (c + np.conj(c[::-1, ::-1]))
    coeffs = SpectralCoeffs(coeffs=c, bandwidth_m=bandwidth, bandwidth_n=bandwidth,
                            source_grid=grid_size)
    grid = evaluate_grid(coeffs, GridOp.rect(bandwidth, bandwidth), grid_size)
    return grid, coeffs


def rectangles(region):
    """Reference enumeration of the region's rectangles I_m x I_l as (ax, bx, ay, by), in (m, l) row-major order."""
    return [(ax, bx, ay, by) for ax, bx in zip(region.lo, region.hi) for ay, by in zip(region.lo, region.hi)]


def shrunken_window(n, m=1):
    """The m-th J window [alpha + gamma, beta - gamma] at any scale, also below 3 where build_region refuses."""
    return alpha(m, n) + gamma(n), beta(m, n) - gamma(n)


def stratified_samples(region, per_axis=9):
    """
    Reference sample layout: an inclusive per_axis x per_axis grid on every
    rectangle of the region, concatenated in rectangle order, shape (P, 2).
    """
    chunks = []
    for ax, bx, ay, by in rectangles(region):
        xs = np.linspace(ax, bx, per_axis)
        ys = np.linspace(ay, by, per_axis)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        chunks.append(np.column_stack([xx.ravel(), yy.ravel()]))
    return np.concatenate(chunks, axis=0)


def stratified_min(pts, values):
    """(samples, minimum of x y values, its first argmin in rectangle order) over paired points."""
    xs, ys = pts[:, 0], pts[:, 1]
    ratios = xs * ys * values
    arg = int(np.argmin(ratios))
    return len(xs), float(ratios[arg]), (float(xs[arg]), float(ys[arg]))


def dense_fourier_coeffs(values, M, N):
    """Reference rectangle-rule coefficients c(m, n), |m| <= M, |n| <= N, by dense DFT matrices."""
    G = values.shape[0]
    pts = axis_points(G)
    ex = np.exp(-1j * np.outer(np.arange(-M, M + 1), pts))
    ey = np.exp(-1j * np.outer(np.arange(-N, N + 1), pts))
    return (ex @ values @ ey.T) / G ** 2


def dense_synthesis(weighted, G):
    """Reference sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j} on the G-point grid, by dense DFT matrices."""
    reach_m, reach_n = ((s - 1) // 2 for s in weighted.shape)
    pts = axis_points(G)
    ex = np.exp(1j * np.outer(pts, np.arange(-reach_m, reach_m + 1)))
    ey = np.exp(1j * np.outer(np.arange(-reach_n, reach_n + 1), pts))
    return ex @ weighted @ ey


def raw_modular(values, Q, k, cell_area):
    """Reference modular: Q summed over every raw sample of |f| / k."""
    return float(np.sum(np.asarray(Q(np.abs(values) / k))) * cell_area)


def raw_luxemburg_norm(values, Q, cell_area, rel_tol=1e-9):
    """Reference Luxemburg norm: the bracketing and bisection over raw samples."""
    if np.max(np.abs(values)) == 0.0:
        return 0.0

    def mod(k):
        return raw_modular(values, Q, k, cell_area)

    hi = 1.0
    while mod(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while True:
        lo /= 2.0
        if mod(lo) > 1.0:
            break
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi
