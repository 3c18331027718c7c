import math

import numpy as np
import pytest

from logmeans.fourier import BandwidthError, GridOp, SpectralCoeffs, dirichlet_matrix, evaluate_grid
from logmeans.grid import GridFunction2D, GridResolutionError, axis_points
from logmeans.kernels import alpha, beta, gamma
from logmeans.cli import _R2_A1, _R2_A2, _TUBE_MARGIN
from logmeans.orlicz import LOG2, YoungFunction, luxemburg_norm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, bandwidth, scale=1.0):
    """Random coefficients c(m, n), |m|, |n| <= bandwidth, made exactly Hermitian: c(-m, -n) = conj(c(m, n))."""
    shape = (2 * bandwidth + 1, 2 * bandwidth + 1)
    c = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return 0.5 * (c + np.conj(c[::-1, ::-1]))


def random_band_limited(rng, bandwidth, grid_size, scale=1.0):
    """Random real trig polynomial as (GridFunction2D, SpectralCoeffs)."""
    coeffs = SpectralCoeffs(coeffs=random_hermitian(rng, bandwidth, scale), bandwidth=bandwidth, source_grid=grid_size)
    return evaluate_grid(coeffs, GridOp.quad(bandwidth)), coeffs


def coeff(c, m, n):
    """c(m, n) of SpectralCoeffs ``c``, for |m|, |n| <= its bandwidth."""
    return complex(c.coeffs[c.bandwidth + m, c.bandwidth + n])


def hermitian_defect(c):
    """max |c(-m,-n) - conj(c(m,n))|; exactly 0 for the coefficients of a real grid."""
    return float(np.max(np.abs(c.coeffs - np.conj(c.coeffs[::-1, ::-1]))))


def quad_partial_sum(c, n, x, y):
    """Reference quadratical partial sum S_{n,n}(x, y) = sum_{|m|,|k|<=n} c(m, k) e^{imx} e^{iky}."""
    if n > c.bandwidth:
        raise BandwidthError(f"order {n} outside bandwidth {c.bandwidth}")
    window, k = slice(c.bandwidth - n, c.bandwidth + n + 1), np.arange(-n, n + 1)
    return complex(np.exp(1j * k * x) @ c.coeffs[window, window] @ np.exp(1j * k * y))


def pointwise_mean(c, op, x, y):
    """
    Reference mean ``op`` at one point, partial sum by partial sum:
    sum_j w_j S_{j,j}(x, y) / sum_j w_j over the op's weights w_j, j = 0..reach.
    """
    w = op.weights()
    total = 0.0 + 0.0j
    for j, w_j in enumerate(w):
        total += w_j * quad_partial_sum(c, j, x, y)
    return total / math.fsum(w)


def region_contains(region, x, y, tol=0.0):
    """Reference membership of (x, y) in the product region: each coordinate in some window, up to ``tol``."""
    return all(bool(np.any((region.lo - tol <= u) & (u <= region.hi + tol))) for u in (x, y))


def unit_ball_member(f, Q):
    """Whether f lies in the closed unit ball of L_Q (norm <= 1 + 1e-9)."""
    return luxemburg_norm(f, Q) <= 1.0 + 1e-9


#: u log^2(1 + u) loglog(16 + u), a Young function just above L log^2 L.
LOG2_LOGLOG = YoungFunction(
    "u*log^2(1+u)*loglog(16+u)",
    lambda u: np.asarray(LOG2.evaluator(u)) * np.log(np.log(16.0 + np.asarray(u, dtype=float))),
)


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


def dense_fourier_coeffs(values, B):
    """Reference rectangle-rule coefficients c(m, n), |m|, |n| <= B, by dense DFT matrices."""
    G = values.shape[0]
    e = np.exp(-1j * np.outer(np.arange(-B, B + 1), axis_points(G)))
    return (e @ values @ e.T) / G ** 2


def dense_synthesis(weighted, G):
    """Reference sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j} on the G-point grid, by dense DFT matrices."""
    reach = (len(weighted) - 1) // 2
    e = np.exp(1j * np.outer(axis_points(G), np.arange(-reach, reach + 1)))
    return e @ weighted @ e.T


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


def cos_sum_direct(N, u):
    """Reference sum_{k=1}^{N} cos(ku)/k by direct summation in ascending k order."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    k = np.arange(1, N + 1)
    return float(np.sum(np.cos(k * u) / k))


def mean_via_kernel(f: GridFunction2D, n, x, y):
    """
    Reference logarithmic mean through the convolution path,
    (1/pi^2) Int f(s, t) F_n(x - s, y - t) ds dt, by rectangle-rule quadrature
    on f's grid.  The 1/pi^2 factor normalizes each S_{k,k} convolution so the
    mean fixes constants (the kernel then integrates to 1 against the mean's
    weights).

    Requires grid_size >= 8 n so the quadrature resolves the kernel.
    """
    w = GridOp.norlund_log(n).weights()
    G = f.grid_size
    if G < 8 * n:
        raise GridResolutionError(f"grid {G} too coarse for order {n} (need >= {8 * n})")
    pts = axis_points(G)
    orders = np.arange(n)
    dk_x = dirichlet_matrix(orders, x - pts)  # (n, G)
    dk_y = dirichlet_matrix(orders, y - pts)
    # sum_k w_k * u_k^T f v_k, accumulated in fixed k order
    fv = f.values @ dk_y.T  # (G, n)
    per_k = np.einsum("kg,gk->k", dk_x, fv)
    total = complex(np.sum(per_k * w))
    h2 = f.cell_area
    value = total * h2 / (math.fsum(w) * math.pi ** 2)
    return float(value.real)


def quasi_random_points_loop(count):
    """Reference R2 points one at a time, kept where every math.remainder tube margin is >= _TUBE_MARGIN."""
    out = []
    i = 1
    while len(out) < count:
        x = (2.0 * ((0.5 + _R2_A1 * i) % 1.0) - 1.0) * math.pi
        y = (2.0 * ((0.5 + _R2_A2 * i) % 1.0) - 1.0) * math.pi
        i += 1
        margins = (
            abs(math.remainder(x, 2 * math.pi)),
            abs(math.remainder(y, 2 * math.pi)),
            abs(math.remainder(x + y, 2 * math.pi)),
            abs(math.remainder(x - y, 2 * math.pi)),
        )
        if min(margins) >= _TUBE_MARGIN:
            out.append((x, y))
    return np.array(out)


def r_nm_scan(n, m):
    """Reference r(n, m): scan l = 1, 2, ... while beta(l, n) <= 1 / (2^{3n} (beta(m, n) - gamma(n))) + gamma(n)."""
    g = gamma(n)
    rhs = 1.0 / (2 ** (3 * n) * (beta(m, n) - g)) + g
    r = 0
    l = 1
    while beta(l, n) <= rhs:
        r = l
        l += 1
    return r


def bump_block(grid):
    """(height, support_hi, snapped measure) of a bump grid, read off its one nonzero square block."""
    rows, cols = np.nonzero(grid.values)
    cells = rows.max() - rows.min() + 1
    assert cols.max() - cols.min() + 1 == cells and len(rows) == cells ** 2
    height = float(grid.values[rows[0], cols[0]])
    assert np.all(grid.values[rows, cols] == height)
    edge = cells * grid.spacing
    return height, edge, edge ** 2
