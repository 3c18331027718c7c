"""
Extremal bump inputs and the quantitative divergence experiments built on the
kernel lower bound: pointwise means of concentrated bumps over the shrunken
region, restricted L1 growth and exceedance-set geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridResolutionError
from .kernels import (
    BLOCK_ELEMS,
    REGION_J,
    build_region,
    gamma,
    lattice_min,
    phase_rate,
    refuse_beyond_memory_limit,
    window_count,
)
from .fourier import GridOp, angle_table, finite_points
from .means import harmonic_number
from .orlicz import StepFunction

#: ((pi/2 - arccos(1/4)) / 8)^2, the scaling applied to the normalized bump.
BUMP_PREFACTOR = ((0.5 * math.pi - math.acos(0.25)) / 8.0) ** 2


def make_bump(n: int, grid_size: int) -> StepFunction:
    """
    Indicator of [0, gamma(n)]^2 with exact height 1/gamma(n)^2, its support snapped to
    whole cells of the G x G grid (so its integral is 1 up to the snapping), as a step.
    The bump of the means experiments is this times BUMP_PREFACTOR.  Refuses a G below the least
    power of two at or above 16 (2^{2n} + 1/2) / pi, the least grid size (32 at n = 1).
    """
    min_grid = 1 << (math.ceil(16.0 * phase_rate(n) / math.pi) - 1).bit_length()
    if grid_size < min_grid:
        raise GridResolutionError(f"grid {grid_size} too coarse for bump scale {n} (need >= {min_grid})")
    g = gamma(n)
    h = 2.0 * math.pi / grid_size
    cells = max(1, round(g / h))
    return StepFunction(1.0 / g ** 2, cells ** 2, h ** 2)


def _axis_profile(n: int, u: np.ndarray, h=0.0) -> np.ndarray:
    """
    A_k(u) = Int_0^gamma D_k(u - s) ds = gamma/2 + sum_{j=1}^k (sin ju - sin j(u - gamma)) / j
    for k = 0..4^n - 1, shape (4^n, len(u)); each difference is taken as
    2 cos(j(u - gamma/2)) sin(j gamma/2), which cancels no digits when j gamma is small.

    With cell widths ``h`` (scalar or one per point) the entries are the cell
    averages (1/h) Int_{u-h/2}^{u+h/2} A_k: averaging multiplies the j-th term
    by sin(jh/2)/(jh/2), exactly 1 where h = 0, so point values keep every bit.
    Refuses NaN and infinite points, as every kernel form does, and NaN,
    infinite and negative widths.

    The terms are one (points, orders) angle_table, from j = 0, whose cosine is
    exactly 1, so the gamma/2 row needs no second array; the partial sums run
    in place along each point's row and the transpose is returned.
    """
    u = finite_points(u)
    g = gamma(n)
    j = np.arange(4 ** n)
    coeff = np.full(4 ** n, 0.5 * g)
    coeff[1:] = 2.0 * np.sin(0.5 * g * j[1:]) / j[1:]
    profile = angle_table(u - 0.5 * g, 0, 4 ** n, cosine=True)
    profile *= coeff
    half = np.broadcast_to(0.5 * np.asarray(h, dtype=float), u.shape)
    if not np.all((0.0 <= half) & (half < math.inf)):  # NaN fails both
        raise ValueError("cell widths must be finite and nonnegative")
    if np.any(half):
        cell = angle_table(half, 0, 4 ** n)  # sin(j h/2), then / j / (h/2)
        with np.errstate(divide="ignore", invalid="ignore"):
            cell /= j
            cell /= half[:, None]
        cell[:, 0] = 1.0
        cell[half == 0.0] = 1.0
        profile *= cell
    np.cumsum(profile, axis=1, out=profile)
    return profile.T


def _bump_mean_rows(n: int, xs: np.ndarray, h=0.0):
    """rows(b): the rows in the slice b of bump_mean_many(n, xs, h), from one profile table and its weighted copy."""
    profile = _axis_profile(n, xs, h)
    weighted = GridOp("norlund-log", 4 ** n).weights()[:, None] * profile
    norm = harmonic_number(4 ** n) * math.pi ** 2
    return lambda b: BUMP_PREFACTOR / gamma(n) ** 2 * (profile[:, b].T @ weighted) / norm


def bump_mean_many(n: int, xs: np.ndarray, h=0.0) -> np.ndarray:
    """
    The order-2^{2n} logarithmic mean of the scaled bump on the square lattice xs x xs,
    shape (len(xs), len(xs)), exact: every quadratical partial sum of the
    product bump factors into the two per-axis integrals of the Dirichlet
    kernel over the support [0, gamma(n)], so the mean is one matrix product
    A(xs)^T (w o A(xs)) of one profile table.  With cell widths ``h`` (one per
    point) the entry (i, j) is the exact average of the mean over the cell
    [xs_i -+ h_i/2] x [xs_j -+ h_j/2] instead.
    """
    return _bump_mean_rows(n, xs, h)(slice(None))


@dataclass(frozen=True)
class BumpMeanReport:
    n: int
    min_ratio: float
    argmin: tuple[float, float]
    samples: int


def bump_mean_lower_bound(n: int, samples_per_rect: int = 9) -> BumpMeanReport:
    """
    Minimum of x y t_{2^{2n}}(scaled bump; x, y) over the lattice of the shrunken region, in the row
    blocks of lattice_min: the desk-scale content of the pointwise lower bound t >= c / (x y) there.  A
    survey whose two profile tables (one 4^n column a point each) would exceed MAX_LATTICE_GIB is refused.
    """
    what = f"the bump survey at n = {n}, {samples_per_rect} samples per window"
    refuse_beyond_memory_limit(what, 16 * 4 ** n * samples_per_rect * window_count(n))
    xs = build_region(n, REGION_J).lattice(samples_per_rect)
    min_ratio, argmin = lattice_min(xs, _bump_mean_rows(n, xs))
    return BumpMeanReport(n=n, min_ratio=min_ratio, argmin=argmin, samples=len(xs) ** 2)


@dataclass(frozen=True)
class GrowthReport:
    n: int
    l1_lower: float


def geometric_sum(n: int) -> float:
    """
    Exact Int over the shrunken region of dx dy / (x y): the region is
    U x U for the union U of its windows, so the integral is the square of
    Int_U dx / x, a sum of log ratios of the window endpoints.
    """
    region = build_region(n, REGION_J)
    return math.fsum(np.log(region.hi / region.lo)) ** 2


def l1_growth(n: int) -> GrowthReport:
    """
    Region-restricted lower bound on || t_{2^{2n}}(scaled bump) ||_1 in closed
    form: the sum over the cells R = I_m x I_l of the shrunken region of |Int_R t|
    (at most Int_R |t|, equal where t keeps its sign on R), each Int_R t being
    R's area times the exact cell mean from bump_mean_many.
    """
    region = build_region(n, REGION_J)
    mids, widths = 0.5 * (region.lo + region.hi), region.hi - region.lo
    means = bump_mean_many(n, mids, widths)
    total = float(widths @ np.abs(means) @ widths)
    return GrowthReport(n=n, l1_lower=total)


@dataclass(frozen=True)
class ExceedanceReport:
    n: int
    c1: float
    measure: float
    bound: float


def _minus_product(theta, a, b):
    """
    theta - a b with a b formed exactly: Dekker's split gives a b = p + err
    with no rounding, and theta - p is exact where it cancels (Sterbenz), so
    the difference is correct to a few ulps of itself however small it is.
    """
    p = a * b
    a_split, b_split = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    a_hi = a_split - (a_split - a)
    b_hi = b_split - (b_split - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return (theta - p) - err


#: Terms z^2k / (2k + 1), k = 1..17, of the series in ``_log_excess``: at
#: z = 1/3 the first term left out is below 1e-17 of the sum.
_ATANH_TERMS = 17


def _log_excess(u):
    """
    g(u) = -log(1 - u) - u = u^2/2 + u^3/3 + ... for 0 <= u < 1, with no
    cancellation.  With z = u / (2 - u), -log(1 - u) = 2 atanh(z) and
    u = 2z / (1 + z), so g = 2z^2 / (1 + z) + 2 (z^3/3 + z^5/5 + ...), a sum
    of nonnegative terms, taken below u = 1/2 (z < 1/3).  From u = 1/2 on,
    -log1p(-u) - u loses at most a factor 4 to the subtraction.
    """
    z = u / (2.0 - u)
    z2 = z * z
    tail = np.zeros_like(z)
    for k in range(_ATANH_TERMS, 0, -1):  # Horner: z^2/3 + z^4/5 + ... = z^2 (1/3 + z^2 (1/5 + ...))
        tail += 1.0 / (2 * k + 1)
        tail *= z2
    series = 2.0 * z2 / (1.0 + z) + 2.0 * z * tail
    return np.where(u < 0.5, series, -np.log1p(-u) - u)


#: Floats a window pair holds at most in _area_under_hyperbola (its area, and the temporaries of
#: left, u, excess, x2 and overshoot beside it).
AREA_FLOATS = 8


def _area_under_hyperbola(ax, bx, ay, by, theta: float) -> np.ndarray:
    """
    Exact area of {(x, y) in [ax,bx] x [ay,by] : x y < theta} for 0 < ax,
    0 < ay, broadcast over arrays of edges.  Below x1 = clip(theta/by, ax, bx)
    the whole column lies under the hyperbola, past x2 = clip(theta/ay, ax, bx)
    none of it, so the area is (x1 - ax)(by - ay) + Int_{x1}^{x2} (theta/x - ay) dx,
    and the integral is theta g(u) + (theta/x2 - ay) u x2 with u = 1 - x1/x2
    and g from ``_log_excess``.  Every term is >= 0, and the near-zero
    differences x1 - ax, u and theta/x2 - ay come from exact residuals
    theta - a b, so a rectangle the hyperbola barely cuts keeps every digit.
    """
    ax, bx, ay, by = (np.asarray(e, dtype=float) for e in (ax, bx, ay, by))
    width = bx - ax
    left = np.clip(_minus_product(theta, ax, by) / by, 0.0, width)  # x1 - ax
    # 1 - max(theta/by, ax) / min(theta/ay, bx) is the least of the four ratios' complements
    with np.errstate(divide="ignore"):  # theta = 0: the third is -inf, so u = 0
        u = np.minimum(
            np.minimum((by - ay) / by, -_minus_product(theta, bx, by) / (bx * by)),
            np.minimum(_minus_product(theta, ax, ay) / theta, width / bx),
        )
    u = np.maximum(u, 0.0)
    excess = np.zeros_like(u)
    cut = u > 0.0  # the rectangles the hyperbola passes through, a thin band of them
    excess[cut] = _log_excess(u[cut])
    x2 = np.minimum(theta / ay, bx)
    overshoot = np.maximum(_minus_product(theta, bx, ay), 0.0) / bx  # theta/x2 - ay, nonzero where x2 = bx
    return left * (by - ay) + theta * excess + overshoot * u * x2


def _nonzero_areas(lo, hi, theta):
    """
    The nonzero _area_under_hyperbola of the window pairs (lo, hi) x (lo, hi), one list a block.  Row m
    needs only the column prefix whose corner lo_m lo_l can lie under theta: every other pair's area is
    exactly +-0 (``left``, ``u`` and ``overshoot`` clip to 0).  lo ascends, so the prefixes shrink down
    the rows, and a block of rows takes its first row's prefix, in column slices: at most
    BLOCK_ELEMS // AREA_FLOATS pairs, so a block's arrays hold about BLOCK_ELEMS floats.
    """
    block, start = max(1, BLOCK_ELEMS // AREA_FLOATS), 0
    while start < len(lo):
        # the slack covers the rounding of theta / lo_m
        width = int(np.searchsorted(lo, theta / lo[start] * (1.0 + 1e-9), side="right"))
        if not width:
            return
        stop = start + max(1, block // width)
        for col in range(0, width, block):
            cols = slice(col, min(col + block, width))
            area = _area_under_hyperbola(lo[start:stop, None], hi[start:stop, None], lo[cols], hi[cols], theta)
            yield area[area != 0.0].tolist()
        start = stop


def exceedance_measure(n: int, c1: float) -> ExceedanceReport:
    """
    Measure of the subset of the shrunken region where the kernel lower bound t >= c1 / (x y), c1 > 0,
    certifies |t| > c1 * 2^{3n}, i.e. the exact region geometry {x y < 2^{-3n}}, computed analytically
    over the blocks of _nonzero_areas: one math.fsum over them is the full window-pair sum, bit for bit.
    ``bound`` is measure * 2^{3n} / n.  Only the window arrays lo and hi grow with n, and build_region
    refuses them past the limit.
    """
    if not 0.0 < c1 < math.inf:
        raise ValueError(f"threshold coefficient must be finite and > 0, got {c1}")
    region, scale = build_region(n, REGION_J), float(2 ** (3 * n))
    measure = math.fsum(itertools.chain.from_iterable(_nonzero_areas(region.lo, region.hi, 1.0 / scale)))
    return ExceedanceReport(n=n, c1=c1, measure=measure, bound=measure * scale / n)
