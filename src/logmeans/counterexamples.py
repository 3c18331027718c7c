"""
Extremal bump inputs and the quantitative divergence experiments built on the
kernel lower bound: pointwise means of concentrated bumps over the shrunken
region, restricted L1 growth, exceedance-set geometry, and the operator-norm
probe against a Young function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction2D, GridResolutionError
from .kernels import (
    REGION_J,
    build_region,
    gamma,
    lattice_survey,
    phase_rate,
    refuse_beyond_memory_limit,
    beta,
    window_count,
)
from .fourier import GridOp, angle_table, finite_points
from .orlicz import YoungFunction

#: ((pi/2 - arccos(1/4)) / 8)^2, the scaling applied to the normalized bump.
BUMP_PREFACTOR = ((0.5 * math.pi - math.acos(0.25)) / 8.0) ** 2


def make_bump(n: int, grid_size: int) -> GridFunction2D:
    """
    Grid indicator of [0, gamma(n)]^2 with exact height 1/gamma(n)^2, its
    support snapped to whole grid cells (so its integral is 1 up to the
    snapping).  The bump of the means experiments is this times BUMP_PREFACTOR.
    """
    min_grid = 16.0 * phase_rate(n) / math.pi
    if grid_size < min_grid:
        raise GridResolutionError(
            f"grid {grid_size} too coarse for bump scale {n} (need >= {min_grid:.0f})"
        )
    g = gamma(n)
    cells = max(1, round(g / (2.0 * math.pi / grid_size)))
    values = np.zeros((grid_size, grid_size))
    origin = grid_size // 2  # index of the sample at x = 0
    values[origin : origin + cells, origin : origin + cells] = 1.0 / g ** 2
    return GridFunction2D(values=values)


def _axis_profile(n: int, u: np.ndarray, h=0.0) -> np.ndarray:
    """
    A_k(u) = Int_0^gamma D_k(u - s) ds = gamma/2 + sum_{j=1}^k (sin ju - sin j(u - gamma)) / j
    for k = 0..4^n - 1, shape (4^n, len(u)); each difference is taken as
    2 cos(j(u - gamma/2)) sin(j gamma/2), which cancels no digits when j gamma is small.

    With cell widths ``h`` (scalar or one per point) the entries are the cell
    averages (1/h) Int_{u-h/2}^{u+h/2} A_k: averaging multiplies the j-th term
    by sin(jh/2)/(jh/2), exactly 1 where h = 0, so point values keep every bit.
    Refuses NaN and infinite points, as every kernel form does.

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


def bump_mean_many(n: int, xs: np.ndarray, ys: np.ndarray, hx=0.0, hy=0.0) -> np.ndarray:
    """
    The order-2^{2n} logarithmic mean of the scaled bump on the lattice xs x ys,
    shape (len(xs), len(ys)), exact: every quadratical partial sum of the
    product bump factors into the two per-axis integrals of the Dirichlet
    kernel over the support [0, gamma(n)], so the mean is one matrix product
    A(xs)^T (w o A(ys)).  With cell widths ``hx``, ``hy`` (one per point) the
    entry (i, j) is the exact average of the mean over the cell
    [xs_i -+ hx_i/2] x [ys_j -+ hy_j/2] instead.
    """
    mean_weights = GridOp.norlund_log(4 ** n).weights()
    raw = _axis_profile(n, xs, hx).T @ (mean_weights[:, None] * _axis_profile(n, ys, hy))
    height = BUMP_PREFACTOR / gamma(n) ** 2
    return height * raw / (math.fsum(mean_weights) * math.pi ** 2)


@dataclass(frozen=True)
class BumpMeanReport:
    n: int
    min_ratio: float
    argmin: tuple[float, float]
    samples: int


def bump_mean_lower_bound(n: int, samples_per_rect: int = 9) -> BumpMeanReport:
    """
    Minimum of x y t_{2^{2n}}(scaled bump; x, y) over the lattice of the
    shrunken region: the desk-scale content of the pointwise lower bound
    t >= c / (x y) there.  A survey whose tables would exceed MAX_LATTICE_GIB is refused before
    they are allocated.
    """
    points = samples_per_rect * window_count(n)
    # 16 bytes an (order, lattice) profile entry and about 33 a lattice pair of products and
    # ratios: the tracemalloc peak at n = 3..5 for |X| up to 2000
    refuse_beyond_memory_limit(
        f"the bump survey at n = {n}, {samples_per_rect} samples per window",
        16 * 4 ** n * points + 33 * points ** 2,
    )
    xs = build_region(n, REGION_J).lattice(samples_per_rect)
    w = GridOp.norlund_log(4 ** n).weights()
    raw_min, argmin = lattice_survey(lambda u: _axis_profile(n, u), w, xs, (0.0,))
    min_ratio = BUMP_PREFACTOR / gamma(n) ** 2 * raw_min / math.pi ** 2
    return BumpMeanReport(n=n, min_ratio=min_ratio, argmin=argmin, samples=len(xs) ** 2)


@dataclass(frozen=True)
class GrowthReport:
    n: int
    l1_lower: float
    geometric_sum: float


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
    R's area times the exact cell mean from bump_mean_many.  Reported next to
    the exact geometric integral of 1/(x y) over the same region.
    """
    region = build_region(n, REGION_J)
    mids, widths = 0.5 * (region.lo + region.hi), region.hi - region.lo
    means = bump_mean_many(n, mids, mids, hx=widths, hy=widths)
    total = float(widths @ np.abs(means) @ widths)
    return GrowthReport(n=n, l1_lower=total, geometric_sum=geometric_sum(n))


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


def exceedance_measure(n: int, c1: float) -> ExceedanceReport:
    """
    Measure of the subset of the shrunken region where the kernel lower bound
    t >= c1 / (x y) certifies |t| > c1 * 2^{3n}, i.e. the exact region
    geometry {x y < 2^{-3n}}, computed analytically over all window pairs at
    once; c1 = 0 certifies the whole region.  ``bound`` is the normalized
    ratio measure * 2^{3n} / n.  A scale whose window-pair arrays would exceed
    the memory limit of refuse_beyond_memory_limit is refused before they are
    allocated.
    """
    if not 0.0 <= c1 < math.inf:
        raise ValueError(f"threshold coefficient must be finite and >= 0, got {c1}")
    if c1 > 0.0:
        # _area_under_hyperbola holds about seven float arrays and one mask over
        # the W^2 window pairs at its peak, 57 bytes a pair, with W = 2^(n-3);
        # the estimate needs only n, so it is checked before the windows are built
        refuse_beyond_memory_limit(f"measure's window-pair arrays at n = {n}", 57 * 4 ** (n - 3))
    region = build_region(n, REGION_J)
    scale = float(2 ** (3 * n))
    if c1 == 0.0:
        measure = region.total_measure()
    else:
        lo, hi = region.lo, region.hi
        measure = math.fsum(_area_under_hyperbola(lo[:, None], hi[:, None], lo, hi, 1.0 / scale).ravel())
    return ExceedanceReport(n=n, c1=c1, measure=measure, bound=measure * scale / n)


def r_nm(n: int, m: int) -> int:
    """
    Largest window index l with beta(l, n) <= 1 / (2^{3n} (beta(m, n) -
    gamma(n))) + gamma(n), or 0 when no l qualifies.  Grows like 2^n / m.
    beta is affine in l, so l is the floor of (rate * rhs - pi/2) / (2 pi);
    the floor is settled on beta itself, which the rounded quotient can miss
    by one where the bound is met exactly.
    """
    if n < 3:
        raise ValueError(f"scale must be >= 3, got {n}")
    if not 1 <= m <= 2 ** (n - 3):
        raise ValueError(f"window index must lie in [1, 2^(n-3)], got {m}")
    g = gamma(n)
    rhs = 1.0 / (2 ** (3 * n) * (beta(m, n) - g)) + g
    r = max(0, math.floor((phase_rate(n) * rhs - 0.5 * math.pi) / (2.0 * math.pi)))
    if beta(r + 1, n) <= rhs:
        return r + 1
    return r - 1 if r >= 1 and beta(r, n) > rhs else r


@dataclass(frozen=True)
class ProbeReport:
    n: int
    young: str
    l1_lower: float
    ratio: float


def operator_norm_probe(n: int, Q: YoungFunction, l1_lower: float) -> ProbeReport:
    """
    Desk-scale probe of the operator-norm divergence mechanism: the ratio
    l1_lower * 2^{4n} / Q(2^{4n}), for l1_lower = l1_growth(n).l1_lower, computed
    once and shared across several Q.  Growth of the ratio in n signals a
    Young function too weak to control the means.
    """
    u = float(2 ** (4 * n))
    ratio = l1_lower * u / float(Q(u))
    return ProbeReport(n=n, young=Q.name, l1_lower=l1_lower, ratio=ratio)
