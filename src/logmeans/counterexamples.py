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
    lattice_min,
    phase_rate,
    beta,
)
from .fourier import GridOp, finite_points
from .orlicz import YoungFunction

#: ((pi/2 - arccos(1/4)) / 8)^2, the scaling applied to the normalized bump.
BUMP_PREFACTOR = ((0.5 * math.pi - math.acos(0.25)) / 8.0) ** 2
#: Gauss-Legendre nodes per axis of each region rectangle in ``l1_growth``.
L1_QUAD_PER_RECT = 12


@dataclass(frozen=True)
class BumpSpec:
    """Geometry of a concentrated square bump at scale n, snapped to a grid."""

    n: int
    scaled: bool
    support_hi: float          # snapped right edge of [0, support_hi]^2
    height: float              # exact 1/gamma^2 (times the prefactor if scaled)
    snapped_measure: float
    target_measure: float      # gamma(n)^2
    measure_discrepancy: float  # snapped/target - 1


def make_bump(n: int, scaled: bool, grid_size: int) -> tuple[GridFunction2D, BumpSpec]:
    """
    Grid indicator of [0, gamma(n)]^2 with exact height 1/gamma(n)^2 (times
    the bump prefactor when ``scaled``).  The support is snapped to whole
    grid cells; the snapped-vs-analytic measure discrepancy is reported in
    the returned BumpSpec.
    """
    min_grid = 16.0 * phase_rate(n) / math.pi
    if grid_size < min_grid:
        raise GridResolutionError(
            f"grid {grid_size} too coarse for bump scale {n} (need >= {min_grid:.0f})"
        )
    g = gamma(n)
    h = 2.0 * math.pi / grid_size
    cells = max(1, round(g / h))
    height = (BUMP_PREFACTOR if scaled else 1.0) / g ** 2
    values = np.zeros((grid_size, grid_size), dtype=complex)
    origin = grid_size // 2  # index of the sample at x = 0
    values[origin : origin + cells, origin : origin + cells] = height
    grid = GridFunction2D(values=values, is_real=True)
    snapped = (cells * h) ** 2
    spec = BumpSpec(
        n=n,
        scaled=scaled,
        support_hi=cells * h,
        height=height,
        snapped_measure=snapped,
        target_measure=g ** 2,
        measure_discrepancy=snapped / g ** 2 - 1.0,
    )
    return grid, spec


def _axis_profile(n: int, u: np.ndarray) -> np.ndarray:
    """
    A_k(u) = Int_0^gamma D_k(u - s) ds = gamma/2 + sum_{j=1}^k (sin ju - sin j(u - gamma)) / j
    for k = 0..4^n - 1, shape (4^n, len(u)); each difference is taken as
    2 cos(j(u - gamma/2)) sin(j gamma/2), which cancels no digits when j gamma is small.
    Refuses NaN and infinite points, as every kernel form does.
    """
    u = finite_points(u)
    g = gamma(n)
    j = np.arange(1, 4 ** n)[:, None]
    profile = np.empty((4 ** n, len(u)))
    profile[0] = 0.5 * g
    profile[1:] = np.cos(j * (u - 0.5 * g)) * (2.0 * np.sin(0.5 * g * j) / j)
    return np.cumsum(profile, axis=0, out=profile)


def bump_mean_many(n: int, xs: np.ndarray, ys: np.ndarray, scaled: bool = True) -> np.ndarray:
    """
    The order-2^{2n} logarithmic mean of the bump on the lattice xs x ys,
    shape (len(xs), len(ys)), exact: every quadratical partial sum of the
    product bump factors into the two per-axis integrals of the Dirichlet
    kernel over the support [0, gamma(n)], so the mean is one matrix product
    A(xs)^T (w o A(ys)).
    """
    mean_weights = GridOp.norlund_log(4 ** n).weights()
    raw = _axis_profile(n, xs).T @ (mean_weights[:, None] * _axis_profile(n, ys))
    height = (BUMP_PREFACTOR if scaled else 1.0) / gamma(n) ** 2
    return height * raw / (math.fsum(mean_weights) * math.pi ** 2)


def bump_mean(n: int, x: float, y: float, scaled: bool = True) -> float:
    return float(bump_mean_many(n, np.array([x]), np.array([y]), scaled)[0, 0])


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
    t >= c / (x y) there.
    """
    xs = build_region(n, REGION_J).lattice(samples_per_rect)
    min_ratio, argmin = lattice_min(xs, bump_mean_many(n, xs, xs, scaled=True))
    return BumpMeanReport(n=n, min_ratio=min_ratio, argmin=argmin, samples=len(xs) ** 2)


@dataclass(frozen=True)
class GrowthReport:
    n: int
    l1_lower: float
    geometric_sum: float


def geometric_sum(n: int) -> float:
    """
    Exact Int over the shrunken region of dx dy / (x y): per rectangle the
    integral factorizes into a product of log ratios of the endpoints.
    """
    region = build_region(n, REGION_J)
    return math.fsum(
        math.log(bx / ax) * math.log(by / ay) for ax, bx, ay, by in region.rectangles
    )


def l1_growth(n: int) -> GrowthReport:
    """
    Region-restricted lower bound on || t_{2^{2n}}(scaled bump) ||_1: the
    quadrature of |t| over the shrunken region only (the inexpensive part the
    quadratic growth estimate actually bounds), next to the exact geometric
    integral of 1/(x y) over the same region.
    """
    nodes, weights = np.polynomial.legendre.leggauss(L1_QUAD_PER_RECT)
    intervals = build_region(n, REGION_J).intervals
    s = np.concatenate([0.5 * (b - a) * (nodes + 1.0) + a for a, b in intervals])
    w = np.concatenate([0.5 * (b - a) * weights for a, b in intervals])
    total = float(w @ np.abs(bump_mean_many(n, s, s)) @ w)
    return GrowthReport(n=n, l1_lower=total, geometric_sum=geometric_sum(n))


@dataclass(frozen=True)
class ExceedanceReport:
    n: int
    c1: float
    measure: float
    bound: float


def _rect_area_under_hyperbola(ax: float, bx: float, ay: float, by: float, theta: float) -> float:
    """Exact area of {(x, y) in [ax,bx] x [ay,by] : x y < theta} for 0 < ax, 0 < ay."""
    if theta <= ax * ay:
        return 0.0
    if theta >= bx * by:
        return (bx - ax) * (by - ay)
    x1 = min(max(theta / by, ax), bx)
    x2 = min(max(theta / ay, ax), bx)
    area = (x1 - ax) * (by - ay)
    if x2 > x1:
        area += theta * math.log(x2 / x1) - ay * (x2 - x1)
    return area


def exceedance_measure(
    n: int,
    c1: float,
    bound_coeff: float | None = None,
) -> ExceedanceReport:
    """
    Measure of the subset of the shrunken region where the kernel lower bound
    t >= bound_coeff / (x y) certifies |t| > c1 * 2^{3n}; equivalently the
    exact region geometry {x y < bound_coeff / (c1 2^{3n})}, computed
    analytically per rectangle.  ``bound_coeff`` defaults to c1 (the fitted
    constant plays both roles), in which case the threshold reduces to
    1/(x y) > 2^{3n}.  ``bound`` is the normalized ratio measure * 2^{3n} / n.
    """
    if c1 < 0.0:
        raise ValueError(f"threshold coefficient must be >= 0, got {c1}")
    region = build_region(n, REGION_J)
    scale = float(2 ** (3 * n))
    if c1 == 0.0:
        measure = region.total_measure()
    else:
        coeff = c1 if bound_coeff is None else bound_coeff
        theta = coeff / (c1 * scale)
        measure = math.fsum(
            _rect_area_under_hyperbola(ax, bx, ay, by, theta)
            for ax, bx, ay, by in region.rectangles
        )
    return ExceedanceReport(n=n, c1=c1, measure=measure, bound=measure * scale / n)


def r_nm(n: int, m: int) -> int:
    """
    Largest window index l with beta(l, n) <= 1 / (2^{3n} (beta(m, n) -
    gamma(n))) + gamma(n), by direct scan (beta is increasing in l), or 0
    when no l qualifies.  Grows like 2^n / m.
    """
    if n < 3:
        raise ValueError(f"scale must be >= 3, got {n}")
    if not 1 <= m <= 2 ** (n - 3):
        raise ValueError(f"window index must lie in [1, 2^(n-3)], got {m}")
    g = gamma(n)
    rhs = 1.0 / (2 ** (3 * n) * (beta(m, n) - g)) + g
    r = 0
    l = 1
    while beta(l, n) <= rhs:
        r = l
        l += 1
    return r


@dataclass(frozen=True)
class ProbeReport:
    n: int
    young: str
    l1_lower: float
    ratio: float


def operator_norm_probe(n: int, Q: YoungFunction, l1_lower: float | None = None) -> ProbeReport:
    """
    Desk-scale probe of the operator-norm divergence mechanism: the ratio
    l1_lower(n) * 2^{4n} / Q(2^{4n}).  Growth of the ratio in n signals a
    Young function too weak to control the means; pass a precomputed
    ``l1_lower`` to amortize the quadrature across several Q.
    """
    if l1_lower is None:
        l1_lower = l1_growth(n).l1_lower
    u = float(2 ** (4 * n))
    ratio = l1_lower * u / float(Q(u))
    return ProbeReport(n=n, young=Q.name, l1_lower=l1_lower, ratio=ratio)
