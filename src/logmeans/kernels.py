"""
The logarithmic-mean kernel F_N in direct and closed form, the trigonometric
identities behind its lower bound, and the two-scale region geometry.

Closed form.  Writing D~_N(u) = sin((N+1/2)u) / (2 sin(u/2)) and
Phi_m(u) = sin^2(m u/2) / (2 sin^2(u/2)) (a Fejer-type ratio), double Abel
summation gives the exact identity

    sum_{k=1}^{N} cos(ku)/k
        = sum_{k=1}^{N-2} [2 / (k(k+1)(k+2))] Phi_{k+1}(u)
          + Phi_N(u) / (N(N-1)) + D~_N(u) / N - 3/4.

Substituting it into the product expansion of H_N * F_N(x, y) yields fifteen
terms R_1..R_15 (four telescoped main terms, nine explicit remainders, two
sine-sum cross terms).  Each term is evaluated from its full sums, in O(1) an
order: T is the identity solved for it, and T and the sine sums come from
sum_{k<=N} e^{iku}/k in closed form (cosine.log_partial_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cosine import cosine_kernel, log_partial_sums
from .fourier import angle_pair, dirichlet_kernel, integer_orders, reduce_angle
from .means import harmonic_number

ARCCOS_QUARTER = math.acos(0.25)
HALF_PI = 0.5 * math.pi
#: gamma(n) = GAMMA_SCALE / (2^{2n} + 1/2)
GAMMA_SCALE = (HALF_PI - ARCCOS_QUARTER) / 4.0

#: Keep-out distance from the removable-singularity tubes: closed_form_terms refuses points nearer.
EPS_SING = 1e-6

#: Angle-part entries a block of points holds in log_kernel_direct_many: a point holds
#: B = isqrt(N - 1) + 1 entries of N, the largest order, and under 32 floats an entry (1 MB).
KERNEL_PART_ELEMS = 4096

#: Elements one block of a survey may hold (8 MB): lattice_min's row blocks, kernel-verify's point
#: blocks and lemma_main_check's pair blocks (CLOSED_FORM_FLOATS an order a point), the candidate
#: blocks of its point screening and measure's window-pair blocks (AREA_FLOATS a pair).
BLOCK_ELEMS = 2 ** 20

#: Floats a point and order that closed_form_terms' callers size their blocks by: tracemalloc reads up
#: to 78 at one order with every argument on the near band (56 on the far band), 37 at seven orders.
CLOSED_FORM_FLOATS = 96

REGION_I = "I"
REGION_J = "J"


class EmptyRegionError(ValueError):
    """The requested region has no windows (scale n < 3)."""


class SingularTubeError(ValueError):
    """Closed-form evaluation requested too close to a singular tube."""


def phase_rate(n: int) -> float:
    """Oscillation rate 2^{2n} + 1/2 of the phase (2^{2n} + 1/2) x, at an integer scale n >= 1."""
    n = integer_orders(n, "scales", scalar=True)
    if n < 1:
        raise ValueError(f"scale must be >= 1, got {n}")
    return float(4 ** n) + 0.5


def alpha(m, n: int):
    """Left endpoint (arccos(1/4) + 2 pi m) / (2^{2n} + 1/2) of the m-th phase window; ``m`` may be an index array."""
    if np.any(np.asarray(m) < 0):
        raise ValueError(f"window index must be >= 0, got {np.min(m)}")
    return (ARCCOS_QUARTER + 2.0 * math.pi * m) / phase_rate(n)


def beta(m, n: int):
    """Right endpoint (pi/2 + 2 pi m) / (2^{2n} + 1/2) of the m-th phase window; ``m`` may be an index array."""
    if np.any(np.asarray(m) < 0):
        raise ValueError(f"window index must be >= 0, got {np.min(m)}")
    return (HALF_PI + 2.0 * math.pi * m) / phase_rate(n)


def gamma(n: int) -> float:
    """Shrink margin (pi/2 - arccos(1/4)) / (4 (2^{2n} + 1/2)); one quarter window width."""
    return GAMMA_SCALE / phase_rate(n)


#: Ceiling on the memory (GiB) of a command's arrays that grow with its flags, all of 1-D size: what
#: grows with lattice pairs, or with points times orders, is reduced in blocks of BLOCK_ELEMS.
MAX_LATTICE_GIB = 2


def refuse_beyond_memory_limit(what: str, nbytes: int) -> None:
    """
    Raise ValueError, naming ``what`` (with its scale or grid size) and the GiB count, over MAX_LATTICE_GIB.
    The byte count is compared as an integer, and past the float range its GiB are a Decimal quotient.
    """
    if nbytes > MAX_LATTICE_GIB * 2 ** 30:
        if nbytes.bit_length() < 1000:
            gib = nbytes / 2 ** 30
        else:  # imported here, as its import costs every run about 1.4 ms and 0.3 MB of RSS
            from decimal import Decimal

            gib = Decimal(nbytes) / 2 ** 30
        raise ValueError(f"{what} would take about {gib:.3g} GiB, over the {MAX_LATTICE_GIB} GiB limit")


@dataclass(frozen=True, eq=False)
class RegionSpec:
    """
    The product region U x U of scale n, where U is the union of the
    per-axis windows [lo[i], hi[i]] (I_m = [alpha_m, beta_m],
    1 <= m <= 2^{n-3}, for kind I; each shrunk by gamma(n) at both ends for
    kind J).  Every region quantity is computed per axis from the endpoint
    arrays ``lo`` and ``hi``; the 4^{n-3} cells I_m x I_l are never listed.
    """

    lo: np.ndarray
    hi: np.ndarray

    def lattice(self, per_axis: int = 9) -> np.ndarray:
        """
        Deterministic per-axis sample: an inclusive ``per_axis``-point grid on
        every window (endpoints included), in window order.  The region's
        sample is the square lattice X x X, which puts the per_axis x per_axis
        grid on every rectangle.
        """
        if per_axis < 2:
            raise ValueError("need at least 2 samples per axis to include corners")
        return np.linspace(self.lo, self.hi, per_axis, axis=1).ravel()


def window_count(n: int) -> int:
    """Windows 2^(n-3) per axis of the region of integer scale n; EmptyRegionError below 3, where it has none."""
    n = integer_orders(n, "scales", scalar=True)
    if n < 3:
        raise EmptyRegionError(f"region is empty for n = {n} (2^(n-3) < 1)")
    return 2 ** (n - 3)


def build_region(n: int, kind: str) -> RegionSpec:
    """
    Build the two-dimensional region of scale n >= 3: the windows 1 <= m <= 2^{n-3} on each axis (the second
    window constraint is applied to y, making the region a genuine product of phase windows), as endpoint arrays
    in closed form over m.  A window is 4 gamma(n) wide, so the J shrink leaves 2 gamma(n) of it.  A scale whose
    window arrays (4 floats a window: m, a temporary, lo, hi) would exceed MAX_LATTICE_GIB is refused first.
    """
    if kind not in (REGION_I, REGION_J):
        raise ValueError(f"region kind must be {REGION_I!r} or {REGION_J!r}, got {kind!r}")
    windows = window_count(n)
    refuse_beyond_memory_limit(f"the region's window arrays at n = {n}", 32 * windows)
    shrink = gamma(n) if kind == REGION_J else 0.0
    m = np.arange(1, windows + 1)
    return RegionSpec(lo=alpha(m, n) + shrink, hi=beta(m, n) - shrink)


def lattice_min(xs: np.ndarray, rows) -> tuple[float, tuple[float, float]]:
    """
    Minimum of the ratios r = x y table[i, j] over the lattice xs x xs, and the first row-major argmin
    (x, y) of min(r, r^T): the means are symmetric in (x, y), but a BLAS product is not bit-symmetric.
    ``rows(b)`` returns the table's rows in the slice b, in blocks of max(1, BLOCK_ELEMS // len(xs)).
    That argmin is the least (min(i, j), max(i, j)) over r's minima: the blocks carry it and no transpose.
    A NaN ratio ranks below every number, as in np.min: the minimum is then NaN, at the first NaN so found.
    """
    step, best, pair = max(1, BLOCK_ELEMS // len(xs)), math.inf, (math.inf,)
    for start in range(0, len(xs), step):
        ratios = xs[start : start + step, None] * xs[None, :] * rows(slice(start, start + step))
        low = ratios.min()
        if math.isnan(low) or low <= best:
            i, j = np.nonzero(np.isnan(ratios) if math.isnan(low) else ratios == low)
            found = min(zip(np.minimum(i + start, j).tolist(), np.maximum(i + start, j).tolist()))
            tie = math.isnan(best) if math.isnan(low) else low == best
            best, pair = low, min(pair, found) if tie else found
    return float(best), (float(xs[pair[0]]), float(xs[pair[1]]))


def _orders(N) -> tuple[list[int], bool]:
    """
    The kernel order argument ``N`` as a list of orders and whether it was one int order: an int,
    or a nonempty sequence of strictly ascending orders, the last the largest: the direct form lays
    out its parts by it, and cosine.log_partial_sums takes every order's far band at its far points
    and its orders below 64 as prefixes of one running sum.
    Refuses an order that is not an integer (fourier.integer_orders; a float is not truncated).
    """
    orders = integer_orders(N, "kernel orders")
    if np.ndim(orders) == 0:
        return [orders], True
    if orders.ndim != 1 or orders.size == 0 or np.any(np.diff(orders) <= 0):
        raise ValueError(f"kernel orders must be a nonempty strictly ascending sequence, got {list(N)}")
    return orders.tolist(), False


def _paired(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ys`` as float arrays of paired points; refuses arrays that do not pair up."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"points must be paired 1-D arrays, got x shape {xs.shape} and y shape {ys.shape}")
    return xs, ys


# ----------------------------------------------------------------------------
# trigonometric sums
# ----------------------------------------------------------------------------

def sin_sum(N, u) -> float | np.ndarray:
    """
    sum_{k=1}^{N} sin(ku)/k, shaped as ``u``; bounded uniformly in N.  For a sequence of ascending orders,
    one such result per order (a leading order axis).  The imaginary part of cosine.log_partial_sums at u
    reduced to r in [-pi, pi], in O(1) an order.  Refuses NaN and infinite u.
    """
    orders, one = _orders(N)
    if orders[0] < 1:
        raise ValueError(f"N must be >= 1, got {orders[0]}")
    r = reduce_angle(np.ravel(u))[0]
    out = log_partial_sums(orders, r).imag.reshape((len(orders), *np.shape(u)))
    out = out[0] if one else out
    return float(out) if out.ndim == 0 else out


def fejer_ratio(m, u) -> float | np.ndarray:
    """
    Phi_m(u) = sin^2(m u / 2) / (2 sin^2(u / 2)); limit m^2 / 2 at u = 0 mod 2*pi.  ``m`` is an
    integer order, or an integer array of orders that broadcasts against the points ``u``; a float
    for a 0-d result.
    """
    m = integer_orders(m, "kernel orders")
    r, half_sin, zero = reduce_angle(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(0.5 * m * r) ** 2 / (2.0 * half_sin ** 2)
    out = np.where(zero, 0.5 * m * m, ratio)
    return float(out) if out.ndim == 0 else out


def _telescoped_orders(orders: list[int], u) -> tuple[np.ndarray, ...]:
    """
    The parts (T, V, W) of the telescoped cosine-sum form, and sin_sum(N, u), for every order N
    of the ascending ``orders`` at every point of ``u``, each one (orders, points) array:

        T = sum_{k=1}^{N-2} [2/(k(k+1)(k+2))] Phi_{k+1}(u),
        V = Phi_N(u)/(N(N-1)),   W = D~_N(u)/N,

    so that sum_{k=1}^{N} cos(ku)/k = T + V + W - 3/4.  V and W come from one fejer_ratio and one
    dirichlet_kernel call each over the column of all orders, and T is the identity solved for it from
    the real part of cosine.log_partial_sums, whose imaginary part is the sine sum, in O(1) an order.
    At u = 0 mod 2*pi each part takes its removable limit, T's through V's and W's.  A point's values
    do not depend on the other orders or points.
    """
    r = reduce_angle(np.atleast_1d(u))[0]
    sums = log_partial_sums(orders, r)
    n = np.array(orders)[:, None]
    V = fejer_ratio(n, r) / (n * (n - 1.0))
    W = dirichlet_kernel(n, r) / n
    return sums.real - V - W + 0.75, V, W, sums.imag


# ----------------------------------------------------------------------------
# kernel forms
# ----------------------------------------------------------------------------

def tube_distances(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """
    The tube arguments x, y, x + y, x - y of the paired points, shape (4, P), and the distance
    |remainder(arg, 2 pi)| of each to its singular tube arg = 0 (mod 2 pi).  The sums are
    rounded once and the reduction is exact, as math.remainder is.  Refuses NaN and infinite points.
    """
    xs, ys = _paired(xs, ys)
    args = np.stack([xs, ys, xs + ys, xs - ys])
    return args, np.abs(reduce_angle(args)[0])


def log_kernel_direct(N: int, t: float, s: float) -> float:
    """
    F_N(t, s) = (1/H_N) sum_{k=0}^{N-1} D_k(t) D_k(s) / (N - k), summed
    directly (log_kernel_direct_many at one point).  Total (no
    singularities); cost O(N).
    """
    return float(log_kernel_direct_many(N, np.array([t]), np.array([s]))[0])


def log_kernel_direct_many(N, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """
    Direct-form F_N over paired point arrays: D_k(t) D_k(s) = sin((k + 1/2) t) sin((k + 1/2) s)
    / (4 sin(t/2) sin(s/2)), and with k = B q + j, B = ceil(sqrt(N)) of the largest order N,
    sin((1/2 + k) u) = sin a cos b + cos a sin b at a = (1/2 + B q) u and b = j u, so each sine
    product is four products of the parts at t times four at s: X (points, 4, B) of the b-parts
    and A (points, 4, Q) of the a-parts, from two angle_pair calls of about sqrt(N) entries.
    Every order's Norlund weights 1/(n - k) are written straight into max(1, ceil(n / B)) rows of one
    zeroed (rows, B) matrix W, and F_N's sum is sum_q sum_c A_c[q] (W X_c)[q] over the order's rows,
    the four terms added as (0 + 1) + (2 + 3): one product, one gather and one np.add.reduceat for
    all orders, a small product of its own a point, so no point's sums depend on another's.  One division by
    4 sin(t/2) sin(s/2) H_N follows.  At t = 0 mod 2 pi the parts at t are those of the limit
    k + 1/2 of D_k, (1/2 + B q) 1 + 1 j, and its divisor factor is 1 (the same for s).  The two
    cross products are summed as a pair, so F(t, s) == F(s, t) bit for bit.  For a sequence of
    ascending orders, one row per order.
    """
    orders, one = _orders(N)
    if orders[0] < 1:
        raise ValueError(f"N must be >= 1, got {orders[0]}")
    t, s = _paired(t, s)
    r, half_sin, zero = reduce_angle(np.stack([t, s]))
    B = math.isqrt(orders[-1] - 1) + 1  # the orders k = B q + j, j < B, q < Q, as angle_table splits them
    Q, step = -(-orders[-1] // B), max(1, KERNEL_PART_ELEMS // B)
    counts = [max(1, -(-n // B)) for n in orders]
    starts = np.cumsum([0, *counts[:-1]])  # each order's first row of W
    W = np.zeros((sum(counts), B))
    for start, count, n in zip(starts, counts, orders):
        np.divide(1.0, np.arange(n, 0, -1.0), out=W[start : start + count].reshape(-1)[:n])
    a_rows = np.concatenate([np.arange(count) for count in counts])  # the a-part q of each row of W
    out = np.empty((len(orders), len(t)))
    for block in (slice(start, start + step) for start in range(0, len(t), step)):
        u = r[:, block].ravel()  # the points t, then s
        parts = (*angle_pair(u, 0.5, Q, step=B), *angle_pair(u, 0, B))
        for part, limit in zip(parts, (0.5 + B * np.arange(Q), 1.0, np.arange(B), 1.0)):
            part[zero[:, block].ravel()] = limit
        (sat, sas), (cat, cas), (sbt, sbs), (cbt, cbs) = (part.reshape(2, -1, part.shape[1]) for part in parts)
        X = np.stack([cbt * cbs, sbt * sbs, cbt * sbs, sbt * cbs], axis=1)
        A = np.stack([sat * sas, cat * cas, sat * cas, cat * sas], axis=1)
        Y = X @ W.T
        Y *= A[..., a_rows]
        out[:, block] = np.add.reduceat((Y[:, 0] + Y[:, 1]) + (Y[:, 2] + Y[:, 3]), starts, axis=1).T
    divisor = np.prod(np.where(zero, 1.0, 2.0 * half_sin), axis=0)
    out /= np.array([harmonic_number(n) for n in orders])[:, None] * divisor
    return out[0] if one else out


@dataclass(frozen=True)
class KernelEvaluation:
    """Closed-form kernel value with its 15-term breakdown (on the H_N * F_N scale, display order)."""

    value: float
    terms: np.ndarray


def closed_form_terms(N, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """
    The 15-term breakdown R_1..R_15 of H_N * F_N at the points (xs, ys),
    shape (P, 15) in display order, each from its full sums.

    Refuses points within EPS_SING of the singular tubes x = 0, y = 0,
    x + y = 0, x - y = 0 (mod 2*pi); callers should fall back to
    log_kernel_direct_many there.  Arguments with x - y or x + y *exactly*
    zero are allowed: the terms have removable limits on the diagonals.

    ``N`` may be a sequence of ascending orders: the result then gains a leading
    order axis, (orders, P, 15).  One _telescoped_orders call at x + y and x - y
    serves every order; the factors and terms of every order are then finished
    together, as (orders, P) arrays.
    """
    orders, one = _orders(N)
    if orders[0] < 3:
        raise ValueError(f"closed form needs N >= 3, got {orders[0]}")
    args, distance = tube_distances(xs, ys)
    near = distance < EPS_SING
    # only exact zero takes the removable-limit branch on the diagonals;
    # anything else near a tube (including exact nonzero multiples of 2*pi)
    # is refused
    near[2:] &= args[2:] != 0.0
    if np.any(near):
        i, j = np.argwhere(near)[0]
        name = ("x", "y", "x+y", "x-y")[i]
        raise SingularTubeError(f"{name} = {float(args[i, j])!r} within {EPS_SING} of a singular tube")
    xs, ys, up, um = args
    denom = 4.0 * np.sin(0.5 * xs) * np.sin(0.5 * ys)
    parts = _telescoped_orders(orders, np.concatenate([up, um]))
    (Tp, Vp, Wp, Sp), (Tm, Vm, Wm, Sm) = zip(*(np.split(part, 2, axis=1) for part in parts))
    rate = np.array(orders, dtype=float)[:, None] + 0.5
    sx, cx = np.sin(rate * xs), np.cos(rate * xs)
    sy, cy = np.sin(rate * ys), np.cos(rate * ys)
    SS, CC = sx * sy / denom, cx * cy / denom
    SC, CS = sx * cy / denom, cx * sy / denom
    products = (  # (coefficient, factor, part) of R1..R15 in display order
        (0.5, SS, Tp), (0.5, SS, Tm), (0.5, CC, Tm), (-0.5, CC, Tp),                     # R1-R4
        (0.5, SS, Vp), (0.5, SS, Wp), (-0.75, SS, 1.0), (0.5, SS, Vm), (0.5, SS, Wm),     # R5-R9
        (0.5, CC, Vm), (0.5, CC, Wm), (-0.5, CC, Vp), (-0.5, CC, Wp),                   # R10-R13
        (-0.5, SC, Sp - Sm), (-0.5, CS, Sp + Sm),                                       # R14-R15
    )
    terms = np.empty((15, len(orders), len(xs)))  # a contiguous slab a term: 2.8x faster than strided columns
    for col, (coeff, factor, part) in enumerate(products):
        np.multiply(coeff * factor, part, out=terms[col])
    return np.moveaxis(terms[:, 0] if one else terms, 0, -1)


def log_kernel_closed(N: int, x: float, y: float) -> KernelEvaluation:
    """
    Closed-form F_N(x, y) with the 15-term breakdown: closed_form_terms at
    one point, with its EPS_SING tube refusal.
    """
    terms = closed_form_terms(N, np.array([x]), np.array([y]))[0]
    return KernelEvaluation(value=float(np.sum(terms)) / harmonic_number(N), terms=terms)


# ----------------------------------------------------------------------------
# kernel lower-bound survey
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaSurvey:
    """
    Survey of the kernel lower bound at scale n (N = 2^{2n}).

    ``i_min_ratio`` is the minimum of x y F_N(x, y) over the I-region
    lattice; ``j_min_ratio`` additionally minimizes F over the four corner
    offsets (s, t) in {0, gamma(n)}^2 before multiplying by x y.  ``tail_bound`` is the largest
    summation-by-parts remainder bound of the C_N entries behind both (cosine_kernel).
    """

    n: int
    samples_per_rect: int
    i_samples: int
    i_min_ratio: float
    i_argmin: tuple[float, float]
    j_samples: int
    j_min_ratio: float
    j_argmin: tuple[float, float]
    tail_bound: float

    def csv_rows(self) -> list[list]:
        return [
            [self.n, REGION_I, self.i_min_ratio, self.i_argmin[0], self.i_argmin[1], self.i_samples],
            [self.n, REGION_J, self.j_min_ratio, self.j_argmin[0], self.j_argmin[1], self.j_samples],
        ]


@dataclass(frozen=True)
class LemmaReport(LemmaSurvey):
    """The survey plus the closed-form main-term minimum over n and remainder maximum (H_N F_N scale)."""

    main_min_over_n: float
    remainder_max: float


def _lattice_kernels(n: int, per_axis: int) -> tuple[dict, float]:
    """
    For each region kind, its lattice xs = build_region(n, kind).lattice(per_axis) and rows(b): the rows
    in the slice b of min over the shift pairs (s, t) of 8 H_N F_N(x - s, y - t), N = 4^n, on xs x xs
    (the shifts are 0 and, on J, gamma(n)); and the largest tail bound of cosine_kernel over them all.

    C_N's arguments come from integer indices, never from float sums x +- y.  With rho = N + 1/2 and
    span = (2 - per_axis mod 2)(per_axis - 1), an even count, every point of both kinds, J's shifted
    ones included, is alpha_m = (arccos(1/4) + 2 pi m)/rho plus o units, unit = 2 gamma(n)/span, for a
    whole o in 0..2 span: J's step is 2 - per_axis mod 2 units, I's twice that, and gamma(n) is span/2
    units, the J shrink and the shift alike.  So, with j = m - 1 and l the windows of x and y from 0,

        x - y = 2 pi (j - l)/rho + (o_x - o_y) unit,
        x + y = 2 pi (j + l + 2)/rho + 2 arccos(1/4)/rho + (o_x + o_y) unit,

    and one difference table over offsets 0..2 span (mirrored, as C_N is even) and one sum table over
    offsets 0..4 span, each by the 2 windows - 1 window distances, serve both kinds in one cosine_kernel
    call.  With a point's key o (2 windows - 1) + j, a pair's flat sum entry is the two keys' sum and its
    difference entry their difference past the entry of x - y = 0: one gather a table and pair.  rows(b)
    takes each shift pair over the rows in b alone and keeps their running minimum.
    """
    N, rho, windows = 4 ** n, phase_rate(n), window_count(n)
    span = (2 - per_axis % 2) * (per_axis - 1)
    unit, width = 2.0 * gamma(n) / span, 2 * windows - 1
    differences, sums = np.arange(1 - windows, windows), np.arange(2, 2 * windows + 1)
    offsets = [unit * np.arange(2 * span + 1), 2.0 * ARCCOS_QUARTER / rho + unit * np.arange(4 * span + 1)]
    values, tail = cosine_kernel(
        N,
        np.concatenate([np.tile(differences, 2 * span + 1), np.tile(sums, 4 * span + 1)]),
        np.repeat(np.concatenate(offsets), width),
    )
    half, total = np.split(values, [(2 * span + 1) * width])
    half = half.reshape(-1, width)
    diff = np.concatenate([half[:0:-1, ::-1], half]).ravel()  # offsets -2 span..2 span
    zero = 2 * span * width + windows - 1  # diff's entry of x - y = 0
    steps = (2 - per_axis % 2) * np.tile(np.arange(per_axis), windows)  # J's steps, in units
    j = np.repeat(np.arange(windows), per_axis)
    by_kind = {}
    for kind, o, shifts in ((REGION_I, 2 * steps, np.array([0])), (REGION_J, steps + span // 2, np.array([0, 1]))):
        key = (o - span // 2 * shifts[:, None]) * width + j  # shifts in gamma(n)
        xs = build_region(n, kind).lattice(per_axis)
        half_sin = np.sin(0.5 * (xs - gamma(n) * shifts[:, None]))

        def rows(b: slice, key=key, half_sin=half_sin) -> np.ndarray:
            out = None
            for s, t in np.ndindex(len(key), len(key)):
                f = diff[(key[s, b, None] + zero) - key[t]]
                f -= total[key[s, b, None] + key[t]]
                f /= half_sin[s, b, None] * half_sin[t]
                out = f if out is None else np.minimum(out, f, out=out)
            return out

        by_kind[kind] = xs, rows
    return by_kind, tail


#: A lemma lattice point's share of the survey's 1-D arrays: under 24 C_N table entries (12 at an odd
#: samples_per_rect), each under 28 floats while _lattice_kernels lays it out and cosine_kernel evaluates
#: it (27.8 measured at n = 5 and 40 samples, 18.1 from n = 10 on), and under 48 floats of per-axis arrays.
LEMMA_FLOATS_PER_POINT = 24 * 28 + 48


def lemma_survey(n: int, samples_per_rect: int = 9) -> LemmaSurvey:
    """
    Evaluate r(x, y) = x y F_{2^{2n}}(x, y) on the I-region lattice (through the cosine kernel C_N of
    cosine_kernel) and report the minimum, together with the corner-offset minimum over the J-region
    lattice, and the largest summation-by-parts tail bound of the C_N entries.  Deterministic: fixed
    sample lattice, fixed reductions.  lattice_min walks the lattice pairs in blocks; a scale whose
    1-D arrays would exceed MAX_LATTICE_GIB is refused first.
    """
    windows = window_count(n)  # EmptyRegionError below scale 3, before gamma(n) refuses n < 1
    what = f"lemma's survey at n = {n}, {samples_per_rect} samples per window"
    refuse_beyond_memory_limit(what, 8 * LEMMA_FLOATS_PER_POINT * samples_per_rect * windows)
    by_kind, tail = _lattice_kernels(n, samples_per_rect)
    fields, scale = [], 8.0 * harmonic_number(4 ** n)
    for kind in (REGION_I, REGION_J):
        xs, rows = by_kind[kind]
        fields += [len(xs) ** 2, *lattice_min(xs, lambda b: rows(b) / scale)]
    return LemmaSurvey(n, samples_per_rect, *fields, tail_bound=tail)


def lemma_main_check(n: int, samples_per_rect: int = 9) -> LemmaReport:
    """
    lemma_survey plus the closed form's main/remainder split on the I-region lattice;
    refuses, with SingularTubeError, scales whose lattice comes within EPS_SING of a tube (n >= 8).
    The pairs are taken in blocks of BLOCK_ELEMS // CLOSED_FORM_FLOATS; min and max are exact.
    """
    survey = lemma_survey(n, samples_per_rect)
    xs = build_region(n, REGION_I).lattice(samples_per_rect)
    main_min, remainder_max, step = math.inf, -math.inf, BLOCK_ELEMS // CLOSED_FORM_FLOATS
    for start in range(0, len(xs) ** 2, step):
        xx, yy = xs[np.stack(np.divmod(np.arange(start, min(start + step, len(xs) ** 2)), len(xs)))]
        terms = closed_form_terms(4 ** n, xx, yy)
        main_min = np.minimum(main_min, np.min(xx * yy * np.sum(terms[:, :4], axis=1) / n))
        remainder_max = np.maximum(remainder_max, np.max(xx * yy * np.sum(np.abs(terms[:, 4:]), axis=1)))
    return LemmaReport(**vars(survey), main_min_over_n=float(main_min), remainder_max=float(remainder_max))
