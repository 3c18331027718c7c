import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from logmeans.fourier import (
    BandwidthError, GridOp, SpectralCoeffs, angle_pair, angle_table, dirichlet_kernel, dirichlet_matrix, evaluate_grid,
    finite_points, reduce_angle,
)
from logmeans.grid import GridFunction2D, GridResolutionError, axis_points
from logmeans.counterexamples import _area_under_hyperbola, make_bump
from logmeans.kernels import (
    ARCCOS_QUARTER, BLOCK_ELEMS, _orders, _paired, alpha, beta, build_region, fejer_ratio, gamma, phase_rate,
)
from logmeans.means import harmonic_number
from logmeans.cli import _R2_A1, _R2_A2, _TUBE_MARGIN
from logmeans.orlicz import LOG2, StepFunction, YoungFunction, luxemburg_norm


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
    return evaluate_grid(coeffs, GridOp("quad", bandwidth)), coeffs


def coeff(c, m, n):
    """c(m, n) of SpectralCoeffs ``c``, for |m|, |n| <= its bandwidth."""
    return complex(c.coeffs[c.bandwidth + m, c.bandwidth + n])


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


def full_lattice_min(xs, table):
    """
    Reference lattice minimum over the whole table at once: the minimum of x y table[i, j] over the
    lattice xs x xs and the first row-major argmin (x, y) of the symmetrized ratios min(r, r^T).
    """
    ratios = xs[:, None] * xs[None, :] * table
    ratios = np.minimum(ratios, ratios.T)
    i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
    return float(ratios[i, j]), (float(xs[i]), float(xs[j]))


def full_exceedance_measure(n):
    """Reference exceedance measure at scale n: one math.fsum over the areas of every window pair, broadcast at once."""
    region = build_region(n, "J")
    lo, hi = region.lo, region.hi
    return math.fsum(_area_under_hyperbola(lo[:, None], hi[:, None], lo, hi, 1.0 / float(2 ** (3 * n))).ravel())


def lattice_survey(N, xs, shifts):
    """
    Reference lattice survey through the (order x lattice) Dirichlet tables: the minimum of
    x y min_{s, t in shifts} F_N(x - s, y - t) over the lattice xs x xs and its first row-major
    argmin.  One table D_k(xs - s), k < N, per shift, and one Norlund-weighted product per pair
    s <= t: the (t, s) product is its transpose, which full_lattice_min's symmetrization covers.
    """
    weights = GridOp("norlund-log", N).weights()
    tables = [dirichlet_matrix(np.arange(N), xs - s) for s in shifts]
    products = [left.T @ (weights[:, None] * right) for b, right in enumerate(tables) for left in tables[: b + 1]]
    return full_lattice_min(xs, np.minimum.reduce(products) / math.fsum(weights))


def norlund_cosine_table(N, distances, offsets):
    """
    Reference Norlund cosine kernel C_N(u) = sum_{k<N} cos((k + 1/2) u) / (N - k), summed over every
    order, at u = 2 pi d / (N + 1/2) + c for every offset c in ``offsets`` (rows) and window distance d in
    ``distances`` (columns); any N >= 1.  By cos(a (t + c)) = cos(a t) cos(a c) - sin(a t) sin(a c), each
    block of orders adds two products of angle_table tables, the offsets' weighted by the Norlund weights;
    a block's table of both vectors holds at most BLOCK_ELEMS elements.  Refuses NaN and infinite input.
    """
    weights = GridOp("norlund-log", N).weights()
    offsets = finite_points(offsets)
    angles = np.concatenate([offsets, 2.0 * math.pi / (N + 0.5) * finite_points(distances)])
    c = len(offsets)
    table = np.zeros((c, len(angles) - c))
    step = max(1, BLOCK_ELEMS // len(angles))
    for start in range(0, N, step):
        count = min(step, N - start)
        cos = angle_table(angles, start + 0.5, count, cosine=True)
        sin = angle_table(angles, start + 0.5, count)
        cos[:c] *= weights[start : start + count]
        sin[:c] *= weights[start : start + count]
        table += cos[:c] @ cos[c:].T - sin[:c] @ sin[c:].T
    return table


def mp_tail(N, u):
    """
    The tail e^{i rho u} sum_{j>N} z^j / j = e^{-iu/2} sum_{m>=0} z^m / (N + 1 + m) of C_N's sum, z = e^{-iu},
    rho = N + 1/2, at the mpmath number u, by mpmath's Lerch transcendent Phi(z, 1, N + 1).
    """
    return mpmath.expj(-u / 2) * mpmath.lerchphi(mpmath.expj(-u), 1, N + 1)


def mp_far_tail(N, half, terms):
    """
    The tail of mp_tail at u = 2 ``half`` summed by parts in ``terms`` terms, exactly (40 digits or more):
    sum_{p<terms} c_p w^p / (2i sin(u/2)), c_p = (-1)^p p! / ((N + 1)(N + 2) ... (N + 1 + p)),
    w = -1/2 - (i/2) cot(u/2); and the sum of the terms' magnitudes.
    """
    with mpmath.workdps(max(40, mpmath.mp.dps)):
        half = mpmath.mpf(half)
        w = mpmath.mpc(-0.5, -0.5 * mpmath.cot(half))
        c, total, size = mpmath.mpf(1) / (N + 1), 0, 0
        for p in range(terms):
            total += c * w ** p
            size += abs(c * w ** p)
            c *= -mpmath.mpf(p + 1) / (N + p + 2)
        divisor = 2j * mpmath.sin(half)
        return total / divisor, float(size / abs(divisor))


def dense_fourier_coeffs(values, B):
    """Reference rectangle-rule coefficients c(m, n), |m|, |n| <= B, by dense DFT matrices."""
    G = values.shape[0]
    e = np.exp(-1j * np.outer(np.arange(-B, B + 1), axis_points(G)))
    return (e @ values @ e.T) / G ** 2


def rfft2_fourier_coeffs(values, B):
    """
    Reference coefficients c(m, n), |m|, |n| <= B, from the whole (G, G/2 + 1)
    half spectrum of one ``rfft2``, mirrored by c(m, n) = conj(c(-m, -n)).
    """
    G = values.shape[0]
    m = np.arange(-B, B + 1)
    sign = (-1.0) ** m
    spectrum = np.fft.rfft2(values, norm="forward")
    coeffs = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
    np.multiply(spectrum[np.ix_(m % G, m[B:])], np.outer(sign, sign[B:]), out=coeffs[:, B:])
    coeffs[B, B] = coeffs[B, B].real
    coeffs[:B, B] = np.conj(coeffs[:B:-1, B])
    np.conj(coeffs[::-1, :B:-1], out=coeffs[:, :B])
    return coeffs


def dense_synthesis(weighted, G):
    """Reference sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j} on the G-point grid, by dense DFT matrices."""
    reach = (len(weighted) - 1) // 2
    e = np.exp(1j * np.outer(axis_points(G), np.arange(-reach, reach + 1)))
    return e @ weighted @ e.T


def raw_modular(values, Q, k, cell_area):
    """Reference modular: Q summed over every raw sample of |f| / k."""
    return float(np.sum(np.asarray(Q(np.abs(values) / k))) * cell_area)


def raw_luxemburg_norm(values, Q, cell_area):
    """
    Reference Luxemburg norm by its definition, the least float k with modular(k) <= 1 over raw
    samples: double k from 1 while the modular exceeds 1, halve it until the modular exceeds 1,
    then bisect the floats' bit patterns until the bracket's ends are adjacent floats.
    """
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
    lo_bits, hi_bits = (int(b) for b in np.array([lo, hi]).view(np.int64))
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if mod(float(np.int64(mid).view(np.float64))) <= 1.0:
            hi_bits = mid
        else:
            lo_bits = mid
    return float(np.int64(hi_bits).view(np.float64))


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
    w = GridOp("norlund-log", n).weights()
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


def telescoped_sums(N, u, K=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """
    The parts (T, V, W, tail) of sum_{k=1}^{N} cos(ku)/k = T + V + W - 3/4 at every point of ``u``,
    with T capped at K terms: T_K = sum_{k=1}^{K} [2/(k(k+1)(k+2))] Phi_{k+1}(u), summed here term
    by term, and tail = 1/(2 K^2 sin^2(u/2)), the certified bound on the terms past K (each is at
    most its weight over 2 sin^2(u/2), and the cubic weights past K sum below 1/K^2).  ``K`` is a
    scalar or one cap per point; None, or a cap of N - 2 or more, is the full sum, with tail 0.  The
    full T is summed from its own weights, never through the identity: table_half_angle_sums' table
    sum over 2 sin^2(u/2), and at u = 0 mod 2 pi (whatever the cap) its removable limit, the rational
    sum sum_{k=1}^{N-2} (k + 1)/(k (k + 2)), as Phi_{k+1}(0) = (k + 1)^2 / 2.  V and W are
    fejer_ratio and dirichlet_kernel.  One row per order for a sequence of ascending orders ``N``,
    the bare parts for one order.
    """
    orders, one = _orders(N)
    r, half_sin, zero = reduce_angle(np.atleast_1d(u))
    n = np.array(orders)[:, None]
    V = fejer_ratio(n, r) / (n * (n - 1.0))
    W = dirichlet_kernel(n, r) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        T = table_half_angle_sums(orders, r)[0] / (2.0 * half_sin ** 2)
    T[:, zero] = np.array([math.fsum((k + 1) / (k * (k + 2)) for k in range(1, m - 1)) for m in orders])[:, None]
    tail = np.zeros_like(T)
    caps = np.broadcast_to(orders[-1] if K is None else K, r.shape)
    for i, n in enumerate(orders):
        for j in np.flatnonzero((caps < n - 2) & ~zero):
            k = np.arange(1, caps[j] + 1)
            T[i, j] = math.fsum(2.0 / (k * (k + 1.0) * (k + 2.0)) * fejer_ratio(k + 1, r[j]))
            tail[i, j] = 1.0 / (2.0 * float(caps[j]) ** 2 * half_sin[j] ** 2)
    return tuple(part[0] if one else part for part in (T, V, W, tail))


#: Elements a reference (points, order) table may hold (512 KB), as the table sums below take them.
KERNEL_TABLE_ELEMS = 64 * 1024


def _telescoped_weights(k: np.ndarray) -> np.ndarray:
    return 2.0 / (k * (k + 1.0) * (k + 2.0))


def _row_blocks(N: int, P: int):
    """Slices of P points in row blocks whose (points, N) tables fit KERNEL_TABLE_ELEMS."""
    step = max(1, KERNEL_TABLE_ELEMS // N)
    return (slice(start, start + step) for start in range(0, P, step))


def _row_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """
    sum_j a_ij b_ij w_j for every row i (``w`` one row of weights), with no product table: one
    sequential reduction a row, so a row's sum does not depend on the rows beside it, as a BLAS
    product's may.
    """
    return np.einsum("...j,...j,...j->...", a, b, w)


def table_half_angle_sums(orders: list[int], r: np.ndarray) -> np.ndarray:
    """
    For every order n and every reduced point r, shape (2, orders, points), summed term by term
    through (points, N) tables: the telescoped table sum sum_{k=1}^{n-2} [2/(k(k+1)(k+2))] S_{k+1}^2
    and the sine sum sum_{k=1}^{n} 2 S_k C_k / k, S_j = sin(j r/2) and C_j = cos(j r/2), from one
    angle_pair for j = 1..N, N the largest order, built in row blocks of at most KERNEL_TABLE_ELEMS
    elements a table.
    """
    top = orders[-1]
    k = np.arange(1.0, top + 1.0)
    weights, sine_weights = _telescoped_weights(k[: top - 2]), 2.0 / k
    sums = np.empty((2, len(orders), len(r)))
    for b in _row_blocks(top, len(r)):
        S, C = angle_pair(0.5 * r[b], 1, top)
        for i, n in enumerate(orders):
            sums[0, i, b] = _row_sums(S[:, 1 : n - 1], S[:, 1 : n - 1], weights[: n - 2])
            sums[1, i, b] = _row_sums(S[:, :n], C[:, :n], sine_weights[:n])
        del S, C  # freed before the next block's tables are built
    return sums


def table_direct_many(N, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """
    Reference kernels.log_kernel_direct_many through (points, N) tables: each point one weighted
    per-row sum over the raw sine tables sin((k + 1/2) t) and sin((k + 1/2) s), built together in
    row blocks, divided once by 4 sin(t/2) sin(s/2) and by H_N.  At t = 0 mod 2 pi the table row
    at t is the limit k + 1/2 of D_k and its divisor factor is 1 (the same for s).
    """
    orders, one = _orders(N)
    t, s = _paired(t, s)
    r, half_sin, zero = reduce_angle(np.stack([t, s]))
    weights = [GridOp("norlund-log", n).weights() for n in orders]
    top = orders[-1]
    limit = np.arange(top) + 0.5
    out = np.empty((len(orders), len(t)))
    for b in _row_blocks(top, len(t)):
        tables = angle_table(r[:, b].ravel(), 0.5, top)  # the rows at t, then the rows at s
        tables[zero[:, b].ravel()] = limit
        at_t, at_s = tables.reshape(2, -1, top)
        for i, w in enumerate(weights):
            out[i, b] = _row_sums(at_t[:, : len(w)], at_s[:, : len(w)], w)
        del tables, at_t, at_s  # freed before the next block's tables are built
    divisor = np.prod(np.where(zero, 1.0, 2.0 * half_sin), axis=0)
    out /= np.array([harmonic_number(n) for n in orders])[:, None] * divisor
    return out[0] if one else out


class RegionMembershipError(ValueError):
    """A point expected inside the region geometry is not."""


@dataclass(frozen=True)
class PhaseCheck:
    sin_val: float
    cos_val: float
    ok: bool


#: Slack for the closed phase-window boundaries (cos hits exactly 1/4 and 0 there).
PHASE_BOUNDARY_TOL = 1e-12


def phase_range_check(n: int, x: float) -> PhaseCheck:
    """
    Verify the phase bounds that drive the kernel lower bound: for x inside
    some window [alpha(m, n), beta(m, n)] the phase (2^{2n}+1/2) x lies in
    [arccos(1/4), pi/2] mod 2*pi, hence sin > 1/2 and cos <= 1/4 (with
    equality exactly on the window boundaries; a slack of 1e-12 max(1, |phase|)
    on the phase absorbs the boundary roundoff).  Refuses NaN and infinite x.
    """
    rate = phase_rate(n)
    phase = rate * float(finite_points(x))
    m_guess = int(math.floor((phase - ARCCOS_QUARTER) / (2.0 * math.pi)))
    tol = 1e-12 * max(1.0, abs(phase)) / rate  # the phase slack, in units of x
    member = False
    for m in (m_guess - 1, m_guess, m_guess + 1):
        if m < 0:
            continue
        if alpha(m, n) - tol <= x <= beta(m, n) + tol:
            member = True
            break
    if not member:
        raise RegionMembershipError(f"x = {x!r} lies in no phase window at scale {n}")
    sv, cv = math.sin(phase), math.cos(phase)
    ok = sv > 0.5 - PHASE_BOUNDARY_TOL and cv <= 0.25 + PHASE_BOUNDARY_TOL
    return PhaseCheck(sin_val=sv, cos_val=cv, ok=ok)


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


def bump_grid(step, grid_size):
    """
    The G x G grid that a snapped bump step (``make_bump``) stands for: its value on a square
    block of whole cells whose corner sample sits at x = y = 0, and 0 elsewhere.
    """
    side = math.isqrt(step.cells)
    assert side ** 2 == step.cells and step.cell_area == (2.0 * math.pi / grid_size) ** 2
    values = np.zeros((grid_size, grid_size))
    origin = grid_size // 2  # index of the sample at x = 0
    values[origin : origin + side, origin : origin + side] = step.value
    return GridFunction2D(values=values)


def orlicz_report_steps(grid_size):
    """orlicz's three reported functions at grid size G, as (name, step) in the report's row order."""
    h = 2.0 * math.pi / grid_size
    side = int(round(1.0 / h))
    return [
        ("const_1", StepFunction(1.0, grid_size ** 2, h ** 2)),
        (f"indicator_{side}x{side}cells", StepFunction(1.0, side ** 2, h ** 2)),
        ("bump_n1_unscaled", make_bump(1, grid_size=grid_size)),
    ]
