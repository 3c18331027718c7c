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
sine-sum cross terms).  The cubic decay of the telescoped weights makes the
first sum truncatable with a certified tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import GridOp, angle_table, dirichlet_kernel, dirichlet_matrix, finite_points, reduce_angle
from .means import harmonic_number

ARCCOS_QUARTER = math.acos(0.25)
HALF_PI = 0.5 * math.pi
#: gamma(n) = GAMMA_SCALE / (2^{2n} + 1/2)
GAMMA_SCALE = (HALF_PI - ARCCOS_QUARTER) / 4.0

#: Default keep-out distance from the removable-singularity tubes.
EPS_SING = 1e-6

#: Elements a (points, order) table may hold: telescoped_sums, sin_sum and
#: log_kernel_direct_many walk their points in blocks of max(1, this // N) rows.
KERNEL_TABLE_ELEMS = 16 * 1024

REGION_I = "I"
REGION_J = "J"


class EmptyRegionError(ValueError):
    """The requested region has no windows (scale n < 3)."""


class SingularArgumentError(ValueError):
    """A trigonometric sum was requested at a singular argument (u = 0 mod 2*pi)."""


class SingularTubeError(ValueError):
    """Closed-form evaluation requested too close to a singular tube."""


class RegionMembershipError(ValueError):
    """A point expected inside the region geometry is not."""


def phase_rate(n: int) -> float:
    """Oscillation rate 2^{2n} + 1/2 of the phase (2^{2n} + 1/2) x."""
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


#: Ceiling on the memory (GiB) one computation may hold at once: the lemma kernel tables,
#: the measure window-pair arrays, the region window arrays and the converge and orlicz
#: grids (refuse_beyond_memory_limit).
MAX_LATTICE_GIB = 2


def refuse_beyond_memory_limit(what: str, nbytes: float) -> None:
    """Raise ValueError, naming ``what`` (with its scale or grid size) and the GiB estimate, over MAX_LATTICE_GIB."""
    if (gib := nbytes / 2 ** 30) > MAX_LATTICE_GIB:
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

    n: int
    lo: np.ndarray
    hi: np.ndarray

    def total_measure(self) -> float:
        return math.fsum(self.hi - self.lo) ** 2

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
    """Windows 2^(n-3) per axis of the region of scale n; EmptyRegionError below scale 3, where it has none."""
    if n < 3:
        raise EmptyRegionError(f"region is empty for n = {n} (2^(n-3) < 1)")
    return 2 ** (n - 3)


def build_region(n: int, kind: str) -> RegionSpec:
    """
    Build the two-dimensional region of scale n >= 3: the windows 1 <= m <= 2^{n-3} on each axis (the second
    window constraint is applied to y, making the region a genuine product of phase windows), as endpoint arrays
    in closed form over m.  A window is 4 gamma(n) wide, so the J shrink leaves 2 gamma(n) of it.  A scale
    whose window arrays would exceed MAX_LATTICE_GIB is refused before they are allocated.
    """
    if kind not in (REGION_I, REGION_J):
        raise ValueError(f"region kind must be {REGION_I!r} or {REGION_J!r}, got {kind!r}")
    windows = window_count(n)
    # 32 bytes a window: the tracemalloc peak of build_region and of geometric_sum at n = 16..22
    refuse_beyond_memory_limit(f"the region's window arrays at n = {n}", 32 * windows)
    shrink = gamma(n) if kind == REGION_J else 0.0
    m = np.arange(1, windows + 1)
    return RegionSpec(n=n, lo=alpha(m, n) + shrink, hi=beta(m, n) - shrink)


def lattice_min(xs: np.ndarray, table: np.ndarray) -> tuple[float, tuple[float, float]]:
    """
    Minimum of x y table[i, j] over the square lattice xs x xs and its first
    row-major argmin (x, y).  The means are symmetric in (x, y), but a BLAS
    product is not bit-symmetric, so the ratios are symmetrized first.
    """
    ratios = xs[:, None] * xs[None, :] * table
    ratios = np.minimum(ratios, ratios.T)
    i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
    return float(ratios[i, j]), (float(xs[i]), float(xs[j]))


def lattice_survey(table, weights: np.ndarray, xs: np.ndarray, shifts) -> tuple[float, tuple[float, float]]:
    """
    Minimum of x y min_{s, t in shifts} sum_k w_k T_k(x - s) T_k(y - t) / sum_k w_k over the
    lattice xs x xs and its first row-major argmin, for a per-axis factor table ``table(u)`` of
    shape (orders, len(u)) and order weights w.  One table per shift, one product per pair
    s <= t: the (t, s) product is its transpose, which lattice_min's symmetrization covers.
    """
    tables = [table(xs - s) for s in shifts]
    weighted = np.empty_like(tables[0])
    products = []
    for b, right in enumerate(tables):
        np.multiply(weights[:, None], right, out=weighted)
        products += [left.T @ weighted for left in tables[: b + 1]]
    return lattice_min(xs, np.minimum.reduce(products) / math.fsum(weights))


def _row_blocks(N: int, P: int):
    """Slices of P points in row blocks whose (points, N) tables fit KERNEL_TABLE_ELEMS."""
    step = max(1, KERNEL_TABLE_ELEMS // N)
    return (slice(start, start + step) for start in range(0, P, step))


def _paired(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ys`` as float arrays of paired points; refuses arrays that do not pair up."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"points must be paired 1-D arrays, got x shape {xs.shape} and y shape {ys.shape}")
    return xs, ys


# ----------------------------------------------------------------------------
# trigonometric sums
# ----------------------------------------------------------------------------

def sin_sum(N: int, u) -> float | np.ndarray:
    """sum_{k=1}^{N} sin(ku)/k by direct summation; uniformly bounded in N.  Refuses NaN and infinite u."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    u_arr = np.ravel(finite_points(u))
    k = np.arange(1, N + 1)
    out = np.empty(u_arr.shape)
    for b in _row_blocks(N, len(u_arr)):
        terms = angle_table(u_arr[b], 1, N)
        terms /= k
        out[b] = terms.sum(axis=1)  # per row: no block dependence
    return float(out[0]) if np.ndim(u) == 0 else out


def fejer_ratio(m: int, u) -> float | np.ndarray:
    """Phi_m(u) = sin^2(m u / 2) / (2 sin^2(u / 2)); limit m^2 / 2 at u = 0 mod 2*pi."""
    r, half_sin, zero = reduce_angle(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(0.5 * m * r) ** 2 / (2.0 * half_sin ** 2)
    out = np.where(zero, 0.5 * m * m, ratio)
    return float(out) if np.ndim(u) == 0 else out


def _telescoped_weights(k: np.ndarray) -> np.ndarray:
    return 2.0 / (k * (k + 1.0) * (k + 2.0))


def telescoped_tail_bound(K, N: int, u) -> float | np.ndarray:
    """
    Certified bound on the discarded telescoped tail when the cubic-weight sum
    stops at K < N - 2: every term is at most 2/(k(k+1)(k+2)) / (2 sin^2(u/2))
    and the cubic tail sums below 1/K^2.  Returns 0 for the full sum.  ``K``
    and ``u`` may be per-point arrays.
    """
    _, half_sin, zero = reduce_angle(u)
    truncated = np.asarray(K) < N - 2
    if np.any(truncated & zero):
        raise SingularArgumentError("tail bound undefined at u = 0 mod 2*pi")
    with np.errstate(divide="ignore"):
        bound = np.where(truncated, 1.0 / (2.0 * K * K * half_sin * half_sin), 0.0)
    return float(bound) if bound.ndim == 0 else bound


def telescoped_sums(N: int, u, K) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """
    The parts (T, V, W, tail) of the telescoped cosine-sum form at every
    point of ``u``:

        T = sum_{k=1}^{K} [2/(k(k+1)(k+2))] Phi_{k+1}(u),
        V = Phi_N(u)/(N(N-1)),   W = D~_N(u)/N,

    so that sum_{k=1}^{N} cos(ku)/k = T + V + W - 3/4 up to ``tail``, the
    certified bound on the terms past K.  ``K`` caps the sum: a scalar or
    one cap per point, each 1 <= K <= N - 2, with K = N - 2 the full sum;
    only here is the cap checked.  At u = 0 mod 2*pi the removable limits of
    the full sums are used and the tail is 0.  Every row of the sum has
    N - 2 terms, those past the cap zeroed, so a point's values do not
    depend on the rest of the batch (a sum's rounding depends on its length).
    The table is built in row blocks of at most KERNEL_TABLE_ELEMS elements;
    each row is the same sum in any block, so every block width is bit-identical.
    """
    if not (np.all(1 <= np.asarray(K)) and np.all(np.asarray(K) <= N - 2)):
        raise ValueError(f"truncation cap must satisfy 1 <= K <= N - 2, got {K}")
    r, half_sin, zero = reduce_angle(np.atleast_1d(u))
    if np.ndim(K) > 0 and np.shape(K) != r.shape:
        raise ValueError(f"per-point caps K must be one per point, got cap shape {np.shape(K)} for {len(r)} points")
    K = np.where(zero, N - 2, K)
    k = np.arange(1.0, N - 1.0)
    weights, half = _telescoped_weights(k), 0.5 * r
    sums = np.empty(r.shape)
    for b in _row_blocks(N, len(r)):
        terms = angle_table(half[b], 2, N - 2)  # sin((k + 1) u/2)
        terms *= terms
        terms *= weights
        if K[b].min() < N - 2:
            terms *= k <= K[b, None]
        sums[b] = terms.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = sums / (2.0 * half_sin ** 2)
    T = np.where(zero, np.sum(weights * 0.5 * (k + 1.0) ** 2), T)
    V = fejer_ratio(N, r) / (N * (N - 1.0))
    W = dirichlet_kernel(N, r) / N
    return T, V, W, telescoped_tail_bound(K, N, r)


def cos_sum_telescoped(N: int, u: float, K: int) -> tuple[float, float]:
    """
    Evaluate sum_{k=1}^{N} cos(ku)/k through the telescoped closed form

        sum_{k=1}^{K} [2/(k(k+1)(k+2))] Phi_{k+1}(u)
        + Phi_N(u)/(N(N-1)) + D~_N(u)/N - 3/4,

    truncating the cubic-weight sum at K (1 <= K <= N-2) and returning
    (value, certified tail bound).  The Fejer remainder term enters with a
    plus sign; that is what makes the identity exact (checked against direct
    summation at machine precision), and it is consistent with the u -> 0
    limit where both sides reduce to the harmonic number H_N.
    """
    if N < 3:
        raise ValueError(f"telescoped form needs N >= 3, got {N}")
    if reduce_angle(u)[2]:
        raise SingularArgumentError("cosine sum closed form is singular at u = 0 mod 2*pi")
    T, V, W, tail = telescoped_sums(N, u, K)
    return float(T[0] + V[0] + W[0] - 0.75), float(tail[0])


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


def log_kernel_direct_many(N: int, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Direct-form F_N over paired point arrays; one per-row sum per point, in row blocks."""
    t, s = _paired(t, s)
    w = GridOp.norlund_log(N).weights()
    k = np.arange(N)
    out = np.empty(t.shape)
    for b in _row_blocks(N, len(t)):
        table = dirichlet_matrix(k, t[b]).T  # (points, orders) as angle_table built it
        table *= dirichlet_matrix(k, s[b]).T
        table *= w
        out[b] = table.sum(axis=1)
    return out / math.fsum(w)


@dataclass(frozen=True)
class KernelEvaluation:
    """
    Closed-form kernel value with its 15-term breakdown (on the H_N * F_N
    scale, display order) and the certified truncation error of the value.
    """

    value: float
    terms: np.ndarray
    truncation_bound: float


def closed_form_terms(
    N: int,
    xs: np.ndarray,
    ys: np.ndarray,
    K=None,
    eps_sing: float = EPS_SING,
) -> tuple[np.ndarray, np.ndarray]:
    """
    The 15-term breakdown R_1..R_15 of H_N * F_N at the points (xs, ys),
    shape (P, 15) in display order, and the certified truncation error of
    each row's value on the F_N scale, shape (P,).

    Refuses points within ``eps_sing`` of the singular tubes x = 0, y = 0,
    x + y = 0, x - y = 0 (mod 2*pi); callers should fall back to
    log_kernel_direct there.  Arguments with x - y or x + y *exactly* zero are
    allowed: the terms have removable limits on the diagonals and the full
    (untruncated) sums are used.

    ``K`` caps both telescoped sums (scalar or per point), checked by
    telescoped_sums; ``K=None`` sums all N - 2 terms, with a zero bound.
    The per-point work runs once on the batch; only the tables of telescoped_sums
    and sin_sum are built in row blocks (KERNEL_TABLE_ELEMS), bit-identically.
    """
    if N < 3:
        raise ValueError(f"closed form needs N >= 3, got {N}")
    args, distance = tube_distances(xs, ys)
    near = distance < eps_sing
    del distance
    # only exact zero takes the removable-limit branch on the diagonals;
    # anything else near a tube (including exact nonzero multiples of 2*pi)
    # is refused
    near[2:] &= args[2:] != 0.0
    if np.any(near):
        i, j = np.argwhere(near)[0]
        name = ("x", "y", "x+y", "x-y")[i]
        raise SingularTubeError(f"{name} = {float(args[i, j])!r} within {eps_sing} of a singular tube")
    xs, ys, up, um = args

    rate = N + 0.5
    sx, cx = np.sin(rate * xs), np.cos(rate * xs)
    sy, cy = np.sin(rate * ys), np.cos(rate * ys)
    denom = 4.0 * np.sin(0.5 * xs) * np.sin(0.5 * ys)
    SS, CC = sx * sy / denom, cx * cy / denom
    SC, CS = sx * cy / denom, cx * sy / denom

    K = N - 2 if K is None else K
    Tp, Vp, Wp, tb_p = telescoped_sums(N, up, K)
    Tm, Vm, Wm, tb_m = telescoped_sums(N, um, K)
    Sp, Sm = sin_sum(N, up), sin_sum(N, um)

    products = (  # (coefficient, factor, part) of R1..R15 in display order
        (0.5, SS, Tp), (0.5, SS, Tm), (0.5, CC, Tm), (-0.5, CC, Tp),                     # R1-R4
        (0.5, SS, Vp), (0.5, SS, Wp), (-0.75, SS, 1.0), (0.5, SS, Vm), (0.5, SS, Wm),     # R5-R9
        (0.5, CC, Vm), (0.5, CC, Wm), (-0.5, CC, Vp), (-0.5, CC, Wp),                   # R10-R13
        (-0.5, SC, Sp - Sm), (-0.5, CS, Sp + Sm),                                       # R14-R15
    )
    terms = np.empty((len(xs), len(products)))
    for col, (coeff, factor, part) in enumerate(products):
        terms[:, col] = coeff * factor * part
    bound = 0.5 * (np.abs(SS) + np.abs(CC)) * (tb_p + tb_m) / harmonic_number(N)
    return terms, bound


def log_kernel_closed(
    N: int,
    x: float,
    y: float,
    K: int | None = None,
    eps_sing: float = EPS_SING,
) -> KernelEvaluation:
    """
    Closed-form F_N(x, y) with the 15-term breakdown: closed_form_terms at
    one point, with the same singular-tube refusal and truncation cap
    (``K=None`` is the full sum; telescoped_sums checks the cap).  The
    certified truncation error of ``value`` (on the F_N scale) is returned as
    ``truncation_bound``.
    """
    terms, bound = closed_form_terms(N, np.array([x]), np.array([y]), K, eps_sing)
    value = float(np.sum(terms[0])) / harmonic_number(N)
    return KernelEvaluation(value=value, terms=terms[0], truncation_bound=float(bound[0]))


# ----------------------------------------------------------------------------
# phase geometry checks
# ----------------------------------------------------------------------------

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
    equality exactly on the window boundaries; a 1e-12 slack absorbs the
    boundary roundoff).  Refuses NaN and infinite x.
    """
    rate = phase_rate(n)
    phase = rate * float(finite_points(x))
    m_guess = int(math.floor((phase - ARCCOS_QUARTER) / (2.0 * math.pi)))
    tol = 1e-12 * max(1.0, abs(phase))
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


# ----------------------------------------------------------------------------
# kernel lower-bound survey
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaSurvey:
    """
    Survey of the kernel lower bound at scale n (N = 2^{2n}).

    ``i_min_ratio`` is the minimum of x y F_N(x, y) over the I-region
    lattice; ``j_min_ratio`` additionally minimizes F over the four corner
    offsets (s, t) in {0, gamma(n)}^2 before multiplying by x y.
    """

    n: int
    samples_per_rect: int
    i_samples: int
    i_min_ratio: float
    i_argmin: tuple[float, float]
    j_samples: int
    j_min_ratio: float
    j_argmin: tuple[float, float]

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


def lemma_survey(n: int, samples_per_rect: int = 9) -> LemmaSurvey:
    """
    Evaluate r(x, y) = x y F_{2^{2n}}(x, y) on the I-region lattice (direct
    kernel form) and report the minimum, together with the corner-offset
    minimum over the J-region lattice.  Deterministic: fixed sample lattice,
    fixed reductions.  A scale whose kernel matrices would exceed
    MAX_LATTICE_GIB is refused before they are allocated.
    """
    windows = window_count(n)  # EmptyRegionError below scale 3, before gamma(n) refuses n < 1
    N = 4 ** n
    # the J survey holds two (N, |X|) kernel tables and one weighted copy, then about 57 bytes a
    # lattice pair of products and ratios: the tracemalloc peak at n = 3..5 for |X| up to 2000
    points = samples_per_rect * windows
    refuse_beyond_memory_limit(
        f"lemma's survey at n = {n}, {samples_per_rect} samples per window", 24 * N * points + 57 * points ** 2
    )
    k, w = np.arange(N), GridOp.norlund_log(N).weights()
    fields = []
    for kind, shifts in ((REGION_I, (0.0,)), (REGION_J, (0.0, gamma(n)))):
        xs = build_region(n, kind).lattice(samples_per_rect)
        fields += [len(xs) ** 2, *lattice_survey(lambda u: dirichlet_matrix(k, u), w, xs, shifts)]
    return LemmaSurvey(n, samples_per_rect, *fields)


def lemma_main_check(n: int, samples_per_rect: int = 9) -> LemmaReport:
    """lemma_survey plus the closed form's main/remainder split at full caps on the I-region lattice."""
    survey = lemma_survey(n, samples_per_rect)
    N = 4 ** n
    xs = build_region(n, REGION_I).lattice(samples_per_rect)
    xx, yy = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
    terms, _ = closed_form_terms(N, xx, yy, K=N - 2, eps_sing=0.0)
    main_min_over_n = float(np.min(xx * yy * np.sum(terms[:, :4], axis=1) / n))
    remainder_max = float(np.max(xx * yy * np.sum(np.abs(terms[:, 4:]), axis=1)))
    return LemmaReport(**vars(survey), main_min_over_n=main_min_over_n, remainder_max=remainder_max)
