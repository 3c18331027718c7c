"""Kernel forms, telescoped sums, phase windows, region geometry."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import cosine, fourier, kernels
from logmeans.cli import KERNEL_TOL, KERNEL_VERIFY_N, quasi_random_points
from logmeans.counterexamples import _bump_mean_rows, bump_mean_many
from logmeans.cosine import NEAR_BAND, cosine_kernel, log_partial_sums
from logmeans.fourier import GridOp, dirichlet_kernel, dirichlet_matrix, reduce_angle
from logmeans.kernels import (
    EmptyRegionError,
    SingularTubeError,
    _telescoped_orders,
    alpha,
    beta,
    build_region,
    closed_form_terms,
    fejer_ratio,
    gamma,
    lattice_min,
    lemma_main_check,
    lemma_survey,
    log_kernel_closed,
    log_kernel_direct,
    log_kernel_direct_many,
    phase_rate,
    sin_sum,
    tube_distances,
)
from logmeans.means import harmonic_number

from conftest import (
    RegionMembershipError,
    cos_sum_direct,
    full_lattice_min,
    lattice_survey,
    mp_far_tail,
    mp_tail,
    norlund_cosine_table,
    phase_range_check,
    rectangles,
    region_contains,
    shrunken_window,
    stratified_min,
    stratified_samples,
    table_direct_many,
    table_half_angle_sums,
    telescoped_sums,
)


# -------------------------------------------------------- window coordinates

def test_window_coordinates_against_high_precision_values():
    # 20-digit evaluations of the defining formulas
    assert alpha(0, 1) == pytest.approx(0.2929146825895151035, abs=1e-15)
    assert beta(0, 1) == pytest.approx(0.34906585039886591538, abs=1e-15)
    assert gamma(1) == pytest.approx(0.014037791952337702971, abs=1e-15)


def test_window_width_is_four_gammas():
    for n in (1, 3, 5, 8):
        for m in (0, 1, 7):
            assert beta(m, n) - alpha(m, n) == pytest.approx(4.0 * gamma(n), rel=1e-14)


def test_window_argument_validation():
    with pytest.raises(ValueError):
        alpha(-1, 3)
    with pytest.raises(ValueError, match="got -1"):
        beta(np.array([1, -1, 2]), 3)
    with pytest.raises(ValueError):
        beta(2, 0)
    with pytest.raises(ValueError):
        gamma(0)


# ----------------------------------------------------------------- regions

@pytest.mark.parametrize("n", range(3, 13))
def test_region_endpoints_match_scalar_windows(n):
    # the closed-form endpoint arrays and the single linspace against the scalar
    # window endpoints and one linspace per window, bit for bit
    for kind, shrink in (("I", 0.0), ("J", gamma(n))):
        region = build_region(n, kind)
        ms = range(1, 2 ** (n - 3) + 1)
        lo = np.array([alpha(m, n) + shrink for m in ms])
        hi = np.array([beta(m, n) - shrink for m in ms])
        assert np.array_equal(region.lo, lo) and np.array_equal(region.hi, hi)
        for per_axis in (2, 5, 9):
            want = np.concatenate([np.linspace(a, b, per_axis) for a, b in zip(lo, hi)])
            assert np.array_equal(region.lattice(per_axis), want)


def test_region_rectangle_counts():
    assert len(rectangles(build_region(3, "I"))) == 1
    assert len(rectangles(build_region(5, "I"))) == 16


def test_region_rectangles_inside_quarter_square():
    for n in (3, 4, 5):
        for ax, bx, ay, by in rectangles(build_region(n, "I")):
            assert 0.0 < ax < bx < math.pi / 4
            assert 0.0 < ay < by < math.pi / 4


def test_region_rectangles_pairwise_disjoint():
    rects = rectangles(build_region(5, "I"))
    for i, ra in enumerate(rects):
        for rb in rects[i + 1 :]:
            overlap_x = min(ra[1], rb[1]) - max(ra[0], rb[0])
            overlap_y = min(ra[3], rb[3]) - max(ra[2], rb[2])
            assert not (overlap_x > 0 and overlap_y > 0)


def test_j_region_is_i_region_shrunk_by_gamma():
    for n in (3, 4):
        g = gamma(n)
        for ri, rj in zip(rectangles(build_region(n, "I")), rectangles(build_region(n, "J"))):
            assert rj[0] == pytest.approx(ri[0] + g, rel=1e-14)
            assert rj[1] == pytest.approx(ri[1] - g, rel=1e-14)
            assert rj[2] == pytest.approx(ri[2] + g, rel=1e-14)
            assert rj[3] == pytest.approx(ri[3] - g, rel=1e-14)
            assert rj[1] > rj[0] and rj[3] > rj[2]


def test_region_contains_matches_per_rectangle_reference():
    region = build_region(5, "J")
    rng = np.random.default_rng(5)
    # per axis, half the coordinates fall in a window (widened by 10% at each
    # end) and half anywhere in the windows' span, so every in/out mix occurs
    a, b = region.lo, region.hi
    pick = rng.integers(0, len(a), (400, 2))
    inside = a[pick] + rng.uniform(-0.1, 1.1, (400, 2)) * (b - a)[pick]
    anywhere = rng.uniform(a[0], b[-1], (400, 2))
    pts = np.where(rng.random((400, 2)) < 0.5, inside, anywhere)
    # the rectangles come from the defining formulas alpha + gamma, beta - gamma,
    # so membership through region.lo / hi checks build_region's endpoint arrays
    windows = [shrunken_window(5, m) for m in range(1, 5)]
    rects = [(ax, bx, ay, by) for ax, bx in windows for ay, by in windows]
    found = set()
    for x, y in pts:
        want = any(ax <= x <= bx and ay <= y <= by for ax, bx, ay, by in rects)
        assert region_contains(region, x, y) == want
        found.add(want)
    assert found == {True, False}
    ax, bx, ay, by = rects[5]
    assert region_contains(region, bx + 1e-13, ay, tol=1e-12)
    assert not region_contains(region, bx + 1e-13, ay)


def test_region_empty_below_three_without_override():
    with pytest.raises(EmptyRegionError):
        build_region(2, "I")
    # a scale is an integer: no windows are built between the scales the paper defines
    for bad in (3.5, 2.5, np.float64(4.0)):
        for call in (kernels.window_count, phase_rate, lambda n: build_region(n, "I")):
            with pytest.raises(ValueError, match="scales must be integers"):
                call(bad)
    assert build_region(np.int64(4), "I").lo.tolist() == build_region(4, "I").lo.tolist()
    # the window itself exists at scale 2; only the index range 1..2^(n-3) is empty
    lo, hi = shrunken_window(2)
    assert 0.0 < lo < hi


# -------------------------------------------------------------- direct form

def test_kernel_order_one_is_quarter_everywhere(rng):
    for _ in range(10):
        t, s = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        assert log_kernel_direct(1, t, s) == pytest.approx(0.25, abs=1e-14)


def test_kernel_order_two_at_origin():
    assert log_kernel_direct(2, 0.0, 0.0) == pytest.approx(19.0 / 12.0, abs=1e-14)


def test_kernel_against_high_precision_value():
    # 20-digit direct summation of the defining series at N=16, (0.3, 0.2)
    assert log_kernel_direct(16, 0.3, 0.2) == pytest.approx(0.52710390538307586211, abs=1e-13)


def test_kernel_periodic_at_multiples_of_two_pi():
    assert log_kernel_direct(16, 2 * math.pi, 0.3) == log_kernel_direct(16, 0.0, 0.3)
    assert fejer_ratio(5, 2 * math.pi) == 12.5


def test_kernel_vectorized_matches_scalar(rng):
    ts = rng.uniform(-3, 3, 17)
    ss = rng.uniform(-3, 3, 17)
    many = log_kernel_direct_many(32, ts, ss)
    for i in range(17):
        assert many[i] == pytest.approx(log_kernel_direct(32, float(ts[i]), float(ss[i])), abs=1e-13)


@pytest.mark.parametrize("N", [3, 64, 1024])
def test_lattice_survey_matches_paired_form(N, rng):
    # a lattice with the removable points 0, 2 pi and -pi and two shifts, so
    # every shift pair's product and its mirror enter the minimum
    xs = np.concatenate([rng.uniform(-4.0, 4.0, 7), [0.0, 2.0 * math.pi, -math.pi]])
    shifts = (0.0, 0.3)
    w, k = GridOp("norlund-log", N).weights(), np.arange(N)
    got, argmin = lattice_survey(N, xs, shifts)
    xx, yy = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
    want = np.minimum.reduce([xx * yy * log_kernel_direct_many(N, xx - s, yy - t) for s in shifts for t in shifts])
    # the two forms share the D_k values and differ only in summation order,
    # so every ratio agrees within twice the gamma_{N+2} bound on the absolute sum
    scale = max(
        np.max(np.abs(xx * yy) * (w @ np.abs(dirichlet_matrix(k, xx - s) * dirichlet_matrix(k, yy - t))))
        for s in shifts
        for t in shifts
    ) / math.fsum(w)
    tol = 2.0 * (N + 2) * np.finfo(float).eps * scale
    assert abs(got - want.min()) <= tol
    i = np.flatnonzero((xx == argmin[0]) & (yy == argmin[1]))
    assert len(i) == 1 and want[i[0]] <= want.min() + 2.0 * tol


def _mp_log_kernel(N, x, y):
    """F_N(x, y) from its defining sum in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        h = mpmath.fsum(1 / mpmath.mpf(j) for j in range(1, N + 1))
        total = mpmath.fsum(mpmath.sin((k + 0.5) * x) * mpmath.sin((k + 0.5) * y) / (N - k) for k in range(N))
        return total / (4 * mpmath.sin(x / 2) * mpmath.sin(y / 2) * h)


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("d", [1e-3, 1e-5])
def test_kernel_forms_match_mpmath_near_the_tubes(N, d):
    # distance d from x = 0, y = 0, x - y = 0, x + y = 0, and near (pi, pi),
    # where x + y sits d from the tube at 2 pi
    pts = [(d, 0.7), (0.7, -d), (0.9 + d, 0.9), (0.9, d - 0.9), (math.pi - d, math.pi), (math.pi, math.pi - 2 * d)]
    xs, ys = (np.array(v) for v in zip(*pts))
    direct = log_kernel_direct_many(N, xs, ys)
    terms = closed_form_terms(N, xs, ys)
    closed = np.sum(terms, axis=1) / harmonic_number(N)
    for i, (x, y) in enumerate(pts):
        exact = float(_mp_log_kernel(N, x, y))
        assert abs(direct[i] - exact) <= 1e-13 * (1.0 + abs(exact)), (x, y)
        assert abs(closed[i] - exact) <= 1e-18 / d ** 2 * (1.0 + abs(exact)), (x, y)


@pytest.mark.parametrize("N", [3, 64, 1024])
def test_direct_form_takes_the_removable_limits(N):
    # x = 0, y = 0 and both, at 0, 2 pi and -4 pi, in one batch with a point off the tubes: the
    # table row there is the limit k + 1/2 of D_k and its divisor factor is 1.  Each row is held to
    # 1e-13 of its sum of |terms|: both sides round the angles (k + 1/2) x, which the sum's
    # cancellation amplifies (at N = 1024 the plain relative gap is 5e-13 at (-1.9, 0) and 1.2e-13
    # at (0, 0.7), where the sum of |terms| is 14 and 7 times the value); where x = y = 0 every
    # term is positive, so the bound is plain relative there
    w, h = GridOp("norlund-log", N).weights(), harmonic_number(N)
    zeros = (0.0, 2 * math.pi, -4 * math.pi)
    pts = [(z, 0.7) for z in zeros] + [(-1.9, z) for z in zeros] + [(a, b) for a in zeros for b in zeros]
    pts.append((0.3, 0.2))
    xs, ys = (np.array(v) for v in zip(*pts))
    got = log_kernel_direct_many(N, xs, ys)
    for value, (x, y) in zip(got, pts):
        terms = [w[k] * dirichlet_kernel(k, x) * dirichlet_kernel(k, y) for k in range(N)]
        want = math.fsum(terms) / h
        assert abs(value - want) <= 1e-13 * math.fsum(map(abs, terms)) / h, (x, y)
    both = math.fsum(w[k] * (k + 0.5) ** 2 for k in range(N)) / h
    assert np.all(np.abs(got[6:15] - both) <= 1e-13 * both)


def _mp_cosine_kernel(N, d, c):
    """C_N(2 pi d / (N + 1/2) + c) = sum_{k<N} cos((k + 1/2) u) / (N - k) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        u = 2 * mpmath.pi * d / (N + mpmath.mpf(0.5)) + mpmath.mpf(c)
        return mpmath.fsum(mpmath.cos((k + mpmath.mpf(0.5)) * u) / (N - k) for k in range(N))


@pytest.mark.parametrize("N", [64, 4096])
def test_norlund_cosine_table_matches_mpmath(N):
    # the direct reference (tests/conftest.py) that the N = 3 form test leans on
    distances, offsets = np.array([0, 3, -7]), np.array([0.0, 1e-3, -2.5])
    table = norlund_cosine_table(N, distances, offsets)
    assert table.shape == (3, 3)
    w = GridOp("norlund-log", N).weights()
    k = np.arange(N) + 0.5
    for i, c in enumerate(offsets):
        for j, d in enumerate(distances):
            u = abs(2.0 * math.pi * d / (N + 0.5) + c)
            # angle_table's 2 eps (1 + |(k + 1/2) u|) on each factor, and the rounded angle
            tol = 8.0 * np.finfo(float).eps * float(np.sum(w * (1.0 + k * u)))
            assert abs(table[i, j] - float(_mp_cosine_kernel(N, int(d), float(c)))) <= tol, (d, c)


def _mp_kernel(N, d, c):
    """
    C_N(2 pi d / (N + 1/2) + c) in 40-digit arithmetic: summed directly up to N = 4096; past it H_N at
    u = 0, else Re[e^{i rho u} (-log(1 - z))] less the tail of mp_tail (mpmath's Lerch transcendent).
    """
    if N <= 4096:
        return _mp_cosine_kernel(N, d, c)
    with mpmath.workdps(40):
        rho = N + mpmath.mpf(0.5)
        u = 2 * mpmath.pi * d / rho + mpmath.mpf(c)
        if u == 0:
            return mpmath.harmonic(N)
        return mpmath.re(-mpmath.expj(rho * u) * mpmath.log(1 - mpmath.expj(-u)) - mp_tail(N, u))


def _branch_entries(N):
    """
    (d, c) entries of each branch of cosine_kernel at order N, with rho |c| < 4 as on the lemma's lattice
    (the rounded phase rho c adds about eps rho |c| log N); d = N + 10 and N + 1 put u past 2 pi.
    """
    rho = N + 0.5
    return {
        "far": [(7, 0.0), (30, 0.37 / rho), (-50, -1.2 / rho), (N + 10, 0.0)],
        "fraction": [(1, 0.0), (-1, 0.3 / rho), (2, -2.5 / rho), (5, 1.1 / rho), (3, 3.3 / rho)],
        "series": [(0, 1e-3 / rho), (0, -0.5 / rho), (0, 3.9 / rho), (N + 1, 0.2 / rho)],
        "zero": [(0, 0.0)],
    }


def _branch(N, d, c):
    """Which of cosine_kernel's forms takes C_N at u = 2 pi d / (N + 1/2) + c."""
    u = 2.0 * math.pi * d / (N + 0.5) + c
    if u == 0.0:
        return "zero"
    if 2.0 * N * abs(math.sin(0.5 * u)) >= cosine.NEAR_BAND:
        return "far"
    return "series" if (N + 1) * abs(math.remainder(u, 2.0 * math.pi)) < cosine.E1_SERIES_RADIUS else "fraction"


@pytest.mark.parametrize("N", [64, 4 ** 6, 4 ** 8, 4 ** 10])
def test_cosine_kernel_matches_mpmath_on_every_branch(N):
    # far entries summed by parts, near ones with E1 by its continued fraction and by its series, and
    # u = 0 exactly, where C_N is H_N: all in one call, each within 1e-15 (1 + |C_N|) of 40 digits
    entries = [(branch, d, c) for branch, pairs in _branch_entries(N).items() for d, c in pairs]
    got, _ = cosine_kernel(N, [d for _, d, _ in entries], [c for _, _, c in entries])
    for (branch, d, c), value in zip(entries, got):
        assert _branch(N, d, c) == branch, (d, c)
        want = float(_mp_kernel(N, d, c))
        assert abs(value - want) <= 1e-15 * (1.0 + abs(want)), (branch, d, c, value, want)
    assert got[-1] == pytest.approx(harmonic_number(N), rel=1e-15, abs=0.0)


def test_cosine_kernel_refuses_orders_below_its_expansions():
    # its expansions are in powers of 1/(N + 1); the lemma's smallest order is 4^3 = 64
    assert np.isfinite(cosine_kernel(64, 3, 0.1)[0])
    with pytest.raises(ValueError, match="cosine_kernel needs N >= 64, got 63"):
        cosine_kernel(63, 3, 0.1)
    with pytest.raises(ValueError, match="kernel orders must be integers"):
        cosine_kernel(64.0, 3, 0.1)


def _far_tail_misses(N, half):
    """Per far entry, how far _far_tail's sum is from its exact 24-term sum, in units of its rounding allowance."""
    got, _ = cosine._far_tail(N, half)
    out = []
    for h, value in zip(half, got):
        partial, scale = mp_far_tail(N, float(h), 24)
        out.append(abs(complex(partial) - value) / (2.0 * np.finfo(float).eps * scale))
    return np.array(out)


def test_far_tail_is_its_summation_by_parts_within_its_bound(monkeypatch):
    # half angles u/2 at N |1 - z| = 40 (the band's edge) .. 4000 and near u = 2 pi
    N = 4 ** 6
    half = np.arcsin(np.array([40.0, 44.0, 60.0, 400.0, 4000.0]) / (2.0 * N))
    half = np.concatenate([half, -half[:2], math.pi - half[:1]])
    assert np.all(_far_tail_misses(N, half) <= 1.0)
    _, bounds = cosine._far_tail(N, half)
    for h, bound in zip(half, bounds):
        with mpmath.workdps(100):  # the bound reaches 1e-66 at N |1 - z| = 4000
            partial, _ = mp_far_tail(N, float(h), 24)
            assert abs(mp_tail(N, 2 * mpmath.mpf(float(h))) - partial) <= bound, h
    # the last term counts: without it the edge entries miss their rounding allowance
    monkeypatch.setattr(cosine, "TAIL_TERMS", cosine.TAIL_TERMS - 1)
    assert np.any(_far_tail_misses(N, half) > 1.0)


def _euler_maclaurin_errors(N, r):
    """_euler_maclaurin against sum_m f(m) - int_0^inf f, f(t) = e^{-irt}/(a + t), relative to that value."""
    a = N + 1.0
    got = cosine._euler_maclaurin(a, r)
    out = []
    with mpmath.workdps(40):
        for rr, value in zip(r, got):
            x = mpmath.mpc(0, a * mpmath.mpf(float(rr)))
            want = mpmath.lerchphi(mpmath.expj(-mpmath.mpf(float(rr))), 1, a) - mpmath.exp(x) * mpmath.e1(x)
            out.append(float(abs(value - want) / abs(want)))
    return np.array(out)


def test_euler_maclaurin_part_matches_mpmath(monkeypatch):
    # at the smallest order, where its terms fall slowest, out to the near band's edge a r = 41
    N = 64
    r = np.array([0.5, 4.0, 20.0, 35.0, 41.0, -41.0, -12.0]) / (N + 1.0)
    assert np.all(_euler_maclaurin_errors(N, r) <= 4.0 * np.finfo(float).eps)
    # the last Bernoulli term counts: without it the edge entries miss
    monkeypatch.setattr(cosine, "BERNOULLI", cosine.BERNOULLI[:-1])
    assert np.any(_euler_maclaurin_errors(N, r) > 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("N", [3, 64, 1024])
def test_cosine_kernel_form_matches_direct_form(N, rng):
    # H_N F_N(x, y) = [C_N(x - y) - C_N(x + y)] / (8 sin(x/2) sin(y/2)), at distance 0; below
    # cosine_kernel's smallest order through the direct reference
    xs, ys = rng.uniform(-3.0, 3.0, (2, 64))
    offsets = np.concatenate([xs - ys, xs + ys])
    if N < cosine.MIN_COSINE_ORDER:
        values = norlund_cosine_table(N, [0], offsets)
    else:
        values = cosine_kernel(N, 0, offsets)[0]
    diff, total = values.reshape(2, -1)
    got = (diff - total) / (8.0 * np.sin(0.5 * xs) * np.sin(0.5 * ys) * harmonic_number(N))
    want = log_kernel_direct_many(N, xs, ys)
    # each form rounds at O(N eps) of its terms, which are at most about 1 / |sin(x/2) sin(y/2)|
    scale = (N + 1) * np.finfo(float).eps / np.abs(np.sin(0.5 * xs) * np.sin(0.5 * ys))
    assert np.all(np.abs(got - want) <= 8.0 * scale)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    pts, other = np.array([bad, 0.3]), np.array([0.2, 0.4])
    calls = [
        lambda: log_kernel_direct_many(16, np.array([math.nan, 0.3]), np.array([0.2, math.inf])),
        lambda: dirichlet_kernel(5, bad),
        lambda: log_kernel_direct_many(16, pts, other),
        lambda: cosine_kernel(64, [0, 1], pts),
        lambda: closed_form_terms(16, other, pts),
        lambda: bump_mean_many(3, pts),
        lambda: bump_mean_many(3, np.array([bad])),
        lambda: bump_mean_many(3, other, np.array([bad, 0.1])),
        lambda: bump_mean_many(3, other, np.array([-0.1, 0.1])),
        lambda: sin_sum(8, bad),
        lambda: phase_range_check(3, bad),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()
        # a window distance that is not an integer has no exact phase e^{i rho c}
        with pytest.raises(ValueError, match="window distances must be integers"):
            cosine_kernel(64, [bad, 1], other)


# ------------------------------------------------------------ cosine-sum form

def telescoped_value(N, u, K):
    """sum_{k<=N} cos(ku)/k as T + V + W - 3/4 of telescoped_sums at one point, and its tail bound."""
    T, V, W, tail = telescoped_sums(N, u, K)
    return float(T[0] + V[0] + W[0] - 0.75), float(tail[0])


@pytest.mark.parametrize("N", [3, 4, 7, 16, 100, 511])
def test_telescoped_full_matches_direct(N, rng):
    for u in rng.uniform(0.05, 2 * math.pi - 0.05, 20):
        value, bound = telescoped_value(N, float(u), N - 2)
        assert bound == 0.0
        assert value == pytest.approx(cos_sum_direct(N, float(u)), abs=1e-10)


def test_telescoped_example_quarter_period():
    value, _ = telescoped_value(4, math.pi / 2, 2)
    assert value == pytest.approx(-0.25, abs=1e-14)


def test_telescoped_large_full_and_truncated():
    direct = cos_sum_direct(1024, 1.0)
    full, _ = telescoped_value(1024, 1.0, 1022)
    assert full == pytest.approx(direct, abs=1e-10)
    truncated, bound = telescoped_value(1024, 1.0, 32)
    assert abs(truncated - direct) <= bound
    assert bound == pytest.approx(1.0 / (2.0 * 32 ** 2 * math.sin(0.5) ** 2), rel=1e-12)


def test_telescoped_truncation_certified(rng):
    for _ in range(300):
        N = int(rng.integers(4, 1025))
        u = float(rng.uniform(0.02, 2 * math.pi - 0.02))
        K = int(rng.integers(1, N - 1))
        value, bound = telescoped_value(N, u, K)
        assert abs(value - cos_sum_direct(N, u)) <= bound + 1e-12


@pytest.mark.parametrize("N", [3, 16, 1024])
def test_telescoped_sums_take_the_harmonic_limit_at_multiples_of_two_pi(N):
    # at u = 0 mod 2 pi the sums take their removable limits: sum cos(ku)/k is H_N, both in the
    # reference, whose T is its rational limit, and in the closed form's parts
    us = np.array([0.0, 2 * math.pi, -4 * math.pi])
    harmonic = math.fsum(1.0 / k for k in range(1, N + 1))
    for T, V, W, _ in (telescoped_sums(N, us), (part[0] for part in _telescoped_orders([N], us))):
        assert np.all(np.abs(T + V + W - 0.75 - harmonic) <= 1e-14 * harmonic)


def test_ratio_kernels_take_an_order_column(rng):
    # the closed form's V and W call each ratio kernel once over a column of orders; each row is
    # that order's own call, bit for bit, at the removable points u = 0 mod 2 pi as well
    orders = np.arange(3, 4097)
    us = np.concatenate([[0.0, 2 * math.pi, -4 * math.pi], rng.uniform(-10.0, 10.0, 29)])
    for kernel in (dirichlet_kernel, fejer_ratio):
        column = kernel(orders[:, None], us)
        assert column.shape == (len(orders), len(us))
        assert np.array_equal(column, np.stack([kernel(int(n), us) for n in orders]))
        assert np.array_equal(column[:, :3], np.stack([[kernel(int(n), u) for u in us[:3]] for n in orders]))
        assert type(kernel(np.int64(5), 0.3)) is float


@pytest.mark.parametrize("N", [64, 219, 1024])
def test_telescoped_sums_do_not_depend_on_the_batch(N):
    # a point's (T, V, W) and sine sum are a function of (N, u) alone: evaluated by itself it
    # matches its row in a batch bit for bit, in the whole batch and in every third point of it,
    # including u = 0, where T takes its removable limit, and points on both sides of the near band
    rng = np.random.default_rng(N)
    us = rng.uniform(0.01, 2 * math.pi - 0.01, 40)
    us[7:10] = 0.0, 39.0 / N, 41.0 / N
    alone = [_telescoped_orders([N], us[i : i + 1]) for i in range(len(us))]
    for step in (1, 3):
        batch = _telescoped_orders([N], us[::step])
        for i, single in enumerate(alone[::step]):
            for part, one in zip(batch, single):
                assert part[0, i] == one[0, 0], (step, i)


# ------------------------------------------------------------------ sine sum

def test_sin_sum_basics():
    assert sin_sum(37, 0.0) == 0.0
    assert sin_sum(1, math.pi / 2) == pytest.approx(1.0, abs=0.0)
    # the terms are 2 sin(ku/2) cos(ku/2) / k of one half-angle pair, so they
    # may differ from the loop's np.sin in the last bits, and the summation
    # order may differ too; the gamma_N bound on the absolute sum covers both
    us = np.array([-2.9, -0.4, 0.01, 1.3, 3.1])
    for N in (2, 9, 300, 1024):
        for u, got in zip(us, sin_sum(N, us)):
            terms = [math.sin(k * u) / k for k in range(1, N + 1)]
            bound = N * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
            assert abs(got - math.fsum(terms)) <= bound, (N, u)


def _mp_half_angle_sums(N, u):
    """
    sum_{k<=N} sin(ku)/k, sum_{k<=N} |sin(ku)|/k and T = sum_{k<=N-2} [2/(k(k+1)(k+2))] Phi_{k+1}(u)
    at the float point u, to far below 40 digits: e^{iku/2} by a fixed-point recurrence in units
    of 2^-200 from its 60-digit mpmath seed (each step adds at most a few units of error), with
    sin(ku) = 2 sin(ku/2) cos(ku/2) and Phi_{k+1}(u) = sin^2((k+1)u/2) / (2 sin^2(u/2)).
    """
    F = 200
    with mpmath.workdps(60):
        half = mpmath.mpf(float(u)) / 2
        c, s = (int(mpmath.nint(v * 2 ** F)) for v in (mpmath.cos(half), mpmath.sin(half)))
        ck, sk = 1 << F, 0
        sine = abs_sine = tele = 0
        for k in range(1, N + 1):
            ck, sk = (ck * c - sk * s) >> F, (sk * c + ck * s) >> F
            term = 2 * sk * ck // k
            sine, abs_sine = sine + term, abs_sine + abs(term)
            if 2 <= k <= N - 1:  # S_k^2 carries the weight of k - 1
                tele += 2 * sk * sk // ((k - 1) * k * (k + 1))
        unit = mpmath.mpf(2) ** (-2 * F)
        return sine * unit, abs_sine * unit, tele * unit / (2 * mpmath.sin(half) ** 2)


def test_half_angle_reference_matches_mpmath_fsum():
    u = 2.3
    with mpmath.workdps(40):
        terms = [mpmath.sin(k * mpmath.mpf(u)) / k for k in range(1, 1025)]
        sine = mpmath.fsum(terms)
        tele = mpmath.fsum(
            mpmath.mpf(2) / (k * (k + 1) * (k + 2)) * mpmath.sin((k + 1) * mpmath.mpf(u) / 2) ** 2
            for k in range(1, 1023)
        ) / (2 * mpmath.sin(mpmath.mpf(u) / 2) ** 2)
        got = _mp_half_angle_sums(1024, u)
        assert abs(got[0] - sine) < mpmath.mpf(10) ** -38
        assert abs(got[1] - mpmath.fsum(abs(t) for t in terms)) < mpmath.mpf(10) ** -38
        assert abs(got[2] - tele) < mpmath.mpf(10) ** -38


@pytest.mark.parametrize("N", [1024, 65536])
def test_half_angle_sums_match_mpmath(N, rng):
    # sin_sum and the closed form's T, both from cosine.log_partial_sums, lie within 1e-14 (1 + |value|)
    # of their high-precision sums over the half-angle pair, at kernel-verify's tube margin +-0.02,
    # near +-pi and at random points (each sum is odd or even in u, so one reference serves +-u)
    magnitudes = np.concatenate([[0.02, math.pi - 1e-3], rng.uniform(0.1, math.pi, 2)])
    us = np.concatenate([magnitudes, -magnitudes])
    sines, T = sin_sum(N, us), _telescoped_orders([N], us)[0][0]
    for i, u in enumerate(magnitudes):
        sine, _, tele = _mp_half_angle_sums(N, u)
        for j, sign in ((i, 1), (i + len(magnitudes), -1)):
            assert abs(sines[j] - sign * sine) <= 1e-14 * (1.0 + abs(sine)), (N, us[j])
            assert abs(T[j] - tele) <= 1e-14 * (1.0 + tele), (N, us[j])


def _band_edges(orders):
    """For each order N, the points just inside and just outside N |1 - e^{ir}| = NEAR_BAND, both signs."""
    edges = [2.0 * math.asin(0.5 * NEAR_BAND / N) * scale for N in orders for scale in (1 - 1e-9, 1 + 1e-9)]
    return np.concatenate([edges, np.negative(edges)])


def test_log_partial_sums_match_the_table_sums():
    # T (the identity solved for it) and the sine sum, each in O(1) an order, against the term-by-term
    # table sums of tests/conftest.py at N = 3..4096, at u = 0, +-2 pi, +-1e-6 and on both sides of
    # each tested order's near band, within 1e-14 (1 + |value|)
    orders = [*range(3, 130), *range(130, 4096, 61), 4096]
    edged = [64, 65, 250, 1024, 4096]
    us = np.concatenate([[0.0, 2 * math.pi, -2 * math.pi, 1e-6, -1e-6, -3e-5, 2e-3, 0.3], _band_edges(edged)])
    T, _, _, sines = _telescoped_orders(orders, us)
    want_T = telescoped_sums(orders, us)[0]
    want_sines = table_half_angle_sums(orders, reduce_angle(us)[0])[1]
    for got, want in ((T, want_T), (sines, want_sines)):
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("N", [4 ** 10, 4 ** 12])
def test_log_partial_sums_match_mpmath(N):
    # S_N(r) = -log(1 - z) - z^{N+1} L_{N+1}(z), z = e^{ir}, at 40 digits: the tail is mp_tail at u = -r
    rs = np.concatenate([[0.0, 1e-6, -1e-6, -3e-5, 2e-3, 0.5, -2.5, math.pi], _band_edges([N])])
    got = log_partial_sums([N], rs)[0]
    with mpmath.workdps(40):
        for r, value in zip(rs, got):
            if r == 0.0:
                want = mpmath.harmonic(N)
            else:
                z = mpmath.expj(r)
                want = -mpmath.log(1 - z) - mpmath.expj((N + mpmath.mpf(0.5)) * r) * mp_tail(N, -mpmath.mpf(r))
            assert abs(value - complex(want)) <= 1e-14 * (1.0 + abs(complex(want))), (N, r)


def test_log_partial_sums_at_kernel_verify_orders_hit_both_bands(monkeypatch):
    # at kernel-verify's default orders and points, the far band's summation by parts and the near
    # band's Euler-Maclaurin, with E1 by its series and by its continued fraction, all take entries
    sizes = {}
    for name in ("_far_tail", "_euler_maclaurin", "_e1_series", "_e1_fraction"):
        def spy(*args, _call=getattr(cosine, name), _name=name):
            sizes[_name] = sizes.get(_name, 0) + np.size(args[-1])
            return _call(*args)

        monkeypatch.setattr(cosine, name, spy)
    xs, ys = quasi_random_points(32 ** 2).T
    closed_form_terms(list(KERNEL_VERIFY_N), xs, ys)
    assert len(sizes) == 4 and min(sizes.values()) > 0, sizes


@pytest.mark.parametrize("N", [64, 4 ** 6, 4 ** 12])
def test_cosine_kernel_is_the_phased_real_part_of_log_partial_sums(N):
    # the two O(1) forms tie: C_N(c) = Re[e^{i rho c} S_N(-c)] at d = 0, within 4 eps (1 + rho |c|)
    # (1 + |C_N|) on both bands; at c = 0 both are the one near-band evaluation of H_N, bit for bit
    rho, eps = N + 0.5, np.finfo(float).eps
    edges = [40.0 / N * (1.0 + scale) for scale in (-1e-3, 1e-3)]
    cs = np.array([0.0, 1e-9, *edges, 100.0 / N])
    cs = np.concatenate([cs, -cs[1:]])
    far = 2.0 * N * np.abs(np.sin(0.5 * cs)) >= NEAR_BAND
    assert np.any(far) and not np.all(far)
    C = cosine_kernel(N, 0, cs)[0]
    phased = (np.exp(1j * rho * cs) * log_partial_sums([N], -cs)[0]).real
    assert np.all(np.abs(C - phased) <= 4 * eps * (1.0 + rho * np.abs(cs)) * (1.0 + np.abs(C)))
    assert float(cosine_kernel(N, 0, 0.0)[0]) == log_partial_sums([N], np.array([0.0]))[0, 0].real


def test_sin_sum_keeps_the_shape_of_its_points():
    us = np.linspace(-3.0, 3.0, 6)
    got = sin_sum(8, us.reshape(2, 3))
    assert got.shape == (2, 3)
    assert np.array_equal(got, sin_sum(8, us).reshape(2, 3))


def test_sin_sum_uniformly_bounded():
    # dense scan: the observed supremum (the Gibbs constant ~1.852) stays under 2
    us = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    sup = 0.0
    for j in range(13):
        N = 2 ** j
        for block in np.array_split(us, 16):
            sup = max(sup, float(np.max(np.abs(sin_sum(N, block)))))
    assert sup <= 2.0


# ------------------------------------------------------------- closed form

def test_closed_matches_direct_small():
    ev = log_kernel_closed(16, 0.5, 0.7)
    assert ev.value == pytest.approx(log_kernel_direct(16, 0.5, 0.7), abs=1e-9)


def test_closed_matches_direct_random(rng):
    count = 0
    while count < 40:
        x, y = (float(v) for v in rng.uniform(0.1, 3.0, 2))
        if min(abs(x + y - 2 * math.pi), abs(x - y)) < 0.02:
            continue
        ev = log_kernel_closed(256, x, y)
        d = log_kernel_direct(256, x, y)
        assert abs(ev.value - d) <= 1e-8 * abs(d)
        count += 1


def test_closed_minimal_order():
    ev = log_kernel_closed(3, 0.9, 0.4)
    assert ev.value == pytest.approx(log_kernel_direct(3, 0.9, 0.4), abs=1e-12)


def test_closed_terms_sum_to_value():
    ev = log_kernel_closed(64, 1.1, 0.6)
    assert ev.value == pytest.approx(ev.terms.sum() / harmonic_number(64), abs=1e-10)
    assert ev.terms.shape == (15,)


def test_closed_refuses_singular_tubes():
    with pytest.raises(SingularTubeError):
        log_kernel_closed(16, 1e-8, 0.5)
    with pytest.raises(SingularTubeError):
        log_kernel_closed(16, 0.5, 2 * math.pi - 1e-8)
    with pytest.raises(SingularTubeError):
        log_kernel_closed(16, 0.5, 0.5 + 1e-8)  # near the diagonal but not on it
    with pytest.raises(SingularTubeError):
        log_kernel_closed(16, 0.5, -0.5 + 1e-8)


def test_closed_handles_exact_diagonals():
    for x, y in [(0.5, 0.5), (0.8, -0.8)]:
        ev = log_kernel_closed(32, x, y)
        assert ev.value == pytest.approx(log_kernel_direct(32, x, y), abs=1e-10)


@pytest.mark.parametrize("N", [3, 64, 1024])
def test_closed_form_batch_matches_one_point_wrapper(N):
    # includes x == y and x == -y (removable limits)
    pts = np.array([(0.5, 0.7), (1.1, -0.6), (2.9, 0.4), (-1.3, 2.2), (0.3, 0.3), (0.9, -0.9), (3.0, 3.1)])
    terms = closed_form_terms(N, pts[:, 0], pts[:, 1])
    assert terms.shape == (len(pts), 15)
    for (x, y), row in zip(pts, terms):
        ev = log_kernel_closed(N, float(x), float(y))
        np.testing.assert_allclose(row, ev.terms, rtol=1e-13, atol=1e-13 * np.max(np.abs(ev.terms)))
        assert np.sum(row) / harmonic_number(N) == pytest.approx(ev.value, rel=1e-12, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=3, max_value=1024),
    x=st.floats(min_value=0.05, max_value=3.0),
    y=st.floats(min_value=0.05, max_value=3.0),
)
def test_closed_form_equivalence_property(N, x, y):
    if min(abs(x - y), abs(x + y - 2 * math.pi)) < 0.02:
        return
    ev = log_kernel_closed(N, x, y)
    d = log_kernel_direct(N, x, y)
    assert abs(ev.value - d) <= 1e-8 * (1.0 + abs(d))


# ------------------------------------------------------------ table budget

@pytest.mark.parametrize("N", [3, 64, 1024])
def test_kernel_tables_do_not_depend_on_the_block_width(N, monkeypatch):
    # one point per block, three points per block and one block of every point: each point's
    # angle parts take a stacked product of their own in every block, so all agree bit for bit,
    # including the removable limit at u = 0
    rng = np.random.default_rng(N)
    us = rng.uniform(-2 * math.pi, 2 * math.pi, 37)
    us[5] = 0.0
    xs, ys = quasi_random_points(37).T

    def forms():
        return [
            *_telescoped_orders([N], us),
            sin_sum(N, us),
            closed_form_terms(N, xs, ys),
            log_kernel_direct_many(N, xs, ys),
        ]

    runs = []
    B = math.isqrt(N - 1) + 1  # the part length of order N
    for points in (1, 3, len(us)):
        monkeypatch.setattr(kernels, "KERNEL_PART_ELEMS", points * B)
        runs.append(forms())
    for run in runs[:-1]:
        for part, whole in zip(run, runs[-1]):
            assert np.array_equal(part, whole)


CONTRACTION_ORDERS = [3, 64, 1024, 4096]


@pytest.mark.parametrize("N", CONTRACTION_ORDERS)
def test_contracted_forms_match_the_table_sums(N):
    # the closed form's T and sine sums, and the direct form's angle-part contraction, against the
    # (points, N) table sums of tests/conftest.py, at one order and as the largest of several, on points
    # with x = 0, y = 2 pi and x + y = 0 exactly.  T and the sine sums agree within 1e-12 (1 + |value|)
    # of the tables, whose own rounding grows with N |r|.  The direct form's sum cancels: both forms
    # round each sine entry by about eps (1 + |(k + 1/2) r|), so they agree within 4 N eps of the sum
    # of its |terms| (at most 1.3 N eps of it seen, at order 3)
    eps = np.finfo(float).eps
    xs, ys = quasi_random_points(59).T
    xs = np.concatenate([xs, [0.0, 2 * math.pi, 0.7, 2 * math.pi, 1.3, -2.9]])
    ys = np.concatenate([ys, [0.4, -2.1, 2 * math.pi, -2 * math.pi, -1.3, 2.9]])
    r = reduce_angle(np.concatenate([xs + ys, xs - ys]))[0]
    for orders in ([N], CONTRACTION_ORDERS[: CONTRACTION_ORDERS.index(N) + 1]):
        T, _, _, sines = _telescoped_orders(orders, r)
        for got, want in ((T, telescoped_sums(orders, r)[0]), (sines, table_half_angle_sums(orders, r)[1])):
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), orders
        direct, want = log_kernel_direct_many(orders, xs, ys), table_direct_many(orders, xs, ys)
        for n, got, value in zip(orders, direct, want):
            w, k = GridOp("norlund-log", n).weights(), np.arange(n)
            abs_sum = w @ np.abs(dirichlet_matrix(k, xs) * dirichlet_matrix(k, ys)) / harmonic_number(n)
            assert np.all(np.abs(got - value) <= 4 * n * eps * abs_sum), (orders, n)
        assert np.array_equal(log_kernel_direct_many(orders, ys, xs), direct)  # F(t, s) == F(s, t)


def test_each_order_of_a_multi_order_call_matches_its_one_order_call():
    # the closed form evaluates each order on its own, in O(1): its rows, its parts and the sine sums
    # match their one-order calls bit for bit.  The direct form sums every order from the largest
    # order's angle parts, which angle_table rounds by their length: a row matches its one-order call
    # to rounding, and the largest order, whose parts are the same, bit for bit; the second set, at
    # B = 256, gives its orders 16 and 256 rows of one weight matrix
    xs, ys = quasi_random_points(256).T
    us = np.concatenate([xs + ys, [0.0, 1e-6, 39.0 / 64, 41.0 / 64]])
    for orders in ([3, 64, 1024], [4096, 65536]):
        terms = closed_form_terms(orders, xs, ys)
        direct = log_kernel_direct_many(orders, xs, ys)
        parts, sines = _telescoped_orders(orders, us), sin_sum(orders, us)
        assert terms.shape == (len(orders), 256, 15) and direct.shape == (len(orders), 256)
        assert all(part.shape == (len(orders), 260) for part in parts) and sines.shape == (len(orders), 260)
        for i, N in enumerate(orders):
            one_direct = log_kernel_direct_many(N, xs, ys)
            assert np.all(np.abs(direct[i] - one_direct) <= 1e-12 * (1.0 + np.abs(one_direct))), N
            assert np.array_equal(terms[i], closed_form_terms(N, xs, ys)), N
            for part, one_part in zip(parts, _telescoped_orders([N], us)):
                assert np.array_equal(part[i], one_part[0]), N
            assert np.array_equal(sines[i], sin_sum(N, us)), N
        assert np.array_equal(direct[-1], one_direct), orders


class _NumpyWithDivide:
    """numpy as a module sees it, with np.divide replaced by ``divide``."""

    def __init__(self, divide):
        self.divide = divide

    def __getattr__(self, name):
        return getattr(np, name)


def _no_table(*args, **kwargs):
    raise AssertionError("a table was built")


def test_the_direct_form_builds_each_orders_weights_once(monkeypatch):
    # one weight matrix for all orders: each order's Norlund weights 1/(n - k) are written once,
    # straight into its rows, bit for bit GridOp's, and no weight vector is built to be copied
    fills = []

    def recorded(*args, out):
        fills.append(out)
        return np.divide(*args, out=out)

    monkeypatch.setattr(kernels, "np", _NumpyWithDivide(recorded))
    monkeypatch.setitem(fourier._MEAN_WEIGHTS, "norlund-log", _no_table)
    xs, ys = quasi_random_points(16).T
    log_kernel_direct_many([3, 64, 1024], xs, ys)
    assert [len(fill) for fill in fills] == [3, 64, 1024]
    assert all(fill.base is fills[0].base for fill in fills) and fills[0].base.ndim == 2
    monkeypatch.undo()
    for fill in fills:
        assert np.array_equal(fill, GridOp("norlund-log", len(fill)).weights())


def test_kernel_orders_must_ascend():
    xs, ys = np.array([0.3, 0.5]), np.array([0.2, 0.9])
    for orders in ([], [64, 8], [8, 8]):
        for call in (
            lambda: closed_form_terms(orders, xs, ys),
            lambda: log_kernel_direct_many(orders, xs, ys),
            lambda: telescoped_sums(orders, xs),
            lambda: sin_sum(orders, xs),
        ):
            with pytest.raises(ValueError, match="strictly ascending"):
                call()
    with pytest.raises(ValueError, match="closed form needs N >= 3, got 2"):
        closed_form_terms([2, 8], xs, ys)
    for orders in (0, [0, 8], [-2, 8]):
        with pytest.raises(ValueError, match="N must be >= 1, got"):
            log_kernel_direct_many(orders, xs, ys)


def test_kernel_orders_must_be_integers():
    # a float order is refused, not truncated to the int below it; NumPy integers pass unchanged
    xs, ys = np.array([0.3, 0.5]), np.array([0.2, 0.9])
    forms = (
        lambda N: closed_form_terms(N, xs, ys),
        lambda N: log_kernel_direct_many(N, xs, ys),
        lambda N: telescoped_sums(N, xs),
        lambda N: sin_sum(N, xs),
        lambda N: dirichlet_kernel(N, xs),
        lambda N: fejer_ratio(N, xs),
    )
    for form in (*forms, lambda N: dirichlet_matrix(N, xs)):
        for bad in (3.7, np.float64(16.0), [3.5, 8], [3, 8.0]):
            with pytest.raises(ValueError, match="kernel orders must be integers"):
                form(bad)
    # any integer range passes dirichlet_matrix, whatever its integer type
    assert np.array_equal(dirichlet_matrix(np.arange(3, 9, dtype=np.int32), xs), dirichlet_matrix(range(3, 9), xs))
    for form in forms:
        for N, same in ((np.int64(8), 8), (np.array([3, 8]), [3, 8])):
            got, want = form(N), form(same)
            for a, b in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want))):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("form", [closed_form_terms, log_kernel_direct_many])
def test_kernel_forms_hold_one_table_block_at_a_time(form):
    # a whole (4096, 1024) table is 32 MiB; the row blocks keep the peak small
    xs, ys = quasi_random_points(4096).T
    tracemalloc.start()
    try:
        form(1024, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_lattice_kernel_tables_are_one_allocation_each():
    # the n = 6 I lattice (72 points) at N = 4096: dirichlet_matrix builds its table, divides
    # it and sets its limits in place; lemma_survey(6) holds no such table, only the
    # C_N entries of its two small (offsets, distances) tables and one block of lattice pairs
    xs = build_region(6, "I").lattice(9)
    tracemalloc.start()
    try:
        table = dirichlet_matrix(np.arange(4096), xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (4096, 72) and peak <= 1.25 * table.nbytes
    tracemalloc.start()
    try:
        lemma_survey(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.9e6


def test_lemma_main_check_holds_one_block_of_closed_form_floats():
    # 40 samples on each of n = 5's 4 windows: 25600 lattice pairs, two full blocks of BLOCK_ELEMS //
    # CLOSED_FORM_FLOATS pairs and the rest, many of them near the diagonal, on C_N's near band; the
    # survey before them and each block stay within the block's 8 MB
    assert 2 * (kernels.BLOCK_ELEMS // kernels.CLOSED_FORM_FLOATS) < 160 ** 2
    tracemalloc.start()
    try:
        lemma_main_check(5, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * kernels.BLOCK_ELEMS


def test_unpaired_points_are_refused_before_any_table(monkeypatch):
    # the angle_pair binding the direct form calls, the fourier one, and the fill of its Norlund weights
    for module, name in ((kernels, "angle_pair"), (fourier, "angle_pair")):
        monkeypatch.setattr(module, name, _no_table)
    monkeypatch.setattr(kernels, "np", _NumpyWithDivide(_no_table))
    pairs = [
        (np.array([0.3, 0.5]), np.array([0.2])),
        (np.array([0.3]), np.array([0.2, 0.4])),
        (np.full((2, 2), 0.3), np.full((2, 2), 0.2)),
    ]
    for xs, ys in pairs:
        for form in (log_kernel_direct_many, closed_form_terms):
            with pytest.raises(ValueError, match="paired"):
                form(16, xs, ys)


def test_default_closed_form_sums_in_full():
    # the closed form sums all N - 2 terms at a large order too: it meets the direct form within
    # kernel-verify's tolerance
    N = 32768
    xs, ys = quasi_random_points(3).T
    closed = np.sum(closed_form_terms(N, xs, ys), axis=1) / harmonic_number(N)
    direct = log_kernel_direct_many(N, xs, ys)
    assert np.all(np.abs(closed - direct) <= KERNEL_TOL * (1.0 + np.abs(direct)))


# ------------------------------------------------------------- phase checks

def test_phase_check_left_boundary_hits_quarter_cosine():
    chk = phase_range_check(3, alpha(1, 3))
    assert chk.cos_val == pytest.approx(0.25, abs=1e-12)
    assert chk.ok


def test_phase_check_right_boundary_hits_zero_cosine():
    chk = phase_range_check(3, beta(1, 3))
    assert chk.cos_val == pytest.approx(0.0, abs=1e-12)
    assert chk.sin_val == pytest.approx(1.0, abs=1e-12)
    assert chk.ok


def test_phase_check_midpoint_sine_floor():
    mid = 0.5 * (alpha(2, 4) + beta(2, 4))
    chk = phase_range_check(4, mid)
    assert chk.sin_val >= 0.96824583655185422129  # sqrt(15)/4 at the endpoints
    assert chk.ok


def test_phase_check_rejects_points_between_windows():
    gap = 0.5 * (beta(1, 3) + alpha(2, 3))
    with pytest.raises(RegionMembershipError):
        phase_range_check(3, gap)


def test_phase_check_slack_is_on_the_phase_not_on_x():
    # the 1e-12 slack is relative to the phase, so 1e-10 relative past a window's end is outside it
    for n in (3, 6, 10):
        for m in (1, 2 ** (n - 3)):
            for x in (alpha(m, n) * (1 - 1e-10), beta(m, n) * (1 + 1e-10)):
                with pytest.raises(RegionMembershipError):
                    phase_range_check(n, x)


def test_phase_identity_links_window_to_phase():
    # the phase of a window endpoint is its defining angle, up to roundoff
    n, m = 4, 2
    assert phase_rate(n) * alpha(m, n) == pytest.approx(
        math.acos(0.25) + 2 * math.pi * m, abs=1e-12
    )


# -------------------------------------------------------------- lemma survey

def test_lemma_survey_positive_and_stable_across_scales():
    r3 = lemma_main_check(3)
    r4 = lemma_main_check(4)
    assert r3.i_min_ratio > 0.0
    assert r4.i_min_ratio > 0.0
    assert r4.i_min_ratio > r3.i_min_ratio / 4.0
    assert r4.i_min_ratio < r3.i_min_ratio * 4.0
    assert r3.j_min_ratio > 0.0 and r4.j_min_ratio > 0.0


@pytest.mark.parametrize("samples", [5, 9])
def test_lemma_lattice_keeps_out_of_the_tubes_through_n_7(samples):
    # lemma_main_check's closed form refuses points within EPS_SING of a tube
    # off the exact diagonals: the I lattice keeps out at n = 3..7 (1.9e-6 at
    # n = 7, 9 samples) and first comes nearer at n = 8
    for n in range(3, 9):
        xs = build_region(n, "I").lattice(samples)
        xx, yy = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
        args, distance = tube_distances(xx, yy)
        distance[2:][args[2:] == 0.0] = np.inf  # exact diagonals take the removable limits
        assert (distance.min() >= kernels.EPS_SING) == (n <= 7), n
    with pytest.raises(SingularTubeError):  # the n = 8 lattice of the last pass
        closed_form_terms(4 ** 8, xx, yy)


def test_lemma_main_check_walks_its_lattice_pairs_in_blocks(monkeypatch):
    # n = 5 at 40 samples is 25600 I-lattice pairs, 9.3 MB of tracemalloc peak when all are held
    # at once; in blocks of 1024 pairs the peak stays under 2 MB, and the minimum and maximum are
    # exact, so every field is the one-block report's, bit for bit
    whole = lemma_main_check(5, 40)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 15 * 1024)
    tracemalloc.start()
    try:
        blocked = lemma_main_check(5, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vars(blocked) == vars(whole) and peak < 2e6


def test_lemma_survey_degenerate_scale():
    with pytest.raises(EmptyRegionError):
        lemma_main_check(2)


def test_lemma_argmin_lies_in_region():
    rep = lemma_main_check(3)
    region = build_region(3, "I")
    assert region_contains(region, *rep.i_argmin, tol=1e-12)
    assert rep.i_samples == 81  # 9x9 lattice on the single rectangle


def test_stratified_samples_cover_corners():
    region = build_region(3, "J")
    xs = region.lattice(5)
    ax, bx, ay, by = rectangles(region)[0]
    for corner in [(ax, ay), (ax, by), (bx, ay), (bx, by)]:
        assert any(np.allclose((x, y), corner) for x in xs for y in xs)
    with pytest.raises(ValueError):
        region.lattice(1)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_lattice_steps_are_equal_and_gamma_is_whole_half_steps(n):
    # lemma_survey's index form rests on these: one step on every window, and on J the shift
    # gamma(n) is (per_axis - 1)/2 steps, a whole number of half steps
    for kind in ("I", "J"):
        region = build_region(n, kind)
        for per_axis in (*range(2, 41), 200):
            xs = region.lattice(per_axis)
            steps = np.diff(xs.reshape(-1, per_axis), axis=1)
            tol = 4.0 * np.finfo(float).eps * xs.max()  # the rounding of two lattice points
            assert np.ptp(steps) <= tol, (kind, per_axis)
            if kind == "J":
                assert abs(0.5 * (per_axis - 1) * steps.mean() - gamma(n)) <= per_axis * tol, per_axis


def _table_rows(table):
    return lambda b: table[b]


def test_lattice_min_reports_the_first_of_two_mirror_points(monkeypatch):
    # a BLAS product need not be bit-symmetric: when the mirror of the minimum
    # comes out one ulp lower, the argmin stays on the first of the pair in
    # row-major (and rectangle) order, where the paired layout reports it, also
    # when the mirror comes in a later block of rows (blocks of 1, 1, 2 and 3 rows)
    xs = np.array([0.3, 0.5, 0.7])
    table = np.full((3, 3), 10.0)
    table[0, 2], table[2, 0] = 1.0, np.nextafter(1.0, 0.0)
    for elems in (1, 3, 6, 9, kernels.BLOCK_ELEMS):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", elems)
        value, argmin = lattice_min(xs, _table_rows(table))
        assert argmin == (0.3, 0.7)
        assert value == 0.7 * 0.3 * np.nextafter(1.0, 0.0)
        assert (value, argmin) == full_lattice_min(xs, table)


@pytest.mark.parametrize("elems", [4, 8, 12, kernels.BLOCK_ELEMS])
def test_lattice_min_breaks_a_tie_across_blocks_as_the_full_table_does(monkeypatch, elems):
    # powers of two make the ratios exact: (1, 3), (2, 0) and (3, 1) tie at 16, in rows 1, 2 and 3,
    # and the first row-major argmin of the symmetrized ratios is (0, 2): with blocks of one row
    # it comes after the first tie and before the last, with blocks of two it is in the later block
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", elems)
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    table = np.full((4, 4), 100.0)
    table[1, 3], table[2, 0], table[3, 1] = 1.0, 4.0, 1.0
    got = lattice_min(xs, _table_rows(table))
    assert got == full_lattice_min(xs, table) == (16.0, (1.0, 4.0))


@pytest.mark.parametrize("elems", [4, 8, 16, kernels.BLOCK_ELEMS])
def test_lattice_min_reports_a_nan_ratio_where_the_full_table_does(monkeypatch, elems):
    # a finite minimum in row 0, NaNs at (1, 3) and in the last row at (3, 0): the minimum is NaN, at the
    # first row-major NaN of the symmetrized ratios, (0, 3), which a one-row block finds after (1, 3)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", elems)
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    table = np.full((4, 4), 100.0)
    table[0, 1], table[1, 3], table[3, 0] = -1.0, np.nan, np.nan
    (value, argmin), (want, want_argmin) = lattice_min(xs, _table_rows(table)), full_lattice_min(xs, table)
    assert math.isnan(value) and math.isnan(want) and argmin == want_argmin == (1.0, 8.0)


@pytest.mark.parametrize("kind", ["I", "J"])
@pytest.mark.parametrize("n, per_axis", [(3, 9), (4, 4), (5, 9)])
def test_lattice_min_walks_the_lemma_and_bump_lattices_in_blocks(monkeypatch, n, per_axis, kind):
    # blocks of three rows: the blocked minimum and argmin are the full table's, where the table is
    # the rows that lattice_min was served, stacked (a GEMM's row slices need not match the whole
    # product bit for bit)
    xs = build_region(n, kind).lattice(per_axis)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 3 * len(xs))
    for rows in (kernels._lattice_kernels(n, per_axis)[0][kind][1], _bump_mean_rows(n, xs)):
        served = []

        def recorded(b, rows=rows):
            served.append(rows(b))
            return served[-1]

        got = lattice_min(xs, recorded)
        assert len(served) > 2 and sum(len(block) for block in served) == len(xs)
        assert got == full_lattice_min(xs, np.concatenate(served))


@pytest.mark.parametrize("n", [3, 4])
def test_lemma_survey_builds_no_dirichlet_table(n, monkeypatch):
    # the survey goes through the 1-D cosine kernel C_N alone, never an (order x lattice) table
    calls = []

    def counted(orders, t):
        calls.append(len(t))
        return dirichlet_matrix(orders, t)

    monkeypatch.setattr(fourier, "dirichlet_matrix", counted)  # kernels does not import it
    survey = lemma_survey(n)
    assert calls == []
    assert survey.i_min_ratio > 0.0 and survey.j_min_ratio > 0.0


@pytest.mark.parametrize("n, per_axis, entries", [(3, 9, 50), (5, 2, 98), (5, 4, 266), (6, 40, 7050)])
def test_lemma_survey_takes_one_table_pair_for_both_regions(monkeypatch, n, per_axis, entries):
    # every point of I and J, J's shifted ones included, is alpha_m plus whole units of 2 gamma(n)/span,
    # span = (2 - per_axis mod 2)(per_axis - 1): one call a scale takes a difference table over offsets
    # 0..2 span and a sum table over 0..4 span, each by the 2 windows - 1 window distances
    calls = []

    def recorded(N, distances, offsets):
        calls.append((N, np.broadcast(distances, offsets).size))
        return cosine_kernel(N, distances, offsets)

    monkeypatch.setattr(kernels, "cosine_kernel", recorded)
    lemma_survey(n, per_axis)
    span, windows = (2 - per_axis % 2) * (per_axis - 1), 2 ** (n - 3)
    assert calls == [(4 ** n, (6 * span + 2) * (2 * windows - 1))] == [(4 ** n, entries)]


@pytest.mark.parametrize("per_axis", [2, 3, 4, 9])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_lemma_survey_matches_dirichlet_table_reference(n, per_axis):
    # an even per_axis puts the J shift gamma(n) on a half step, per_axis = 3 on one unit
    survey = lemma_survey(n, per_axis)
    got = [(survey.i_min_ratio, survey.i_argmin), (survey.j_min_ratio, survey.j_argmin)]
    for (ratio, argmin), (kind, shifts) in zip(got, (("I", (0.0,)), ("J", (0.0, gamma(n))))):
        want, want_argmin = lattice_survey(4 ** n, build_region(n, kind).lattice(per_axis), shifts)
        assert ratio == pytest.approx(want, rel=1e-13, abs=0.0)
        assert argmin == want_argmin


def _paired_lemma_survey(n, per_axis=9):
    """The lemma survey on the per-rectangle point layout with the paired kernel form."""
    out = []
    for kind, shifts in (("I", (0.0,)), ("J", (0.0, gamma(n)))):
        pts = stratified_samples(build_region(n, kind), per_axis)
        vals = [log_kernel_direct_many(4 ** n, pts[:, 0] - s, pts[:, 1] - t) for s in shifts for t in shifts]
        out.append(stratified_min(pts, np.minimum.reduce(vals)))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lemma_survey_matches_paired_reference(n):
    survey = lemma_survey(n)
    got = [
        (survey.i_samples, survey.i_min_ratio, survey.i_argmin),
        (survey.j_samples, survey.j_min_ratio, survey.j_argmin),
    ]
    for (samples, ratio, argmin), (ref_samples, ref_ratio, ref_argmin) in zip(got, _paired_lemma_survey(n)):
        assert samples == ref_samples
        assert ratio == pytest.approx(ref_ratio, rel=1e-14, abs=0.0)
        assert argmin == ref_argmin


def test_lemma_report_csv_rows():
    rep = lemma_main_check(3, samples_per_rect=5)
    rows = rep.csv_rows()
    assert [row[1] for row in rows] == ["I", "J"]
    assert all(row[0] == 3 for row in rows)
