"""Kernel forms, telescoped sums, phase windows, region geometry."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import kernels
from logmeans.cli import quasi_random_points
from logmeans.counterexamples import bump_mean, bump_mean_many
from logmeans.fourier import GridOp, dirichlet_kernel, dirichlet_matrix
from logmeans.kernels import (
    EmptyRegionError,
    RegionMembershipError,
    SingularArgumentError,
    SingularTubeError,
    alpha,
    beta,
    build_region,
    closed_form_terms,
    cos_sum_telescoped,
    fejer_ratio,
    gamma,
    lattice_min,
    lattice_survey,
    lemma_main_check,
    lemma_survey,
    log_kernel_closed,
    log_kernel_direct,
    log_kernel_direct_many,
    phase_range_check,
    phase_rate,
    sin_sum,
    telescoped_sums,
    telescoped_tail_bound,
)
from logmeans.means import harmonic_number

from conftest import (
    cos_sum_direct,
    rectangles,
    region_contains,
    shrunken_window,
    stratified_min,
    stratified_samples,
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


def test_region_total_measure_matches_direct_summation():
    spec = build_region(4, "I")
    per_axis_width = beta(1, 4) - alpha(1, 4)  # same width for every window
    assert spec.total_measure() == pytest.approx(4.0 * per_axis_width ** 2, rel=1e-12)


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
    w, k = GridOp.norlund_log(N).weights(), np.arange(N)
    got, argmin = lattice_survey(lambda u: dirichlet_matrix(k, u), w, xs, shifts)
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
    terms, _ = closed_form_terms(N, xs, ys, K=N - 2)
    closed = np.sum(terms, axis=1) / harmonic_number(N)
    for i, (x, y) in enumerate(pts):
        exact = float(_mp_log_kernel(N, x, y))
        assert abs(direct[i] - exact) <= 1e-13 * (1.0 + abs(exact)), (x, y)
        assert abs(closed[i] - exact) <= 1e-18 / d ** 2 * (1.0 + abs(exact)), (x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    pts, other = np.array([bad, 0.3]), np.array([0.2, 0.4])
    calls = [
        lambda: log_kernel_direct_many(16, np.array([math.nan, 0.3]), np.array([0.2, math.inf])),
        lambda: dirichlet_kernel(5, bad),
        lambda: log_kernel_direct_many(16, pts, other),
        lambda: lattice_survey(lambda u: dirichlet_matrix(np.arange(16), u), np.ones(16), pts, (0.0,)),
        lambda: closed_form_terms(16, other, pts),
        lambda: bump_mean_many(3, pts, other),
        lambda: bump_mean_many(3, other, pts),
        lambda: bump_mean(3, bad, 0.1),
        lambda: sin_sum(8, bad),
        lambda: phase_range_check(3, bad),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


# ------------------------------------------------------------ cosine-sum form

@pytest.mark.parametrize("N", [3, 4, 7, 16, 100, 511])
def test_telescoped_full_matches_direct(N, rng):
    for u in rng.uniform(0.05, 2 * math.pi - 0.05, 20):
        value, bound = cos_sum_telescoped(N, float(u), N - 2)
        assert bound == 0.0
        assert value == pytest.approx(cos_sum_direct(N, float(u)), abs=1e-10)


def test_telescoped_example_quarter_period():
    value, _ = cos_sum_telescoped(4, math.pi / 2, 2)
    assert value == pytest.approx(-0.25, abs=1e-14)


def test_telescoped_large_full_and_truncated():
    direct = cos_sum_direct(1024, 1.0)
    full, _ = cos_sum_telescoped(1024, 1.0, 1022)
    assert full == pytest.approx(direct, abs=1e-10)
    truncated, bound = cos_sum_telescoped(1024, 1.0, 32)
    assert abs(truncated - direct) <= bound
    assert bound == pytest.approx(1.0 / (2.0 * 32 ** 2 * math.sin(0.5) ** 2), rel=1e-12)


def test_telescoped_truncation_certified(rng):
    for _ in range(300):
        N = int(rng.integers(4, 1025))
        u = float(rng.uniform(0.02, 2 * math.pi - 0.02))
        K = int(rng.integers(1, N - 1))
        value, bound = cos_sum_telescoped(N, u, K)
        assert abs(value - cos_sum_direct(N, u)) <= bound + 1e-12


def test_telescoped_rejects_singular_argument_and_bad_cap():
    with pytest.raises(SingularArgumentError):
        cos_sum_telescoped(16, 0.0, 4)
    with pytest.raises(ValueError):
        cos_sum_telescoped(16, 1.0, 0)
    with pytest.raises(ValueError):
        cos_sum_telescoped(16, 1.0, 15)
    with pytest.raises(SingularArgumentError):
        telescoped_tail_bound(4, 100, 0.0)
    with pytest.raises(SingularArgumentError):
        cos_sum_telescoped(16, 2 * math.pi, 4)


def test_telescoped_sums_stop_at_the_cap():
    # T is the cubic-weight sum up to K exactly, not the full sum
    N, us, caps = 256, np.array([0.7, 2.3, 4.1]), np.array([5, 60, 254])
    T = telescoped_sums(N, us, caps)[0]
    for u, K, got in zip(us, caps, T):
        want = math.fsum(2.0 / (k * (k + 1) * (k + 2)) * fejer_ratio(k + 1, u) for k in range(1, K + 1))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("N", [64, 219, 1024])
def test_telescoped_sums_do_not_depend_on_the_batch(N):
    # a point's (T, V, W, tail) is a function of (N, u, K) alone: evaluated by
    # itself it matches its row in a batch of mixed caps bit for bit,
    # including u = 0, where the full removable limit replaces the cap
    rng = np.random.default_rng(N)
    us = rng.uniform(0.01, 2 * math.pi - 0.01, 40)
    us[7] = 0.0
    caps = rng.integers(1, N - 1, 40)
    caps[::4] = N - 2
    batch = telescoped_sums(N, us, caps)
    for i in range(len(us)):
        alone = telescoped_sums(N, us[i : i + 1], caps[i : i + 1])
        for part, single in zip(batch, alone):
            assert part[i] == single[0], (i, caps[i])


# ------------------------------------------------------------------ sine sum

def test_sin_sum_basics():
    assert sin_sum(37, 0.0) == 0.0
    assert sin_sum(1, math.pi / 2) == pytest.approx(1.0, abs=0.0)
    # the terms come from one angle_table, so they may differ from the loop's
    # np.sin in the last bits, and the summation order may differ too; the
    # gamma_N bound on the absolute sum covers both
    us = np.array([-2.9, -0.4, 0.01, 1.3, 3.1])
    for N in (2, 9, 300, 1024):
        for u, got in zip(us, sin_sum(N, us)):
            terms = [math.sin(k * u) / k for k in range(1, N + 1)]
            bound = N * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
            assert abs(got - math.fsum(terms)) <= bound, (N, u)


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
    ev = log_kernel_closed(16, 0.5, 0.7, K=14)
    assert ev.value == pytest.approx(log_kernel_direct(16, 0.5, 0.7), abs=1e-9)


def test_closed_matches_direct_random(rng):
    count = 0
    while count < 40:
        x, y = (float(v) for v in rng.uniform(0.1, 3.0, 2))
        if min(abs(x + y - 2 * math.pi), abs(x - y)) < 0.02:
            continue
        ev = log_kernel_closed(256, x, y)
        d = log_kernel_direct(256, x, y)
        assert abs(ev.value - d) <= ev.truncation_bound + 1e-8 * abs(d)
        count += 1


def test_closed_minimal_order():
    ev = log_kernel_closed(3, 0.9, 0.4, K=1)
    assert ev.value == pytest.approx(log_kernel_direct(3, 0.9, 0.4), abs=1e-12)


def test_closed_terms_sum_to_value():
    ev = log_kernel_closed(64, 1.1, 0.6)
    assert ev.value == pytest.approx(ev.terms.sum() / harmonic_number(64), abs=1e-10)
    assert ev.truncation_bound >= 0.0


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
    # includes x == y and x == -y (removable limits) and caps below N - 2
    pts = np.array([(0.5, 0.7), (1.1, -0.6), (2.9, 0.4), (-1.3, 2.2), (0.3, 0.3), (0.9, -0.9), (3.0, 3.1)])
    caps = np.clip([1, N // 2, N - 2, 5, N - 3, 2, 7], 1, N - 2)
    terms, bounds = closed_form_terms(N, pts[:, 0], pts[:, 1], K=caps)
    assert terms.shape == (len(pts), 15) and bounds.shape == (len(pts),)
    for (x, y), K, row, bound in zip(pts, caps, terms, bounds):
        ev = log_kernel_closed(N, float(x), float(y), K=int(K))
        np.testing.assert_allclose(row, ev.terms, rtol=1e-13, atol=1e-13 * np.max(np.abs(ev.terms)))
        assert bound == pytest.approx(ev.truncation_bound, rel=1e-14, abs=0.0)
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
    assert abs(ev.value - d) <= ev.truncation_bound + 1e-8 * (1.0 + abs(d))


# ------------------------------------------------------------ table budget

@pytest.mark.parametrize("N", [3, 64, 1024])
def test_kernel_tables_do_not_depend_on_the_block_width(N, monkeypatch):
    # one row per block, three rows per block and one block past P x N: each
    # row is the same per-row sum in every block, so all agree bit for bit,
    # including mixed per-point caps and the removable limit at u = 0
    rng = np.random.default_rng(N)
    us = rng.uniform(-2 * math.pi, 2 * math.pi, 37)
    us[5] = 0.0
    caps = rng.integers(1, N - 1, 37)
    caps[::3] = N - 2
    xs, ys = quasi_random_points(37).T

    def forms():
        return [
            *telescoped_sums(N, us, caps),
            sin_sum(N, us),
            *closed_form_terms(N, xs, ys),
            *closed_form_terms(N, xs, ys, K=caps),
            log_kernel_direct_many(N, xs, ys),
        ]

    runs = []
    for elems in (1, 3 * N, len(us) * N + 1):
        monkeypatch.setattr(kernels, "KERNEL_TABLE_ELEMS", elems)
        runs.append(forms())
    for run in runs[:-1]:
        for part, whole in zip(run, runs[-1]):
            assert np.array_equal(part, whole)


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
    # the n = 6 I lattice (72 points) at N = 4096: dirichlet_matrix divides its
    # angle table and sets its limits in place, and lemma_survey(6) holds no more than its three tables
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
    assert peak <= 7.44e6


def test_unpaired_points_are_refused_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for unpaired points")

    for name in ("dirichlet_matrix", "telescoped_sums", "sin_sum"):
        monkeypatch.setattr(kernels, name, no_table)
    pairs = [
        (np.array([0.3, 0.5]), np.array([0.2])),
        (np.array([0.3]), np.array([0.2, 0.4])),
        (np.full((2, 2), 0.3), np.full((2, 2), 0.2)),
    ]
    for xs, ys in pairs:
        for form in (log_kernel_direct_many, closed_form_terms):
            with pytest.raises(ValueError, match="paired"):
                form(16, xs, ys)


def test_per_point_caps_must_match_the_points():
    xs, ys = np.array([0.3, 0.5, 0.7]), np.array([0.2, 0.4, 0.9])
    with pytest.raises(ValueError, match=r"cap shape \(2,\) for 3 points"):
        closed_form_terms(16, xs, ys, K=np.array([3, 4]))
    with pytest.raises(ValueError, match=r"cap shape \(2,\) for 3 points"):
        telescoped_sums(16, xs, np.array([3, 4]))
    # telescoped_sums owns the cap rule: every form refuses 0 and N - 1 with its message
    for K in (0, 15):
        for call in (
            lambda: telescoped_sums(16, xs, K),
            lambda: cos_sum_telescoped(16, 0.3, K),
            lambda: closed_form_terms(16, xs, ys, K=K),
            lambda: log_kernel_closed(16, 0.3, 0.2, K=K),
        ):
            with pytest.raises(ValueError, match=rf"truncation cap must satisfy 1 <= K <= N - 2, got {K}"):
                call()
    terms, _ = closed_form_terms(16, xs, ys, K=np.array([3, 4, 14]))
    assert np.array_equal(terms[2], closed_form_terms(16, xs[2:], ys[2:], K=14)[0][0])


def test_default_closed_form_sums_in_full():
    # no cap is picked for the caller: the default is the full N - 2 terms, with a zero bound
    N = 32768
    xs, ys = quasi_random_points(3).T
    terms, bounds = closed_form_terms(N, xs, ys)
    full_terms, full_bounds = closed_form_terms(N, xs, ys, K=N - 2)
    assert np.array_equal(terms, full_terms)
    assert np.all(bounds == 0.0) and np.all(full_bounds == 0.0)


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


def test_lattice_min_reports_the_first_of_two_mirror_points():
    # a BLAS product need not be bit-symmetric: when the mirror of the minimum
    # comes out one ulp lower, the argmin stays on the first of the pair in
    # row-major (and rectangle) order, where the paired layout reports it
    xs = np.array([0.3, 0.5, 0.7])
    table = np.full((3, 3), 10.0)
    table[0, 2], table[2, 0] = 1.0, np.nextafter(1.0, 0.0)
    value, argmin = lattice_min(xs, table)
    assert argmin == (0.3, 0.7)
    assert value == 0.7 * 0.3 * np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_lemma_survey_builds_three_kernel_tables_per_scale(n, monkeypatch):
    # one table for the I lattice, one per shift for the J lattice
    calls = []

    def counted(orders, t):
        calls.append(len(t))
        return dirichlet_matrix(orders, t)

    monkeypatch.setattr(kernels, "dirichlet_matrix", counted)
    survey = lemma_survey(n)
    assert len(calls) == 3
    assert calls[0] ** 2 == survey.i_samples and calls[1] ** 2 == calls[2] ** 2 == survey.j_samples


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
