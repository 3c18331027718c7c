"""Bump constructions, growth and exceedance geometry, operator-norm probe."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from logmeans import counterexamples, kernels
from logmeans.fourier import GridOp, dirichlet_matrix
from logmeans.grid import GridFunction2D, GridResolutionError
from logmeans.kernels import build_region, gamma
from logmeans.counterexamples import (
    BUMP_PREFACTOR,
    _area_under_hyperbola,
    _axis_profile,
    bump_mean_many,
    bump_mean_lower_bound,
    exceedance_measure,
    geometric_sum,
    l1_growth,
    make_bump,
    operator_norm_probe,
    r_nm,
)
from logmeans.orlicz import LOG, LOG2

from conftest import (
    LOG2_LOGLOG,
    bump_block,
    r_nm_scan,
    rectangles,
    region_contains,
    shrunken_window,
    stratified_min,
    stratified_samples,
)


def test_bump_prefactor_value():
    # ((pi/2 - arccos(1/4)) / 8)^2 at 20 digits
    assert BUMP_PREFACTOR == pytest.approx(0.00099761423966665571572, rel=1e-15)


# ------------------------------------------------------------------- bumps

def test_bump_height_and_support():
    height, support_hi, snapped_measure = bump_block(make_bump(1, grid_size=4096))
    assert height == pytest.approx(1.0 / gamma(1) ** 2, rel=1e-14)
    assert support_hi == pytest.approx(gamma(1), rel=0.1)
    assert abs(snapped_measure / gamma(1) ** 2 - 1.0) < 0.05


def test_unscaled_bump_is_approximate_identity():
    grid = make_bump(1, grid_size=4096)
    measure_discrepancy = bump_block(grid)[2] / gamma(1) ** 2 - 1.0
    integral = grid.integral()
    assert integral == pytest.approx(1.0 + measure_discrepancy, rel=1e-12)
    assert abs(integral - 1.0) < 0.05


def test_scaled_bump_integral():
    grid = make_bump(1, grid_size=4096)
    scaled = GridFunction2D(values=BUMP_PREFACTOR * grid.values)
    expected = BUMP_PREFACTOR * bump_block(grid)[2] / gamma(1) ** 2
    assert scaled.integral() == pytest.approx(expected, rel=1e-12)


def test_bump_support_sits_at_the_origin_cell():
    grid = make_bump(1, grid_size=4096)
    origin = 2048  # index of x = 0
    assert grid.values[origin, origin] > 0.0
    assert grid.values[origin - 1, origin] == 0.0
    assert grid.values[0, 0] == 0.0


def test_bump_resolution_error():
    with pytest.raises(GridResolutionError):
        make_bump(3, grid_size=256)  # needs >= 16*(2^6+1/2)/pi ~ 329
    make_bump(3, grid_size=512)


# --------------------------------------------------------------- bump means

def test_bump_mean_matches_dense_quadrature_oracle():
    from logmeans.kernels import log_kernel_direct_many

    n, N = 2, 16
    g = gamma(n)
    (ax, bx), (ay, by) = shrunken_window(n), shrunken_window(n)
    x, y = 0.5 * (ax + bx), 0.5 * (ay + by)
    got = float(bump_mean_many(n, np.array([x]), np.array([y]))[0, 0])

    q = 400
    ss = (np.arange(q) + 0.5) * g / q
    sg, tg = np.meshgrid(ss, ss, indexing="ij")
    kern = log_kernel_direct_many(N, x - sg.ravel(), y - tg.ravel())
    oracle = float(np.mean(kern)) * g * g * (BUMP_PREFACTOR / g ** 2) / math.pi ** 2
    assert got == pytest.approx(oracle, rel=1e-8)


def _mp_axis_profiles(ks, g, u):
    """A_k(u) = gamma/2 + sum_{j=1}^k (sin ju - sin j(u - gamma))/j at 40 digits, k in ks."""
    with mpmath.workdps(40):
        g, u = mpmath.mpf(g), mpmath.mpf(u)
        total, out = g / 2, {}
        for j in range(1, max(ks) + 1):
            total += (mpmath.sin(j * u) - mpmath.sin(j * (u - g))) / j
            if j in ks:
                out[j] = total
        return [g / 2 if k == 0 else out[k] for k in ks]


def test_axis_profile_matches_mpmath_antiderivative():
    n, ks = 5, (0, 1, 7, 63, 1023)
    g = gamma(n)
    rects = rectangles(build_region(n, "J"))
    (ax, bx, ay, _), (_, _, _, by) = rects[0], rects[-1]
    us = np.array([ax, 0.5 * (ax + bx), ay, by, 0.0, 0.5 * g, g, 0.3, -2.0])
    profile = _axis_profile(n, us)
    assert profile.shape == (4 ** n, len(us))
    for i, u in enumerate(us):
        exact = _mp_axis_profiles(ks, g, u)
        for k, want in zip(ks, exact):
            assert abs(profile[k, i] - float(want)) <= 1e-10 * g, (k, u)


def test_antiderivative_is_the_integral_of_the_dirichlet_kernel():
    # the oracle's closed form itself: Int_0^gamma D_k(u - s) ds by quadrature
    g = gamma(5)
    for u in (0.3, -2.0, 0.5 * g):
        exact = _mp_axis_profiles((0, 1, 7, 63), g, u)
        with mpmath.workdps(40):
            for k, want in zip((0, 1, 7, 63), exact):
                kernel = lambda s: 0.5 + mpmath.fsum(mpmath.cos(j * (u - s)) for j in range(1, k + 1))
                got = mpmath.quad(kernel, [0, mpmath.mpf(g)])
                assert abs(got - want) <= mpmath.mpf(10) ** -30 * g, (k, u)


def _mp_cell_profiles(ks, g, u, h):
    """(1/h) Int_{u-h/2}^{u+h/2} A_k at 40 digits, k in ks, from the antiderivative
    g v/2 + sum_{j<=k} (cos j(v - g) - cos jv)/j^2 of A_k."""
    with mpmath.workdps(40):
        g, u, h = mpmath.mpf(g), mpmath.mpf(u), mpmath.mpf(h)
        lo, hi = u - h / 2, u + h / 2
        total, out = g * h / 2, {}
        for j in range(1, max(ks) + 1):
            total += (mpmath.cos(j * (hi - g)) - mpmath.cos(j * hi)
                      - mpmath.cos(j * (lo - g)) + mpmath.cos(j * lo)) / j ** 2
            if j in ks:
                out[j] = total / h
        return [g / 2 if k == 0 else out[k] for k in ks]


def test_cell_profile_matches_mpmath_cell_average():
    n, ks = 5, (0, 1, 7, 63, 1023)
    g = gamma(n)
    region = build_region(n, "J")
    a, b = region.lo, region.hi
    # the J-region cells, then one cell wider than a whole phase period
    us = np.append(0.5 * (a + b), 0.3)
    hs = np.append(b - a, 0.5)
    profile = _axis_profile(n, us, hs)
    assert profile.shape == (4 ** n, len(us))
    for i, (u, h) in enumerate(zip(us, hs)):
        for k, want in zip(ks, _mp_cell_profiles(ks, g, u, h)):
            assert abs(profile[k, i] - float(want)) <= 1e-10 * g, (k, u, h)


def test_cell_antiderivative_is_the_integral_of_the_point_profile():
    # the oracle's closed form itself: (1/h) Int A_k over the cell by quadrature
    g = gamma(5)
    for u, h in ((0.3, 0.5), (-2.0, 1e-3)):
        exact = _mp_cell_profiles((0, 1, 7), g, u, h)
        with mpmath.workdps(40):
            for k, want in zip((0, 1, 7), exact):
                point = lambda v: _mp_axis_profiles((k,), g, v)[0]
                got = mpmath.quad(point, [u - mpmath.mpf(h) / 2, u + mpmath.mpf(h) / 2]) / h
                assert abs(got - want) <= mpmath.mpf(10) ** -30, (k, u)


def test_zero_width_cells_are_the_point_profile():
    us = build_region(4, "J").lattice(5)
    assert np.array_equal(_axis_profile(4, us, np.zeros_like(us)), _axis_profile(4, us))


def _gauss_legendre_bump_mean(n, xs, ys, quad_points=16):
    """The bump mean with the support integrals done by a Gauss-Legendre rule."""
    N, g = 4 ** n, gamma(n)
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    ax, ay = np.zeros((N, len(xs))), np.zeros((N, len(ys)))
    for node, w in zip(0.5 * g * (nodes + 1.0), 0.5 * g * weights):
        ax += w * dirichlet_matrix(np.arange(N), xs - node)
        ay += w * dirichlet_matrix(np.arange(N), ys - node)
    mean_weights = GridOp.norlund_log(N).weights()
    height = BUMP_PREFACTOR / g ** 2
    return height * (mean_weights @ (ax * ay)) / (math.fsum(mean_weights) * math.pi ** 2)


@pytest.mark.parametrize("n", [3, 4])
def test_bump_mean_matches_gauss_legendre_oracle(n):
    # the region lattice against itself reversed: the same points as X x X,
    # but a transposed product no longer lands on the right entries
    xs = build_region(n, "J").lattice(9)
    ys = xs[::-1]
    xx, yy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    want = _gauss_legendre_bump_mean(n, xx, yy).reshape(len(xs), len(ys))
    np.testing.assert_allclose(bump_mean_many(n, xs, ys), want, rtol=1e-12)


def _paired_bump_mean(n, xs, ys):
    """The scaled bump mean at the paired points (xs[i], ys[i]), one profile column per point."""
    w = GridOp.norlund_log(4 ** n).weights()
    raw = w @ (_axis_profile(n, xs) * _axis_profile(n, ys))
    return BUMP_PREFACTOR / gamma(n) ** 2 * raw / (math.fsum(w) * math.pi ** 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bump_mean_lower_bound_matches_paired_reference(n):
    pts = stratified_samples(build_region(n, "J"), 9)
    samples, ratio, argmin = stratified_min(pts, _paired_bump_mean(n, pts[:, 0], pts[:, 1]))
    rep = bump_mean_lower_bound(n)
    assert rep.samples == samples
    assert rep.min_ratio == pytest.approx(ratio, rel=1e-14, abs=0.0)
    assert rep.argmin == argmin


def test_bump_mean_lower_bound_builds_one_profile_table(monkeypatch):
    calls = []

    def counted(n, u, h=0.0):
        calls.append(len(u))
        return _axis_profile(n, u, h)

    monkeypatch.setattr(counterexamples, "_axis_profile", counted)
    rep = bump_mean_lower_bound(4)
    assert len(calls) == 1 and calls[0] ** 2 == rep.samples


def test_bump_mean_lower_bound_positive_and_stable():
    r3 = bump_mean_lower_bound(3)
    r4 = bump_mean_lower_bound(4)
    assert r3.min_ratio > 0.0
    assert r4.min_ratio > 0.0
    assert r4.min_ratio > r3.min_ratio / 3.0
    assert r4.min_ratio < r3.min_ratio * 3.0


def test_bump_mean_minimum_attained_inside_region():
    rep = bump_mean_lower_bound(3)
    region = build_region(3, "J")
    assert region_contains(region, *rep.argmin, tol=1e-12)
    outside = (rectangles(region)[0][0] - 0.01, rectangles(region)[0][2] - 0.01)
    assert not region_contains(region, *outside)


# ------------------------------------------------------------------- growth

def test_geometric_sum_single_rectangle_closed_form():
    region = build_region(3, "J")
    ax, bx, ay, by = rectangles(region)[0]
    assert geometric_sum(3) == pytest.approx(math.log(bx / ax) * math.log(by / ay), rel=1e-14)


@pytest.mark.parametrize("n", range(3, 11))
def test_geometric_sum_matches_per_rectangle_reference(n):
    rects = rectangles(build_region(n, "J"))
    want = math.fsum(math.log(bx / ax) * math.log(by / ay) for ax, bx, ay, by in rects)
    assert geometric_sum(n) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_geometric_sum_needs_no_rectangle_list():
    # 4^9 rectangles at n = 12; the per-axis form holds 2^9 log ratios.  At
    # n = 20 the 2^17 windows are endpoint arrays (about 4 MiB at the peak),
    # not a list of tuples (14.7 MB for the region alone)
    for n, limit in ((12, 2 ** 20), (20, 2 ** 23)):
        tracemalloc.start()
        try:
            geometric_sum(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, n


def test_geometric_sum_quadratic_shadow_with_slack_two():
    gs = {n: geometric_sum(n) for n in range(3, 9)}
    for n in gs:
        for smaller in gs:
            if smaller < n:
                assert gs[n] >= 0.5 * (n / smaller) ** 2 * gs[smaller]


def test_l1_lower_strictly_increasing():
    values = [l1_growth(n).l1_lower for n in (3, 4, 5)]
    assert values[0] < values[1] < values[2]
    assert values[0] > 0.0


def _per_rectangle_l1_lower(n):
    """l1_lower by the 12-node Gauss-Legendre rule applied to one rectangle at a time."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for ax, bx, ay, by in rectangles(build_region(n, "J")):
        sx = 0.5 * (bx - ax) * (nodes + 1.0) + ax
        sy = 0.5 * (by - ay) * (nodes + 1.0) + ay
        xx, yy = np.meshgrid(sx, sy, indexing="ij")
        vals = np.abs(_paired_bump_mean(n, xx.ravel(), yy.ravel())).reshape(xx.shape)
        total += 0.25 * (bx - ax) * (by - ay) * float(weights @ vals @ weights)
    return total


@pytest.mark.parametrize("n", [3, 4, 5])
def test_l1_growth_matches_per_rectangle_reference(n):
    assert l1_growth(n).l1_lower == pytest.approx(_per_rectangle_l1_lower(n), rel=1e-14, abs=0.0)


def test_l1_lower_consistent_with_pointwise_bound():
    # the region-restricted integral of |t| dominates min(x y t) * Int 1/(xy)
    rep = l1_growth(3)
    low = bump_mean_lower_bound(3).min_ratio
    assert rep.l1_lower >= low * rep.geometric_sum * (1.0 - 1e-9)


# -------------------------------------------------------------- exceedance

def test_exceedance_zero_threshold_gives_region_measure():
    region = build_region(4, "J")
    rep = exceedance_measure(4, 0.0)
    assert rep.measure == pytest.approx(region.total_measure(), rel=1e-12)


def test_exceedance_measure_is_the_same_for_every_positive_threshold():
    # any c1 > 0 certifies the same set {x y < 2^{-3n}} of the shrunken region
    for n in (6, 8):
        measures = [exceedance_measure(n, c1).measure for c1 in (1e-12, 0.06, 1e12)]
        assert measures[0] > 0.0
        assert measures == [measures[0]] * 3


def test_exceedance_empty_at_small_scales():
    # below scale 6 the whole shrunken region sits outside the hyperbola
    # x y < 2^{-3n} (smallest x y ~ 58 * 2^{-4n} > 2^{-3n} iff 2^n < 58),
    # so the certified measure is exactly zero no matter the fitted constant
    for n in (3, 4, 5):
        assert exceedance_measure(n, 0.06).measure == 0.0


def test_exceedance_positive_and_shared_constant_from_scale_six():
    bounds = [exceedance_measure(n, 0.06).bound for n in range(6, 11)]
    assert all(b > 0.0 for b in bounds)
    assert max(bounds) / min(bounds) < 3.0


def test_exceedance_area_against_counting_oracle():
    # one rectangle crossed by the hyperbola: compare the analytic area with
    # brute-force cell counting
    ax, bx, ay, by = 1.0, 2.0, 1.0, 3.0
    theta = 2.5
    analytic = _area_under_hyperbola(ax, bx, ay, by, theta)
    q = 2000
    xs = ax + (np.arange(q) + 0.5) * (bx - ax) / q
    ys = ay + (np.arange(q) + 0.5) * (by - ay) / q
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    counted = np.count_nonzero(xx * yy < theta) * (bx - ax) * (by - ay) / q ** 2
    assert analytic == pytest.approx(counted, abs=5e-3)
    assert _area_under_hyperbola(ax, bx, ay, by, 0.5) == 0.0
    assert _area_under_hyperbola(ax, bx, ay, by, 10.0) == pytest.approx(2.0)


def _rect_area_under_hyperbola(ax, bx, ay, by, theta):
    """
    Reference: the area of {x y < theta} in one rectangle, case by case, at 40
    digits from the float edges, so the near-equal terms of a barely cut
    rectangle cancel no digit that matters.
    """
    with mpmath.workdps(40):
        ax, bx, ay, by, theta = (mpmath.mpf(float(v)) for v in (ax, bx, ay, by, theta))
        if theta <= ax * ay:
            return 0.0
        if theta >= bx * by:
            return float((bx - ax) * (by - ay))
        x1 = min(max(theta / by, ax), bx)
        x2 = min(max(theta / ay, ax), bx)
        area = (x1 - ax) * (by - ay)
        if x2 > x1:
            area += theta * mpmath.log(x2 / x1) - ay * (x2 - x1)
        return float(area)


def test_area_under_hyperbola_matches_three_case_reference():
    rng = np.random.default_rng(7)
    ax, ay = rng.uniform(0.1, 1.0, (2, 300))
    bx, by = ax + rng.uniform(0.01, 1.0, 300), ay + rng.uniform(0.01, 1.0, 300)
    theta = rng.uniform(0.0, 4.0, 300)
    got = _area_under_hyperbola(ax, bx, ay, by, theta)
    want = np.array([_rect_area_under_hyperbola(*args) for args in zip(ax, bx, ay, by, theta)])
    cases = np.where(theta <= ax * ay, 0, np.where(theta >= bx * by, 2, 1))
    assert set(cases) == {0, 1, 2}
    assert np.all(got[cases == 0] == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", range(3, 11))
def test_exceedance_measure_matches_per_rectangle_reference(n):
    region = build_region(n, "J")
    rects = rectangles(region)
    products = [ax * ay for ax, _, ay, _ in rects] + [bx * by for _, bx, _, by in rects]
    scale = float(2 ** (3 * n))
    want = math.fsum(_rect_area_under_hyperbola(*rect, 1.0 / scale) for rect in rects)
    assert exceedance_measure(n, 1.0).measure == pytest.approx(want, rel=1e-15, abs=0.0)

    # a threshold through the region, where the hyperbola barely cuts some
    # rectangles, over the same window-pair broadcast exceedance_measure makes
    # (its own threshold is fixed at 2^-3n): the bound relative to the larger
    # log term held for the old area form, whose terms cancel; the area itself
    # now keeps every digit
    coeff = scale * math.sqrt(min(products) * max(products))
    theta = coeff / scale
    want = math.fsum(_rect_area_under_hyperbola(*rect, theta) for rect in rects)
    log_terms = math.fsum(
        theta * math.log(min(max(theta / ay, ax), bx) / min(max(theta / by, ax), bx))
        for ax, bx, ay, by in rects
    )
    assert want > 0.0
    lo, hi = region.lo, region.hi
    got = math.fsum(_area_under_hyperbola(lo[:, None], hi[:, None], lo, hi, theta).ravel())
    assert abs(got - want) <= 1e-15 * log_terms
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def _barely_cut_rectangles(rng, count):
    """
    Edges and thresholds of rectangles the hyperbola x y = theta cuts by a
    sliver of relative size u in [1e-8, 1e-2]: through the top and bottom of
    a thin strip, through its sides, or past one corner.
    """
    u = 10.0 ** rng.uniform(-8.0, -2.0, count)
    ax, ay = rng.uniform(0.05, 3.0, (2, count))
    wide = 1.0 + rng.uniform(0.1, 1.0, count)
    kind = np.arange(count) % 4
    bx = np.where(kind == 1, ax * (1.0 + u), ax * wide)
    by = np.where(kind == 0, ay * (1.0 + u), ay * wide)
    corner = np.where(kind == 2, ax * ay * (1.0 + u), bx * by * (1.0 - u))
    theta = np.where(kind < 2, np.sqrt(ax * bx * ay * by), corner)
    return ax, bx, ay, by, theta


def test_area_under_hyperbola_barely_cut_matches_mpmath():
    # the old form theta log(x2/x1) - ay (x2 - x1) lost about log10(1/u^2) digits here
    rng = np.random.default_rng(20240817)
    ax, bx, ay, by, theta = _barely_cut_rectangles(rng, 200)
    got = _area_under_hyperbola(ax, bx, ay, by, theta)
    want = np.array([_rect_area_under_hyperbola(*args) for args in zip(ax, bx, ay, by, theta)])
    assert np.all(want > 0.0) and np.all(want < (bx - ax) * (by - ay))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_exceedance_rejects_negative_threshold():
    with pytest.raises(ValueError):
        exceedance_measure(4, -1.0)


@pytest.mark.parametrize("c1", [math.nan, math.inf])
def test_exceedance_refuses_non_finite_threshold_before_the_memory_check(monkeypatch, c1):
    # under a tiny limit a positive c1 is refused for memory; a non-finite one must not slip past to the pair arrays
    monkeypatch.setattr(kernels, "MAX_LATTICE_GIB", 1e-6)
    with pytest.raises(ValueError, match="GiB limit"):
        exceedance_measure(6, 1.0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        exceedance_measure(6, c1)


# ------------------------------------------------------------------- r_nm

def test_r_nm_monotone_nonincreasing_in_m():
    for n in (6, 8):
        values = [r_nm(n, m) for m in range(1, 2 ** (n - 3) + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_r_nm_two_sided_normalized_bounds():
    products = []
    for n in range(6, 11):
        for m in range(1, 2 ** (n - 3) + 1):
            r = r_nm(n, m)
            if r >= 1:
                products.append(r * m / 2 ** n)
    assert len(products) >= 30
    assert min(products) > 0.0
    assert max(products) / min(products) <= 4.0


def test_r_nm_smallest_case_has_empty_set():
    # at n = 3 even l = 1 violates the window inequality
    assert r_nm(3, 1) == 0


def test_r_nm_matches_scan_reference():
    # the closed-form floor against the scan l = 1, 2, ... over every window of n = 3..14
    for n in range(3, 15):
        for m in range(1, 2 ** (n - 3) + 1):
            assert r_nm(n, m) == r_nm_scan(n, m), (n, m)


def test_r_nm_validation():
    with pytest.raises(ValueError):
        r_nm(2, 1)
    with pytest.raises(ValueError):
        r_nm(6, 9)  # m beyond 2^{n-3}


def test_norm_bounded_by_modular_with_one_constant():
    # || f ||_Q <= c (1 + Int Q(|f|)) across the scaled-bump family with a
    # single constant; the bump is a height * indicator, so both sides have
    # exact scalar forms.  The fitted constant (the worst ratio) stays well
    # below 1 on every tested scale and Young function.
    def scalar_norm(height, area, Q):
        lo, hi = 1e-30, 1e30
        for _ in range(300):
            mid = math.sqrt(lo * hi)
            if area * float(Q(height / mid)) <= 1.0:
                hi = mid
            else:
                lo = mid
        return hi

    worst = 0.0
    for Q in (LOG, LOG2):
        for n in range(1, 7):
            g = gamma(n)
            height = BUMP_PREFACTOR / g ** 2
            norm = scalar_norm(height, g * g, Q)
            rhs = 1.0 + g * g * float(Q(height))
            worst = max(worst, norm / rhs)
    assert worst <= 1.0  # c = 1 certifies the whole family (fit ~ 0.22)

    # the scalar route agrees with the grid-path norm on an actual bump
    from logmeans.orlicz import luxemburg_norm

    grid = make_bump(1, grid_size=2048)
    height, _, snapped_measure = bump_block(grid)
    scaled = GridFunction2D(values=BUMP_PREFACTOR * grid.values)
    scalar = scalar_norm(BUMP_PREFACTOR * height, snapped_measure, LOG)
    assert luxemburg_norm(scaled, LOG) == pytest.approx(scalar, rel=1e-8)


# ---------------------------------------------------------------- the probe

def test_probe_contrast_between_weak_and_strong_spaces():
    l1 = {n: l1_growth(n).l1_lower for n in (3, 4, 5)}
    log_ratios = [operator_norm_probe(n, LOG, l1_lower=l1[n]).ratio for n in (3, 4, 5)]
    log2_ratios = [operator_norm_probe(n, LOG2, l1_lower=l1[n]).ratio for n in (3, 4, 5)]
    loglog_ratios = [operator_norm_probe(n, LOG2_LOGLOG, l1_lower=l1[n]).ratio for n in (3, 4, 5)]

    # weak space: the ratio climbs steadily (divergence shadow)
    assert log_ratios[0] < log_ratios[1] < log_ratios[2]
    spread = lambda seq: max(seq) / min(seq)
    # matched space: stays within a factor-2 band; stronger space: tighter still
    assert spread(log2_ratios) <= 2.0
    assert spread(loglog_ratios) <= spread(log2_ratios)
    assert spread(log_ratios) > 1.5 * spread(log2_ratios)


def test_probe_reuses_precomputed_quadrature():
    rep = operator_norm_probe(3, LOG, l1_lower=1.0)
    u = 2.0 ** 12
    assert rep.ratio == pytest.approx(u / float(LOG(u)), rel=1e-14)
