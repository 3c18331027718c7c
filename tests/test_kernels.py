"""Kernel forms, telescoped sums, phase windows, region geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans.kernels import (
    EmptyRegionError,
    RegionMembershipError,
    SingularArgumentError,
    SingularTubeError,
    alpha,
    beta,
    build_region,
    closed_form_terms,
    cos_sum_direct,
    cos_sum_telescoped,
    fejer_ratio,
    gamma,
    lemma_main_check,
    log_kernel_closed,
    log_kernel_direct,
    log_kernel_direct_many,
    phase_range_check,
    phase_rate,
    sin_sum,
    stratified_samples,
    telescoped_tail_bound,
)
from logmeans.means import harmonic_number


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
    with pytest.raises(ValueError):
        beta(2, 0)
    with pytest.raises(ValueError):
        gamma(0)


# ----------------------------------------------------------------- regions

def test_region_rectangle_counts():
    assert len(build_region(3, "I").rectangles) == 1
    assert len(build_region(5, "I").rectangles) == 16


def test_region_total_measure_matches_direct_summation():
    spec = build_region(4, "I")
    per_axis_width = beta(1, 4) - alpha(1, 4)  # same width for every window
    assert spec.total_measure() == pytest.approx(4.0 * per_axis_width ** 2, rel=1e-12)


def test_region_rectangles_inside_quarter_square():
    for n in (3, 4, 5):
        for ax, bx, ay, by in build_region(n, "I").rectangles:
            assert 0.0 < ax < bx < math.pi / 4
            assert 0.0 < ay < by < math.pi / 4


def test_region_rectangles_pairwise_disjoint():
    rects = build_region(5, "I").rectangles
    for i, ra in enumerate(rects):
        for rb in rects[i + 1 :]:
            overlap_x = min(ra[1], rb[1]) - max(ra[0], rb[0])
            overlap_y = min(ra[3], rb[3]) - max(ra[2], rb[2])
            assert not (overlap_x > 0 and overlap_y > 0)


def test_j_region_is_i_region_shrunk_by_gamma():
    for n in (3, 4):
        g = gamma(n)
        for ri, rj in zip(build_region(n, "I").rectangles, build_region(n, "J").rectangles):
            assert rj[0] == pytest.approx(ri[0] + g, rel=1e-14)
            assert rj[1] == pytest.approx(ri[1] - g, rel=1e-14)
            assert rj[2] == pytest.approx(ri[2] + g, rel=1e-14)
            assert rj[3] == pytest.approx(ri[3] - g, rel=1e-14)
            assert rj[1] > rj[0] and rj[3] > rj[2]


def test_region_empty_below_three_without_override():
    with pytest.raises(EmptyRegionError):
        build_region(2, "I")
    spec = build_region(2, "I", m_max_override=1)
    assert len(spec.rectangles) == 1


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


# ------------------------------------------------------------------ sine sum

def test_sin_sum_basics():
    assert sin_sum(37, 0.0) == 0.0
    assert sin_sum(1, math.pi / 2) == pytest.approx(1.0, abs=0.0)


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
    assert region.contains(*rep.i_argmin, tol=1e-12)
    assert rep.i_samples == 81  # 9x9 lattice on the single rectangle


def test_stratified_samples_cover_corners():
    region = build_region(3, "J")
    pts = stratified_samples(region, 5)
    ax, bx, ay, by = region.rectangles[0]
    for corner in [(ax, ay), (ax, by), (bx, ay), (bx, by)]:
        assert any(np.allclose(p, corner) for p in pts)


def test_lemma_report_csv_rows():
    rep = lemma_main_check(3, samples_per_rect=5)
    rows = rep.csv_rows()
    assert [row[1] for row in rows] == ["I", "J"]
    assert all(row[0] == 3 for row in rows)
