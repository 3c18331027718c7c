"""Young functions, Luxemburg norm, unit ball, inclusion probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans.grid import GridFunction2D
from logmeans.kernels import gamma
from logmeans.orlicz import (
    LOG,
    LOG2,
    YoungFunction,
    inclusion_deficit,
    luxemburg_norm,
    modular,
    young_log_power,
    young_power,
)

from conftest import raw_luxemburg_norm, raw_modular, unit_ball_member


E_MINUS_1 = math.e - 1.0


def test_young_log_values():
    assert LOG(0.0) == 0.0
    assert LOG(E_MINUS_1) == pytest.approx(E_MINUS_1, rel=1e-14)
    assert LOG2(E_MINUS_1) == pytest.approx(E_MINUS_1, rel=1e-14)


def test_young_rejects_negative_input():
    with pytest.raises(ValueError):
        LOG(-0.5)
    with pytest.raises(ValueError):
        LOG2(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        young_power(2.0)(-1.0)


@pytest.mark.parametrize("family", [young_power, young_log_power])
@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_young_families_refuse_non_finite_powers(family, p):
    with pytest.raises(ValueError, match="finite"):
        family(p)


def test_shipped_young_functions_validate():
    for Q in (LOG, LOG2, young_power(1.5), young_power(2.0), young_log_power(0.5)):
        Q.validate()


def test_validate_rejects_concave_function():
    bad = YoungFunction("sqrt", lambda u: np.sqrt(np.asarray(u, dtype=float)))
    with pytest.raises(ValueError):
        bad.validate()


def test_slope_inequality_on_random_pairs(rng):
    functions = (LOG, LOG2, young_power(1.5), young_power(2.0), young_log_power(0.75))
    for Q in functions:
        for _ in range(200):
            u = float(rng.uniform(1e-6, 1e4))
            up = u * float(rng.uniform(1.0001, 10.0))
            assert float(Q(u)) / u < float(Q(up)) / up


# ------------------------------------------------------------ luxemburg norm

def test_norm_of_constant_under_square():
    f = GridFunction2D.constant(1.0, 64)
    assert luxemburg_norm(f, young_power(2.0)) == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_norm_of_zero_function():
    assert luxemburg_norm(GridFunction2D.constant(0.0, 16), LOG) == 0.0


def test_norm_of_unit_measure_indicator():
    G = 512
    h = 2.0 * math.pi / G
    side = int(round(math.sqrt(round(1.0 / h ** 2))))
    vals = np.zeros((G, G))
    vals[:side, :side] = 1.0
    f = GridFunction2D(values=vals)
    area = (side * h) ** 2

    # scalar oracle: k solving area * (1/k) log(1 + 1/k) = 1, bisected
    lo, hi = 1e-6, 1e6
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if area * (1.0 / mid) * math.log1p(1.0 / mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    got = luxemburg_norm(f, LOG)
    assert got == pytest.approx(hi, abs=1e-6)
    # the exactly-measure-one equation solves to ~0.8065; snapping shifts it slightly
    assert got == pytest.approx(0.80646599423632680877, abs=2e-2)


def test_norm_rejects_nonfinite_samples():
    # the modular shares the norm's check
    for bad in (math.inf, math.nan, -math.inf):
        vals = np.zeros((8, 8))
        vals[0, 0] = bad
        f = GridFunction2D(values=vals)
        with pytest.raises(ValueError, match="samples must be finite"):
            luxemburg_norm(f, LOG)
        with pytest.raises(ValueError, match="samples must be finite"):
            modular(f, LOG, 1.0)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_modular_refuses_bad_scale(k):
    with pytest.raises(ValueError, match="scale"):
        modular(GridFunction2D.constant(1.0, 8), LOG, k)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-9, math.nan, math.inf])
def test_norm_refuses_bad_tolerance(rel_tol):
    # a zero tolerance would bisect forever, NaN would skip the bisection
    with pytest.raises(ValueError, match="relative tolerance"):
        luxemburg_norm(GridFunction2D.constant(1.0, 8), LOG, rel_tol=rel_tol)


def _many_magnitude_grids(rng):
    abs_x = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, 64)
    noise = GridFunction2D(values=np.abs(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))))
    return abs_x, noise


def test_histogram_norm_and_modular_match_the_raw_sample_loop(rng):
    for f in _many_magnitude_grids(rng):
        assert np.unique(np.abs(f.values)).size >= 33
        for Q in (LOG, LOG2, young_power(2.0), young_log_power(0.5)):
            norm = luxemburg_norm(f, Q)
            assert norm == pytest.approx(raw_luxemburg_norm(f.values, Q, f.cell_area), rel=1e-12, abs=0)
            for k in (0.3 * norm, norm, 5.0 * norm):
                expected = raw_modular(f.values, Q, k, f.cell_area)
                assert modular(f, Q, k) == pytest.approx(expected, rel=1e-13, abs=0)


def test_modular_calibration_at_the_norm(rng):
    for _ in range(10):
        vals = np.zeros((16, 16))
        vals[:8, :4] = float(rng.uniform(0.2, 30.0))
        f = GridFunction2D(values=vals)
        for Q in (LOG, LOG2, young_power(2.0)):
            k = luxemburg_norm(f, Q)
            assert modular(f, Q, k) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(min_value=0, max_value=2 ** 16))
def test_norm_scaling_property(c, seed):
    local = np.random.default_rng(seed)
    vals = local.normal(size=(16, 16)) + 1j * local.normal(size=(16, 16))
    f = GridFunction2D(values=np.abs(vals))
    scaled = GridFunction2D(values=np.abs(c * vals))
    base = luxemburg_norm(f, LOG)
    assert luxemburg_norm(scaled, LOG) == pytest.approx(c * base, rel=1e-8)


def test_norm_monotonicity(rng):
    for _ in range(50):
        a = np.abs(rng.normal(size=(16, 16)))
        b = a + np.abs(rng.normal(size=(16, 16)))
        fa = GridFunction2D(values=a)
        fb = GridFunction2D(values=b)
        assert luxemburg_norm(fa, LOG2) <= luxemburg_norm(fb, LOG2) + 1e-9


# ---------------------------------------------------------------- unit ball

def test_unit_ball_constant_cases():
    small = GridFunction2D.constant(1.0 / (4.0 * math.pi), 32)
    assert luxemburg_norm(small, young_power(2.0)) == pytest.approx(0.5, abs=1e-8)
    assert unit_ball_member(small, young_power(2.0))
    assert not unit_ball_member(GridFunction2D.constant(1.0, 32), young_power(2.0))


def _rescaled_bump_modular(Q: YoungFunction, n: int) -> float:
    """
    Modular at k = 1 of the rescaled bump 2^{4n-1}/Q(2^{4n}) * 1_{[0,g]^2}/g^2,
    evaluated exactly (the function is a single rectangle).  Membership in the
    unit ball is equivalent to this modular being <= 1.
    """
    g = gamma(n)
    u = 2.0 ** (4 * n)
    peak = 2.0 ** (4 * n - 1) / float(Q(u)) / g ** 2
    return g * g * float(Q(peak))


@pytest.mark.parametrize("Q", [LOG, LOG2, young_log_power(0.5), young_log_power(0.75)])
def test_rescaled_bump_membership_in_slow_growth_family(Q):
    # over scales n >= 2 where the slope condition Q(2^{4n})/2^{4n} >= 4 holds
    tested = 0
    for n in range(2, 9):
        u = 2.0 ** (4 * n)
        if float(Q(u)) / u < 4.0:
            continue
        assert _rescaled_bump_modular(Q, n) <= 1.0
        tested += 1
    assert tested >= 3


def test_rescaled_bump_membership_boundary_at_smallest_scale():
    # at n = 1 the bump support is so large relative to 2^{-4n} that the
    # slope-4 condition alone does not force membership: u log^2(1+u) meets
    # the condition (slope ~8) yet the modular exceeds 1.  Documented
    # boundary of the constant-4 shortcut; the construction always takes n
    # large along its subsequence.
    assert float(LOG2(16.0)) / 16.0 >= 4.0
    assert _rescaled_bump_modular(LOG2, 1) > 1.0


def test_rescaled_bump_membership_on_grid():
    # same object as a genuine grid function, via the public predicate
    n = 2
    G = 2048
    g = gamma(n)
    h = 2.0 * math.pi / G
    cells = max(1, round(g / h))
    u = 2.0 ** (4 * n)
    peak = 2.0 ** (4 * n - 1) / float(LOG(u)) / g ** 2
    vals = np.zeros((G, G))
    vals[:cells, :cells] = peak
    f = GridFunction2D(values=vals)
    assert unit_ball_member(f, LOG)


# ---------------------------------------------------------- inclusion probes

def test_inclusion_probe_matched_weight_is_bounded():
    u_grid = 2.0 ** np.arange(1, 41)
    probe = inclusion_deficit(LOG2, "log2", u_grid)
    assert probe <= 1.0 + 1e-12
    # the ratio tends to 1 from below
    top = u_grid[-1] * math.log(u_grid[-1]) ** 2 / float(LOG2(u_grid[-1]))
    assert top == pytest.approx(1.0, abs=1e-3)


def test_inclusion_probe_weak_function_grows():
    u_grid = 2.0 ** np.arange(1, 41)
    half = inclusion_deficit(LOG, "log2", 2.0 ** np.arange(1, 21))
    full = inclusion_deficit(LOG, "log2", u_grid)
    assert full > 2.0 * half  # keeps growing across the grid (~log u)
    assert full == pytest.approx(math.log(2.0 ** 40), rel=0.05)


def test_inclusion_probe_strong_function_decays():
    u_grid = 2.0 ** np.arange(1, 41)
    Q = young_power(1.5)
    probe_max = inclusion_deficit(Q, "log", u_grid)
    top = u_grid[-1] * math.log(u_grid[-1]) / float(Q(u_grid[-1]))
    assert top < 0.01 * probe_max  # ratio -> 0 along the grid


def test_inclusion_probe_validation():
    with pytest.raises(ValueError):
        inclusion_deficit(LOG, "linear", [1.0, 2.0])
    with pytest.raises(ValueError):
        inclusion_deficit(LOG, "log", [2.0, 1.0])
    with pytest.raises(ValueError):
        inclusion_deficit(LOG, "log", [])
