"""Young functions, Luxemburg norm, unit ball, inclusion probes."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans.grid import GridFunction2D
from logmeans.kernels import gamma
from logmeans.orlicz import (
    LOG,
    LOG2,
    StepFunction,
    YoungFunction,
    inclusion_deficit,
    luxemburg_norm,
    modular,
    young_log_power,
    young_power,
)

from conftest import bump_grid, orlicz_report_steps, raw_luxemburg_norm, raw_modular, unit_ball_member


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


def validate(Q, seed=0, triples=1000):
    """
    Reference invariant check of a Young function: Q(0) = 0, midpoint convexity
    on random triples, and the slope Q(u)/u decaying at u = 2^-40 and exploding
    at u = 2^40 relative to u = 1.
    """
    if Q(0.0) != 0.0:
        raise ValueError(f"{Q.name}: Q(0) != 0")
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 50.0, triples)
    hi = lo + rng.uniform(0.0, 50.0, triples)
    mid_val = Q((lo + hi) / 2.0)
    chord = (Q(lo) + Q(hi)) / 2.0
    if np.any(mid_val > chord + 1e-9 * (1.0 + np.abs(chord))):
        raise ValueError(f"{Q.name}: midpoint convexity violated")
    slope = lambda u: Q(u) / u
    if not slope(2.0 ** -40) < slope(1.0) < slope(2.0 ** 40):
        raise ValueError(f"{Q.name}: slope not increasing across the probe range")


def test_shipped_young_functions_validate():
    for Q in (LOG, LOG2, young_power(1.5), young_power(2.0), young_log_power(0.5)):
        validate(Q)


def test_validate_rejects_concave_function():
    bad = YoungFunction("sqrt", lambda u: np.sqrt(np.asarray(u, dtype=float)))
    with pytest.raises(ValueError):
        validate(bad)


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


def test_norm_of_a_tiny_nonzero_function_is_not_zero():
    f = GridFunction2D.constant(1e-305, 8)  # a normal float, and so is its norm 2*pi*1e-305
    norm = luxemburg_norm(f, young_power(2.0))
    assert norm == pytest.approx(2.0 * math.pi * 1e-305, rel=1e-15, abs=0)
    assert _certified(f, young_power(2.0), norm)
    norm = luxemburg_norm(f, LOG)
    assert norm > 0.0
    assert _certified(f, LOG, norm)


def test_norm_outside_the_float_range_is_refused():
    # one cell of the smallest subnormal: the modular stays <= 1 until the halving reaches k = 0
    vals = np.zeros((64, 64))
    vals[0, 0] = 5e-324
    with pytest.raises(ValueError, match="scale"):
        luxemburg_norm(GridFunction2D(values=vals), young_power(2.0))
    # the norm 2*pi*1e308 overflows: the doubling reaches k = inf, and the
    # modulars that overflow to inf on the way raise no warning
    for Q in (young_power(2.0), LOG):
        with pytest.raises(ValueError, match="scale"):
            luxemburg_norm(GridFunction2D.constant(1e308, 8), Q)


def _certified(f, Q, norm):
    """Whether ``norm`` is the least float with modular <= 1: the float below it has a modular above 1."""
    return modular(f, Q, norm) <= 1.0 < modular(f, Q, np.nextafter(norm, 0.0))


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


def test_norm_is_the_least_float_with_modular_at_most_one(rng):
    for f in _many_magnitude_grids(rng):
        for Q in (LOG, LOG2, young_power(2.0), young_log_power(0.5)):
            assert _certified(f, Q, luxemburg_norm(f, Q))


#: The reported Young functions as 40-digit mpmath formulas, by name.
MP_YOUNG = {
    LOG.name: lambda u: u * mpmath.log1p(u),
    LOG2.name: lambda u: u * mpmath.log1p(u) ** 2,
    "u^2.0": lambda u: u ** 2,
}


def test_report_norms_match_a_40_digit_root():
    # a step's modular is cells * cell_area * Q(value / k): its norm solves that = 1
    for _, step in orlicz_report_steps(1024):
        for Q in (LOG, LOG2, young_power(2.0)):
            norm = luxemburg_norm(step, Q)
            with mpmath.workdps(40):
                area = mpmath.mpf(step.cells) * mpmath.mpf(step.cell_area)
                modular_minus_one = lambda k: area * MP_YOUNG[Q.name](mpmath.mpf(step.value) / k) - 1
                root = mpmath.findroot(modular_minus_one, mpmath.mpf(norm))
                assert abs(norm - root) <= 4e-16 * root, (step, Q.name)


@pytest.fixture
def young_calls(monkeypatch):
    """The names of the Young functions called from here on, one entry a call, so one a modular."""
    calls = []
    call = YoungFunction.__call__
    monkeypatch.setattr(YoungFunction, "__call__", lambda Q, u: calls.append(Q.name) or call(Q, u))
    return calls


def test_report_norms_take_at_most_12_modular_evaluations_each(young_calls):
    # a bisection to adjacent floats takes about 60 a norm, and regula falsi without the
    # scaling of a kept end up to 16
    per_norm = []
    for _, step in orlicz_report_steps(1024):
        for Q in (LOG, LOG2, young_power(2.0)):
            young_calls.clear()
            luxemburg_norm(step, Q)
            per_norm.append(len(young_calls))
    assert len(per_norm) == 9 and 0 < min(per_norm) and max(per_norm) <= 12, per_norm


@pytest.mark.parametrize(
    "value, Q", [(1e300, LOG), (1e150, LOG), (1e150, young_power(2.0)), (1e-150, young_power(2.0))]
)
def test_norms_far_from_one_take_as_few_evaluations(young_calls, value, Q):
    # each step is taken relative to the bracket's lower end: taken from log k itself, it would
    # miss the root by hundreds of ulps at these sizes (58 to 263 evaluations)
    f = StepFunction(value, 64 * 64, (2.0 * math.pi / 64) ** 2)
    norm = luxemburg_norm(f, Q)
    assert len(young_calls) <= 12
    assert _certified(f, Q, norm)


@pytest.mark.parametrize(
    "f, Q",
    [
        (StepFunction(1e300, 4096, (2.0 * math.pi / 64) ** 2), young_power(2.0)),
        (StepFunction(1e-150, 4096, (2.0 * math.pi / 64) ** 2), LOG2),
        (GridFunction2D.constant(1e-305, 8), LOG2),
    ],
)
def test_norms_where_the_modular_overflows_or_vanishes_take_few_evaluations(young_calls, f, Q):
    # while the modular is inf or 0 the walk squares its factor: a walk of one binade an
    # evaluation takes 497, 153 and 668 evaluations here
    norm = luxemburg_norm(f, Q)
    assert len(young_calls) <= 30
    assert _certified(f, Q, norm)


def test_norm_bracketed_across_the_whole_float_range():
    # modular(1) is subnormal, so the first bracket runs from about 1e-322 to 1, a ratio past the
    # float range: the step between its ends must not overflow
    f = StepFunction(1e-320, 64, (2.0 * math.pi / 8) ** 2)
    norm = luxemburg_norm(f, young_power(1.01))
    assert norm == pytest.approx(1e-320 * (4.0 * math.pi ** 2) ** (1.0 / 1.01), rel=1e-3)
    assert _certified(f, young_power(1.01), norm)


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
    for u_grid in ([math.nan], [1.0, math.nan], [2.0, 4.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            inclusion_deficit(LOG, "log", u_grid)


# ------------------------------------------------------------- step functions

def _report_functions(G):
    """orlicz's three reported functions at grid size G, each as (step, the grid it stands for)."""
    const, indicator, bump = (step for _, step in orlicz_report_steps(G))
    side = math.isqrt(indicator.cells)
    indicator_values = np.zeros((G, G))
    indicator_values[:side, :side] = 1.0
    yield const, lambda: GridFunction2D.constant(1.0, G)
    yield indicator, lambda: GridFunction2D(values=indicator_values)
    yield bump, lambda: bump_grid(bump, G)


@pytest.mark.parametrize("G", [32, 64, 128, 256, 1024, 4096])
def test_step_gives_its_grids_modular_and_norm_bit_for_bit(G):
    # the one Luxemburg loop serves both producers: a step's one value and cell count read
    # exactly like the histogram of the grid it stands for, zero cells and all
    for step, make_grid in _report_functions(G):
        grid = make_grid()
        for Q in (LOG, LOG2, young_power(2.0)):
            norm = luxemburg_norm(grid, Q)
            assert luxemburg_norm(step, Q) == norm
            for k in (1e-3, 0.1, 0.5 * norm, norm, 2.0 * norm, 10.0):
                assert modular(step, Q, k) == modular(grid, Q, k)
                # one cell more or fewer is seen
                for cells in (step.cells - 1, step.cells + 1):
                    assert modular(StepFunction(step.value, cells, step.cell_area), Q, k) != modular(grid, Q, k)
        del grid  # one grid at a time


def test_step_histogram_and_zero_step():
    step = StepFunction(-2.5, 7, 0.25)
    mags, counts = step.magnitude_histogram
    assert mags.tolist() == [2.5] and counts.tolist() == [7.0]
    assert luxemburg_norm(StepFunction(0.0, 7, 0.25), LOG) == 0.0
    # a nonzero value on no cells is the zero function too: no halving down to the float range's end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert luxemburg_norm(StepFunction(2.0, 0, 1.0), LOG) == 0.0
    # 2^80 cells, past int64, count as a float
    assert StepFunction(1.0, 2 ** 80, 2.0 ** -80).magnitude_histogram[1][0] == 2.0 ** 80
    assert modular(StepFunction(1.0, 2 ** 80, 2.0 ** -80), young_power(2.0), 1.0) == 1.0
    # a step that is not a function is refused when it is built, not by a later modular
    for bad, message in (
        ((math.nan, 1, 1.0), "step value"), ((math.inf, 1, 1.0), "step value"),
        ((1.0, -5, 1.0), "cell count"), ((1.0, math.inf, 1.0), "cell count"), ((1.0, math.nan, 1.0), "cell count"),
        ((1.0, 1, 0.0), "cell area"), ((1.0, 1, -1.0), "cell area"), ((1.0, 1, math.inf), "cell area"),
        ((1.0, 1, math.nan), "cell area"),
    ):
        with pytest.raises(ValueError, match=message):
            StepFunction(*bad)


@pytest.mark.parametrize("Q", [LOG, young_power(2.0)])
def test_modular_of_a_step_on_no_cells_is_zero_at_any_scale(Q):
    # the zero function: no 0 * Q(inf) = nan where value / k overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1e-310, 1.0):
            assert modular(StepFunction(2.0, 0, 1.0), Q, k) == 0.0
