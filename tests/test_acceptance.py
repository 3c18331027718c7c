"""
Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Two criteria are known to fail for geometric reasons documented with the
package: the two-sided factor-2 band on geometric_sum(n)/n^2 over n = 3..8
(the exact closed-form values span a factor ~2.98; the quadratic shadow holds
one-sidedly with slack 2), and the exceedance bound at n = 3, 4, 5 (the
certified set {x y < 2^{-3n}} inside the shrunken region is empty until
n = 6: its smallest x y is ~58 * 2^{-4n}).  Both tests state the criterion
exactly and are left red on purpose.
"""

import math
import time

import numpy as np

from logmeans.cli import main, quasi_random_points
from logmeans.counterexamples import (
    bump_mean_lower_bound,
    exceedance_measure,
    geometric_sum,
    l1_growth,
)
from logmeans.grid import GridFunction2D
from logmeans.fourier import GridOp, evaluate_grid, fourier_coeffs
from logmeans.kernels import (
    alpha,
    beta,
    lemma_main_check,
    log_kernel_closed,
    log_kernel_direct_many,
)
from logmeans.means import l1_distance
from logmeans.orlicz import (
    LOG,
    LOG2,
    luxemburg_norm,
    young_log_power,
    young_power,
)

from conftest import operator_norm_probe, phase_range_check, r_nm, telescoped_sums


def report(number: int, label: str, ok: bool) -> bool:
    print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_kernel_form_equivalence():
    start = time.monotonic()
    pts = quasi_random_points(1000)
    ok = True
    for N in (3, 8, 16, 64, 256, 1024):
        direct = log_kernel_direct_many(N, pts[:, 0], pts[:, 1])
        for i, (x, y) in enumerate(pts):
            ev = log_kernel_closed(N, float(x), float(y))
            budget = 1e-8 * (1.0 + abs(direct[i]))
            if abs(ev.value - direct[i]) > budget:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert report(1, "kernel form equivalence", ok), f"elapsed={elapsed:.1f}s"


def test_criterion_02_telescoping_identity():
    rng = np.random.default_rng(2)
    ok = True
    worst = 0.0
    for N in range(4, 1025):
        us = rng.uniform(0.01, 2 * math.pi - 0.01, 100)
        k = np.arange(1, N + 1)
        direct = np.cos(np.outer(us, k)) @ (1.0 / k)
        T, V, W, _ = telescoped_sums(N, us, N - 2)
        worst = max(worst, float(np.max(np.abs(T + V + W - 0.75 - direct))))
    ok &= worst <= 1e-10

    # the certified bound covers the discarded tail: truncated vs full form.
    # Trials are drawn as (N, u, K) one at a time, then evaluated per N, once
    # with the caps K and once in full; a point sits in the same row of both
    # batches, so at K = N - 2 (tail bound 0) the two forms agree bit for bit.
    trials: dict[int, list[tuple[float, int]]] = {}
    for _ in range(10_000):
        N = int(rng.integers(4, 1025))
        u = float(rng.uniform(0.01, 2 * math.pi - 0.01))
        K = int(rng.integers(1, N - 1))
        trials.setdefault(N, []).append((u, K))
    violations = 0
    for N, drawn in trials.items():
        us, caps = (np.array(column) for column in zip(*drawn))
        T, V, W, bound = telescoped_sums(N, us, caps)
        Tf, Vf, Wf, _ = telescoped_sums(N, us, np.full(len(us), N - 2))
        value, full = T + V + W - 0.75, Tf + Vf + Wf - 0.75
        violations += int(np.sum(np.abs(value - full) > bound))
    ok &= violations == 0
    assert report(2, "telescoping identity", ok), f"worst={worst:.2e} violations={violations}"


def test_criterion_03_phase_ranges():
    ok = True
    for n in (3, 4, 5):
        for m in range(1, 2 ** (n - 3) + 1):
            for x in np.linspace(alpha(m, n), beta(m, n), 201):
                if not phase_range_check(n, float(x)).ok:
                    ok = False
            left = phase_range_check(n, alpha(m, n))
            right = phase_range_check(n, beta(m, n))
            ok &= abs(left.cos_val - 0.25) <= 1e-12
            ok &= abs(right.cos_val) <= 1e-12
    assert report(3, "phase ranges", ok)


def test_criterion_04_kernel_lower_bound_shadow():
    start = time.monotonic()
    reports = {n: lemma_main_check(n) for n in (3, 4, 5)}
    mins = [r.i_min_ratio for r in reports.values()]
    mains = [r.main_min_over_n for r in reports.values()]
    rems = [r.remainder_max for r in reports.values()]
    ok = all(v > 0.0 for v in mins)
    ok &= all(v > 0.0 for v in mains) and max(mains) / min(mains) < 3.0
    ok &= max(rems) / min(rems) < 3.0
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    assert report(4, "kernel lower-bound shadow", ok), (
        f"mins={mins} mains={mains} rems={rems} elapsed={elapsed:.1f}s"
    )


def test_criterion_05a_growth_shadow_two_sided_band():
    # KNOWN RED: the exact per-rectangle log sums give gs/n^2 spanning a
    # factor ~2.98 over n = 3..8 (the n^2 shadow is still in its transient at
    # desk scale; only the one-sided slack-2 bound holds there).
    values = [geometric_sum(n) / n ** 2 for n in range(3, 9)]
    ok = max(values) / min(values) < 2.0
    assert report(5, "growth shadow: gs/n^2 factor-2 band", ok), f"spread={max(values)/min(values):.3f}"


def test_criterion_05b_growth_shadow_l1_increasing():
    values = [l1_growth(n).l1_lower for n in (3, 4, 5)]
    ok = values[0] < values[1] < values[2]
    assert report(5, "growth shadow: l1 lower bound increasing", ok), f"values={values}"


def test_criterion_06_divergence_vs_convergence_contrast():
    l1 = {n: l1_growth(n).l1_lower for n in (3, 4, 5)}
    log_ratios = [operator_norm_probe(n, LOG, l1_lower=l1[n]).ratio for n in (3, 4, 5)]
    log2_ratios = [operator_norm_probe(n, LOG2, l1_lower=l1[n]).ratio for n in (3, 4, 5)]
    ok = log_ratios[0] < log_ratios[1] < log_ratios[2]
    # "bounded, no divergence" for the matched space, operationalized as a
    # factor-2 band across the tested scales (see decisions ledger)
    ok &= max(log2_ratios) / min(log2_ratios) <= 2.0

    G = 512
    f = GridFunction2D.from_function(lambda x, y: np.abs(x) + 0.0 * y, G)
    c = fourier_coeffs(f, G // 2 - 1)
    errors = [
        l1_distance(evaluate_grid(c, GridOp("norlund-log", n)), f) for n in (16, 64, 256)
    ]
    ok &= errors[0] > errors[1] > errors[2]
    assert report(6, "divergence-vs-convergence contrast", ok), (
        f"log={log_ratios} log2={log2_ratios} errors={errors}"
    )


def test_criterion_07_exceedance_shadow():
    # KNOWN RED: with the threshold coefficient fitted from the kernel lower
    # bound, the certified exceedance set is {x y < 2^{-3n}} inside the
    # shrunken region, and that intersection is empty for every n <= 5
    # (smallest x y there is ~58 * 2^{-4n}).  The bound is therefore exactly
    # zero at n = 3, 4, 5; it turns positive with a shared constant from
    # n = 6 (covered by the unit tests).
    c1 = bump_mean_lower_bound(3).min_ratio
    bounds = [exceedance_measure(n, c1).bound for n in (3, 4, 5)]
    ok = all(b > 0.0 for b in bounds)
    assert report(7, "exceedance shadow", ok), f"bounds={bounds}"


def test_criterion_08_window_count_asymptotics():
    products = []
    for n in range(6, 11):
        for m in range(1, 2 ** (n - 3) + 1):
            r = r_nm(n, m)
            if r >= 1:
                products.append(r * m / 2 ** n)
    ok = bool(products) and min(products) > 0.0
    ok &= max(products) / min(products) <= 4.0
    assert report(8, "window-count asymptotics", ok), (
        f"lo={min(products):.5f} hi={max(products):.5f}"
    )


def test_criterion_09_orlicz_machinery():
    ok = True
    # closed-form cases
    const = GridFunction2D.constant(1.0, 64)
    ok &= abs(luxemburg_norm(const, young_power(2.0)) - 2.0 * math.pi) <= 1e-6

    G = 256
    h = 2.0 * math.pi / G
    side = int(round(math.sqrt(round(1.0 / h ** 2))))
    vals = np.zeros((G, G))
    vals[:side, :side] = 1.0
    indicator = GridFunction2D(values=vals)
    area = (side * h) ** 2
    lo, hi = 1e-6, 1e6
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if area * (1.0 / mid) * math.log1p(1.0 / mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    ok &= abs(luxemburg_norm(indicator, LOG) - hi) <= 1e-6

    # randomized scaling / monotonicity, 10^3 trials
    rng = np.random.default_rng(9)
    for _ in range(500):
        base = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        f = GridFunction2D(values=np.abs(base))
        c = float(rng.uniform(1e-3, 1e3))
        n_f = luxemburg_norm(f, LOG)
        n_cf = luxemburg_norm(GridFunction2D(values=np.abs(c * base)), LOG)
        if abs(n_cf - c * n_f) > 1e-8 * max(1.0, c * n_f):
            ok = False
    for _ in range(500):
        a = np.abs(rng.normal(size=(8, 8)))
        b = a + np.abs(rng.normal(size=(8, 8)))
        n_a = luxemburg_norm(GridFunction2D(values=a), LOG2)
        n_b = luxemburg_norm(GridFunction2D(values=b), LOG2)
        if n_a > n_b + 1e-9:
            ok = False

    # rescaled-bump membership wherever the slope condition holds (scales >= 2;
    # the n = 1 boundary case is documented in the unit tests)
    from logmeans.kernels import gamma

    for Q in (LOG, LOG2, young_log_power(0.5), young_log_power(0.75)):
        for n in range(2, 9):
            u = 2.0 ** (4 * n)
            if float(Q(u)) / u < 4.0:
                continue
            g = gamma(n)
            peak = 2.0 ** (4 * n - 1) / float(Q(u)) / g ** 2
            if g * g * float(Q(peak)) > 1.0:
                ok = False
    assert report(9, "orlicz machinery", ok)


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    commands = [
        ["kernel-verify", "--samples", "4"],
        ["lemma", "--n", "3,4", "--samples", "5"],
        ["growth", "--n", "3,4", "--samples", "5"],
        ["measure", "--n", "6,7,8"],
        ["converge", "--n", "4,16,64"],
        ["orlicz", "--grid-size", "64"],
    ]
    for idx, argv in enumerate(commands):
        out_a = tmp_path / f"a{idx}"
        out_b = tmp_path / f"b{idx}"
        out_a.mkdir()
        out_b.mkdir()
        code_a = main(argv + ["--out", str(out_a)])
        code_b = main(argv + ["--out", str(out_b)])
        ok &= code_a == code_b
        for name in sorted(p.name for p in out_a.iterdir()):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                if fa.read() != fb.read():
                    ok = False
    assert report(10, "CLI determinism", ok)
