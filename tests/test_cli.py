"""CLI surface: run-value checks, exit codes, CSV shape, determinism."""

import json
import math
import os
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from logmeans import cosine, kernels, orlicz
from logmeans.cli import (
    CONVERGE_DEFAULT_N,
    EXIT_IO,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    KERNEL_TOL,
    KERNEL_VERIFY_N,
    MAX_KERNEL_SCALE,
    build_parser,
    main,
    quasi_random_points,
)
from logmeans.cosine import cosine_kernel
from logmeans.grid import GridFunction2D

from conftest import mp_far_tail, mp_tail, orlicz_report_steps, quasi_random_points_loop


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------- quasi-random points

def test_quasi_random_points_avoid_tubes():
    pts = quasi_random_points(500)
    assert len(pts) == 500
    for x, y in pts:
        for u in (x, y, x + y, x - y):
            assert abs(math.remainder(u, 2 * math.pi)) >= 0.02


@pytest.mark.parametrize("count", [1, 500, 1000, 4096])
def test_quasi_random_points_match_scalar_reference(count):
    # the vectorized filter keeps the same points, bit for bit, as the one-point-at-a-time loop
    assert np.array_equal(quasi_random_points(count), quasi_random_points_loop(count))


@pytest.mark.parametrize("elems", [32, 32 * 7, 32 * 600])
def test_quasi_random_points_screen_in_blocks(monkeypatch, elems):
    # blocks of 1, 7 and 600 candidates, each short of the points still missing: the accepted prefix
    # is the one-point loop's, bit for bit, whatever the block
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", elems)
    assert np.array_equal(quasi_random_points(1000), quasi_random_points_loop(1000))


def test_quasi_random_points_hold_one_screening_block():
    # 2^18 points (4 MiB) screened in blocks of BLOCK_ELEMS // 32 candidates, not all 9/8 of them at once
    tracemalloc.start()
    try:
        points = quasi_random_points(2 ** 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points.nbytes + 12e6


def test_quasi_random_points_of_zero_count_is_empty():
    assert quasi_random_points(0).shape == (0, 2)
    with pytest.raises(ValueError, match="count"):
        quasi_random_points(-1)


# ---------------------------------------------------------------- exit codes

def test_missing_output_dir_is_io_error(tmp_path):
    missing = tmp_path / "does-not-exist"
    assert main(["lemma", "--out", str(missing)]) == EXIT_IO


def test_unknown_command_is_usage_error(tmp_path):
    assert main(["frobnicate", "--out", str(tmp_path)]) == EXIT_USAGE


def test_bad_run_values_are_usage_errors(tmp_path, capsys):
    assert main(["converge", "--grid-size", "100", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "100" in err and "800" not in err
    assert main(["kernel-verify", "--samples", "0", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "concatenate" not in err
    # run values are checked before any command runs, whichever command is named
    for bad in (0, -8, 2, 100):
        assert main(["lemma", f"--grid-size={bad}", "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"got {bad}" in err
    assert main(["growth", "--samples", "0", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["lemma", "measure"])
def test_one_sample_per_axis_is_refused_where_corners_are_sampled(tmp_path, capsys, command):
    assert main([command, "--samples", "1", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at least 2 samples per axis" in err
    assert os.listdir(tmp_path) == []


def test_one_sample_is_enough_for_kernel_verify(tmp_path):
    assert main(["kernel-verify", "--samples", "1", "--out", str(tmp_path)]) == EXIT_OK
    assert os.listdir(tmp_path) == ["kernel_verify.csv"]


def test_zero_tolerance_fails_kernel_verify(tmp_path, monkeypatch):
    from logmeans import cli

    monkeypatch.setattr(cli, "KERNEL_TOL", 0.0)
    assert main(["kernel-verify", "--out", str(tmp_path), "--samples", "3"]) == EXIT_TOLERANCE


def test_kernel_verify_passes_each_row_on_its_own(tmp_path, monkeypatch):
    # twice the tolerance at one point of order 64 fails that row alone, and the command with it
    direct_many = kernels.log_kernel_direct_many

    def off_at_one_point(N, t, s):
        out = direct_many(N, t, s)
        row = list(N).index(64)
        out[row, 0] += 2.0 * KERNEL_TOL * (1.0 + abs(out[row, 0]))
        return out

    monkeypatch.setattr(kernels, "log_kernel_direct_many", off_at_one_point)
    assert main(["kernel-verify", "--samples", "8", "--out", str(tmp_path)]) == EXIT_TOLERANCE
    rows = [l.split(",") for l in read(tmp_path / "kernel_verify.csv").splitlines() if l and not l.startswith("#")]
    assert {int(row[0]): row[4] for row in rows[1:]} == {N: "0" if N == 64 else "1" for N in KERNEL_VERIFY_N}


def test_kernel_verify_makes_one_call_per_form_for_all_orders(tmp_path, monkeypatch):
    calls = []
    for name in ("closed_form_terms", "log_kernel_direct_many"):
        def spy(N, *args, _form=getattr(kernels, name), _name=name, **kwargs):
            calls.append((_name, list(N), len(args[0])))
            return _form(N, *args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    assert main(["kernel-verify", "--samples", "8", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [(name, list(KERNEL_VERIFY_N), 64) for name in ("closed_form_terms", "log_kernel_direct_many")]


def test_kernel_verify_builds_the_angle_tables_of_its_largest_order_alone(tmp_path, monkeypatch):
    # the direct form sums every order from the angle parts of the largest order alone, at sqrt(N)
    # sizes: with k = 32 q + j for N = 1024, one angle pair at the 32 orders origin + 32 q and one at
    # the 32 orders j, at x and at y; the closed form sums in O(1) an order and builds none, and no
    # (points, N) table is built
    built, make = Counter(), kernels.angle_pair  # points given parts, per (count, step)

    def counted(u, origin, count, step=1):
        built[count, step] += np.size(u)
        return make(u, origin, count, step)

    monkeypatch.setattr(kernels, "angle_pair", counted)
    for n_arg in ([], ["--n", str(max(KERNEL_VERIFY_N))]):
        built.clear()
        assert main(["kernel-verify", "--samples", "8", *n_arg, "--out", str(tmp_path)]) == EXIT_OK
        assert built == {(32, 32): 2 * 64, (32, 1): 2 * 64}


def test_kernel_verify_holds_one_block_of_closed_form_floats(tmp_path):
    # 49^2 = 2401 points at the seven default orders: one full block of BLOCK_ELEMS //
    # (CLOSED_FORM_FLOATS 7) = 1560 points and the rest; the command's peak, the closed form's floats of
    # a block, the direct form's arrays and the points included, stays within the block's 8 MB
    assert kernels.BLOCK_ELEMS // (kernels.CLOSED_FORM_FLOATS * len(KERNEL_VERIFY_N)) < 49 ** 2
    tracemalloc.start()
    try:
        code = main(["kernel-verify", "--samples", "49", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak <= 8 * kernels.BLOCK_ELEMS


def test_kernel_verify_checks_the_given_orders(tmp_path):
    # --n names the orders, in any order and with repeats; the report lists each once, ascending
    assert main(["kernel-verify", "--samples", "4", "--n", "64,5,5", "--out", str(tmp_path)]) == EXIT_OK
    rows = [l.split(",") for l in read(tmp_path / "kernel_verify.csv").splitlines() if l and not l.startswith("#")]
    assert [row[:2] for row in rows[1:]] == [["5", "16"], ["64", "16"]]
    assert all(row[4] == "1" for row in rows[1:])


def test_kernel_verify_refuses_orders_below_three(tmp_path, capsys):
    # the closed form has no order below 3: its ValueError exits 2 before any report is written, and
    # before any harmonic number is summed, so an order <= 0 is refused in the closed form's words too
    for orders, least in (("2,8", 2), ("0,8", 0), ("-5", -5)):
        assert main(["kernel-verify", "--samples", "4", "--n", orders, "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"closed form needs N >= 3, got {least}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_kernel_verify_states_its_certificates(tmp_path):
    # the nearest its points come to a singular tube, recomputed from the library
    assert main(["kernel-verify", "--samples", "8", "--n", "3,64", "--out", str(tmp_path)]) == EXIT_OK
    lines = read(tmp_path / "kernel_verify.csv").splitlines()
    stated = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line)
    xs, ys = quasi_random_points(64).T
    assert sorted(stated) == ["min_tube_distance", "report"]
    assert float(stated["min_tube_distance"]) == np.min(kernels.tube_distances(xs, ys)[1]) >= 0.02


def test_kernel_verify_default_passes(tmp_path):
    assert main(["kernel-verify", "--out", str(tmp_path), "--samples", "4"]) == EXIT_OK
    body = read(tmp_path / "kernel_verify.csv")
    data_rows = [l for l in body.splitlines() if l and not l.startswith("#")][1:]
    assert len(data_rows) >= 7  # one row per verified N


# --------------------------------------------------------------- csv output

def test_lemma_csv_columns_and_n0(tmp_path):
    assert main(["lemma", "--out", str(tmp_path), "--n", "3", "--samples", "5"]) == EXIT_OK
    body = read(tmp_path / "lemma.csv")
    assert "# paper_display=lemma-main" in body
    assert "# n0_estimate=3" in body
    header = [l for l in body.splitlines() if not l.startswith("#")][0]
    assert header == "n,kind,min_ratio,argmin_x,argmin_y,samples"


def test_lemma_empty_region_is_graceful(tmp_path):
    assert main(["lemma", "--out", str(tmp_path), "--n", "2"]) == EXIT_OK
    lines = read(tmp_path / "lemma.csv").splitlines()
    assert any("skipped_empty_region_n=2" in l for l in lines)
    data_rows = [l for l in lines if l and not l.startswith("#")][1:]
    assert data_rows == []
    # zero and negative scales too: the empty region is found before gamma(n), which refuses n < 1
    assert main(["lemma", "--out", str(tmp_path), "--n=-2,0,3", "--samples", "5"]) == EXIT_OK
    lines = read(tmp_path / "lemma.csv").splitlines()
    assert "# skipped_empty_region_n=-2,0" in lines
    assert [l.split(",")[0] for l in lines if l and not l.startswith("#")][1:] == ["3", "3"]


@pytest.mark.parametrize("n", ["19", "1100"])
def test_lemma_refuses_scale_beyond_memory_limit(tmp_path, capsys, n):
    # n = 19 needs about 3.2 GiB, the C_N table entries of 9 x 2^16 lattice points an axis and their
    # evaluation, and n = 1100 a byte count past the float range: each is refused from the count
    code = main(["lemma", "--out", str(tmp_path), "--n", n])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"n = {n}" in err and "GiB" in err
    assert not (tmp_path / "lemma.csv").exists()


def test_lemma_prints_the_largest_tail_bound_of_its_far_entries(tmp_path, monkeypatch):
    # the line recomputed from every C_N entry lemma evaluated: 2 |c_24| / |1 - z|^25 over the far
    # entries, N |1 - z| >= 40, with c_24 = 24! / ((N + 1) ... (N + 25)); and on sampled far entries the
    # remainder of the 24-term sum, against mpmath's Lerch tail, stays under the printed line
    calls = []

    def recorded(N, distances, offsets):
        calls.append((N, np.asarray(distances), np.asarray(offsets)))
        return cosine_kernel(N, distances, offsets)

    monkeypatch.setattr(kernels, "cosine_kernel", recorded)
    assert main(["lemma", "--out", str(tmp_path), "--n", "3,5,6"]) == EXIT_OK
    lines = read(tmp_path / "lemma.csv").splitlines()
    printed = float(next(l for l in lines if l.startswith("# max_tail_bound=")).split("=")[1])
    assert [N for N, _, _ in calls] == [4 ** 3, 4 ** 5, 4 ** 6]
    best, samples = 0.0, []
    for N, d, c in calls:
        u = 2.0 * math.pi * d / (N + 0.5) + c
        gap = np.abs(2.0 * np.sin(0.5 * u))
        far = np.flatnonzero(N * gap >= cosine.NEAR_BAND)
        c24 = float(Fraction(math.factorial(24), math.prod(range(N + 1, N + 26))))
        bounds = 2.0 * c24 / gap[far] ** 25
        if far.size:
            best = max(best, bounds.max())
            samples += [(N, float(u[i])) for i in far[[np.argmax(bounds), 0, -1, len(far) // 2]]]
    assert printed > 0.0 and printed == pytest.approx(best, rel=1e-12)
    for N, u in samples:
        with mpmath.workdps(60):
            partial, _ = mp_far_tail(N, 0.5 * u, 24)
            assert abs(mp_tail(N, mpmath.mpf(u)) - partial) <= printed, (N, u)


def test_lemma_writes_a_zero_tail_bound_when_every_entry_is_near(tmp_path):
    # at n = 3 every C_N entry lies in the near band
    assert main(["lemma", "--out", str(tmp_path), "--n", "3"]) == EXIT_OK
    assert "# max_tail_bound=0.0" in read(tmp_path / "lemma.csv").splitlines()


def test_lemma_runs_scale_nine(tmp_path):
    # N = 4^9 = 262144 orders on 3 samples a window (192 lattice points an axis)
    assert main(["lemma", "--out", str(tmp_path), "--n", "9", "--samples", "3"]) == EXIT_OK
    rows = [l.split(",") for l in read(tmp_path / "lemma.csv").splitlines() if l and not l.startswith("#")][1:]
    assert [row[:2] for row in rows] == [["9", "I"], ["9", "J"]]
    assert all(float(row[2]) > 0.0 and row[5] == str(192 ** 2) for row in rows)


def test_measure_runs_scale_twenty(tmp_path):
    # 4^17 window pairs, walked in blocks of rows of windows, each over its first row's prefix
    assert main(["measure", "--out", str(tmp_path), "--n", "20"]) == EXIT_OK
    rows = [l.split(",") for l in read(tmp_path / "measure.csv").splitlines() if l and not l.startswith("#")][1:]
    assert [row[0] for row in rows] == ["20"] and float(rows[0][2]) > 0.0


@pytest.mark.parametrize("n", ["30"])
def test_measure_refuses_scale_beyond_memory_limit(tmp_path, capsys, n):
    # measure holds no window-pair array: the first scale it refuses is n = 30, whose 2^27
    # windows need 4 GiB of window arrays, refused by build_region before it allocates them
    tracemalloc.start()
    try:
        code = main(["measure", "--out", str(tmp_path), "--n", n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"n = {n}" in err and "GiB" in err
    assert not (tmp_path / "measure.csv").exists()
    assert peak < 10e6


@pytest.mark.parametrize(
    "argv, what",
    [
        (["growth", "--n", "40"], "n = 40"),
        (["measure", "--n", "40"], "n = 40"),
        (["growth", "--n", "1052"], "n = 1052"),
        (["kernel-verify", "--n", "3,1" + "0" * 400], "kernel-verify's 81 points at 9 samples and 2 orders"),
        (["converge", "--n", "1" + "0" * 400], "converge's grids at grid size 2343657977"),
    ],
    ids=["growth", "measure", "growth-1052", "kernel-verify-1e400", "converge-1e400"],
)
def test_region_refuses_scale_beyond_memory_limit(tmp_path, capsys, argv, what):
    # the 2^37 windows of n = 40 would take 4096 GiB of endpoint arrays: build_region refuses them
    # from the count, for growth and for measure, before it allocates them; the windows of n = 1052
    # and kernel-verify's and converge's arrays at an order of 10^400 take a byte count past the
    # float range, which is compared as an integer and refused with the same message
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert what in err and "GiB, over the 2 GiB limit" in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 10e6


@pytest.mark.parametrize("command", ["converge"])
def test_grid_commands_refuse_grids_beyond_memory_limit(tmp_path, capsys, monkeypatch, command):
    # under a 1 MiB limit converge's 65536-point axis (24 bytes a sample) is refused from the
    # estimate, before the first array is built
    grid = "65536"
    monkeypatch.setattr(kernels, "MAX_LATTICE_GIB", 2 ** -10)
    tracemalloc.start()
    try:
        code = main([command, "--out", str(tmp_path), "--grid-size", grid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"grid size {grid}" in err and "GiB" in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 2e6


@pytest.mark.parametrize("command, cap", [("converge", 1e6)])
def test_grid_commands_stay_under_their_memory_estimates(tmp_path, monkeypatch, command, cap):
    # at G = 1024 converge holds three 1024-point arrays and no grid; a first run at a small
    # grid does the lazy imports (numpy.fft, about 0.3 MB), which no estimate of the arrays covers
    assert main([command, "--out", str(tmp_path), "--grid-size", "64"]) == EXIT_OK
    estimates = []
    refuse = kernels.refuse_beyond_memory_limit

    def recording_refuse(what, nbytes):
        estimates.append(nbytes)
        refuse(what, nbytes)

    monkeypatch.setattr(kernels, "refuse_beyond_memory_limit", recording_refuse)
    tracemalloc.start()
    try:
        code = main([command, "--out", str(tmp_path), "--grid-size", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(estimates) == 1 and peak < estimates[0] and peak < cap


@pytest.mark.parametrize(
    "argv, estimate",
    [
        (["lemma", "--n", "3", "--samples", "200"], "lemma's survey at n = 3, 200 samples"),
        (["measure", "--samples", "200"], "bump survey at n = 3, 200 samples"),
        (["kernel-verify", "--samples", "64"], "4096 points at 64 samples"),
    ],
)
def test_samples_beyond_memory_limit_are_refused(tmp_path, capsys, monkeypatch, argv, estimate):
    # under a 32 KiB limit, the 1-D arrays of lemma's 200 lattice points (C_N entries and their
    # evaluation), measure's c1 fit over 200 profile columns (2 x 64 floats each) and kernel-verify's
    # 64^2 points (2 floats each) are refused from the count, before anything is allocated
    monkeypatch.setattr(kernels, "MAX_LATTICE_GIB", 2 ** -15)
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert estimate in err and "GiB" in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 2e6


def test_kernel_verify_memory_estimate_bounds_its_peak(tmp_path):
    # the estimate kernel-verify refuses by, 8 (4 sum(orders) + 2 points) bytes, bounds what it holds
    # at a large order: the direct form's blocked weights and their fill temporary (2 floats of the
    # largest order, 16.8 MB here against the estimate's 33.7 MB)
    orders, points = [4096, 1048576], 64
    assert main(["kernel-verify", "--samples", "2", "--out", str(tmp_path)]) == EXIT_OK  # lazy imports
    tracemalloc.start()
    try:
        code = main(["kernel-verify", "--samples", "8", "--n", "4096,1048576", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak <= 8 * (4 * sum(orders) + 2 * points)


#: One tracemalloc budget for the blocked commands, whatever their lattice pairs, window pairs or points.
MEMORY_BUDGET = 80e6


@pytest.mark.parametrize(
    "argv, flag, values",
    [
        (["lemma", "--n", "3"], "--samples", ("1600", "3200")),  # 2.56 M and 10.24 M lattice pairs
        (["measure", "--n", "3"], "--samples", ("1600", "3200")),  # the same pairs in the c1 fit
        (["measure"], "--n", ("16", "17")),  # 4^13 and 4^14 window pairs
        (["kernel-verify", "--n", ",".join(map(str, range(3, 33)))], "--samples", ("64", "128")),  # 2 and 8 blocks
    ],
    ids=["lemma", "c1-fit", "measure", "kernel-verify"],
)
def test_blocked_commands_keep_one_memory_budget(tmp_path, argv, flag, values):
    # each input is past one block and the second is 4x the first: lattice pairs, window pairs and
    # points are reduced in blocks of kernels.BLOCK_ELEMS, so the peak does not grow with them
    assert main(["kernel-verify", "--samples", "2", "--out", str(tmp_path)]) == EXIT_OK  # lazy imports
    for value in values:
        tracemalloc.start()
        try:
            code = main([*argv, flag, value, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and peak < MEMORY_BUDGET, (value, peak)


@pytest.mark.parametrize("command, n_arg, kept", [("growth", "2", []), ("measure", "2,6", ["6"])])
def test_empty_region_is_skipped_like_lemma(tmp_path, command, n_arg, kept):
    assert main([command, "--out", str(tmp_path), "--n", n_arg, "--samples", "5"]) == EXIT_OK
    lines = read(tmp_path / f"{command}.csv").splitlines()
    assert "# skipped_empty_region_n=2" in lines
    data_rows = [l for l in lines if l and not l.startswith("#")][1:]
    assert [r.split(",")[0] for r in data_rows] == kept


@pytest.mark.parametrize(
    "command, given, ascending", [("lemma", "4,3,3", "3,4"), ("growth", "5,3,3", "3,5"), ("measure", "7,6,6", "6,7")]
)
def test_n_lists_run_ascending_and_once_whatever_the_flag_order(tmp_path, command, given, ascending):
    # every command reads --n as its distinct values in ascending order
    codes = []
    for name, n_arg in (("given", given), ("ascending", ascending)):
        (tmp_path / name).mkdir()
        codes.append(main([command, "--n", n_arg, "--samples", "5", "--out", str(tmp_path / name)]))
    assert codes[0] == codes[1]
    assert read(tmp_path / "given" / f"{command}.csv") == read(tmp_path / "ascending" / f"{command}.csv")


def test_measure_fits_no_constant_when_every_scale_is_skipped(tmp_path, monkeypatch):
    from logmeans import counterexamples

    def no_fit(*args, **kwargs):
        raise AssertionError("bump mean run with no scale to report")

    monkeypatch.setattr(counterexamples, "bump_mean_lower_bound", no_fit)
    assert main(["measure", "--out", str(tmp_path), "--n", "2"]) == EXIT_OK
    lines = read(tmp_path / "measure.csv").splitlines()
    assert lines == ["# paper_display=est1", "# skipped_empty_region_n=2", "n,c1,measure,bound"]


def test_growth_csv(tmp_path):
    assert main(["growth", "--out", str(tmp_path), "--n", "3,4", "--samples", "5"]) == EXIT_OK
    body = read(tmp_path / "growth.csv")
    assert body.startswith("# paper_display=(b)\n")
    header = [l for l in body.splitlines() if not l.startswith("#")][0]
    assert header == "n,geometric_sum,gs_over_n2,l1_lower"


def test_growth_and_measure_state_what_their_numbers_are(tmp_path):
    # growth's l1_lower is a region-restricted lower bound, nan past MAX_KERNEL_SCALE; measure's c1 is
    # a lattice minimum at --samples per window and c1_fit_scale, not a certificate.  Each line is
    # checked against the rows; test_commands_are_byte_reproducible reruns both commands
    from logmeans import counterexamples as cx

    cases = (
        (["growth", "--n", f"{MAX_KERNEL_SCALE},{MAX_KERNEL_SCALE + 1}"],
         [f"# l1_lower=region-restricted lower bound of the L1 norm; nan past n={MAX_KERNEL_SCALE}"]),
        (["measure", "--n", "6", "--samples", "5"],
         ["# c1_fit_scale=3", "# c1=sampled minimum (5 samples per window and axis at n=3); not a certificate"]),
    )
    rows = {}
    for argv, stated in cases:
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        lines = read(tmp_path / f"{argv[0]}.csv").splitlines()
        assert [line for line in lines if line.startswith("#")][-len(stated):] == stated
        rows[argv[0]] = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert [math.isnan(float(row[3])) for row in rows["growth"]] == [False, True]
    c1 = cx.bump_mean_lower_bound(3, 5).min_ratio / cx.BUMP_PREFACTOR
    assert [float(row[1]) for row in rows["measure"]] == [c1]


def test_growth_ratio_stays_under_factor_two_on_small_scales(tmp_path):
    assert main(["growth", "--out", str(tmp_path), "--n", "3,4,5", "--samples", "5"]) == EXIT_OK
    rows = [
        l.split(",") for l in read(tmp_path / "growth.csv").splitlines()
        if l and not l.startswith("#")
    ][1:]
    ratios = [float(r[2]) for r in rows]
    assert max(ratios) / min(ratios) < 2.0


def test_measure_csv(tmp_path):
    assert main(["measure", "--out", str(tmp_path), "--n", "6,7", "--samples", "5"]) == EXIT_OK
    body = read(tmp_path / "measure.csv")
    assert body.startswith("# paper_display=est1\n# c1_fit_scale=3\n")
    rows = [l.split(",") for l in body.splitlines() if l and not l.startswith("#")][1:]
    assert all(float(r[3]) > 0.0 for r in rows)


def test_converge_csv_final_errors_decrease(tmp_path):
    assert main(["converge", "--out", str(tmp_path)]) == EXIT_OK
    lines = read(tmp_path / "converge.csv").splitlines()
    assert "# order_clamped=marcinkiewicz:256->255" in lines
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    assert rows[0][0] == "norlund-log"
    norlund = [float(r[2]) for r in rows if r[0] == "norlund-log"]
    tail = norlund[-3:]
    assert tail[0] >= tail[1] >= tail[2]


def test_converge_names_clamped_orders(tmp_path):
    assert main(["converge", "--out", str(tmp_path), "--n", "1,600"]) == EXIT_OK
    lines = read(tmp_path / "converge.csv").splitlines()
    assert lines[:4] == [
        "# function=|x|", "# grid_size=2048", "# order_clamped=riesz-log:1->2", "kind,n,l1_error",
    ]
    assert [tuple(l.split(",")[:2]) for l in lines[4:]] == [
        ("norlund-log", "1"), ("norlund-log", "600"),
        ("marcinkiewicz", "1"), ("marcinkiewicz", "600"),
        ("riesz-log", "2"), ("riesz-log", "600"),
    ]


def test_converge_judges_its_orders_ascending_whatever_the_flag_order(tmp_path):
    # the tolerance check reads the last three norlund-log rows: in flag order a correct
    # descending list failed it; sorted and deduplicated, it writes the default's report
    for name in ("default", "reversed"):
        (tmp_path / name).mkdir()
    assert main(["converge", "--out", str(tmp_path / "default")]) == EXIT_OK
    reversed_default = ",".join(str(n) for n in (*reversed(CONVERGE_DEFAULT_N), CONVERGE_DEFAULT_N[0]))
    assert main(["converge", "--out", str(tmp_path / "reversed"), "--n", reversed_default]) == EXIT_OK
    assert read(tmp_path / "reversed" / "converge.csv") == read(tmp_path / "default" / "converge.csv")
    assert main(["converge", "--out", str(tmp_path), "--n", "3,1"]) == EXIT_OK


def test_converge_writes_one_row_per_op_when_orders_clamp_together(tmp_path):
    # at grid size 4 (bandwidth 1) orders 1 and 2 both give marcinkiewicz 1 and riesz-log 2
    assert main(["converge", "--out", str(tmp_path), "--grid-size", "4", "--n", "1,2"]) == EXIT_OK
    lines = read(tmp_path / "converge.csv").splitlines()
    assert lines[:4] == [
        "# function=|x|", "# grid_size=4", "# order_clamped=marcinkiewicz:2->1,riesz-log:1->2", "kind,n,l1_error",
    ]
    assert [tuple(l.split(",")[:2]) for l in lines[4:]] == [
        ("norlund-log", "1"), ("norlund-log", "2"), ("marcinkiewicz", "1"), ("riesz-log", "2"),
    ]


def test_converge_runs_on_a_65536_point_axis(tmp_path):
    # |x| is sampled on one axis, not a 65536 x 65536 grid (32 GiB)
    assert main(["converge", "--out", str(tmp_path), "--grid-size", "65536", "--n", "4,16"]) == EXIT_OK
    lines = read(tmp_path / "converge.csv").splitlines()
    assert lines[:3] == ["# function=|x|", "# grid_size=65536", "kind,n,l1_error"]
    assert len(lines) == 9


def test_converge_unclamped_orders_write_no_clamp_line(tmp_path):
    assert main(["converge", "--out", str(tmp_path), "--n", "4,8,16"]) == EXIT_OK
    assert "order_clamped" not in read(tmp_path / "converge.csv")
    assert main(["converge", "--out", str(tmp_path), "--n", "0,4"]) == EXIT_USAGE


def test_orlicz_csv(tmp_path):
    assert main(["orlicz", "--out", str(tmp_path), "--grid-size", "128"]) == EXIT_OK
    body = read(tmp_path / "orlicz.csv")
    header = [l for l in body.splitlines() if not l.startswith("#")][0]
    assert header == "function,young,norm,modular_at_norm"
    rows = [l.split(",") for l in body.splitlines() if l and not l.startswith("#")][1:]
    for row in rows:
        if float(row[2]) > 0.0:
            assert abs(float(row[3]) - 1.0) <= 1e-6
    assert os.path.exists(tmp_path / "orlicz_deficit.csv")


def test_orlicz_certifies_every_printed_norm(tmp_path):
    # each printed norm is the least float with modular <= 1, and the certificate line is the
    # least modular one float below a norm
    assert main(["orlicz", "--out", str(tmp_path), "--grid-size", "1024"]) == EXIT_OK
    lines = read(tmp_path / "orlicz.csv").splitlines()
    printed = float(next(l for l in lines if l.startswith("# min_modular_one_float_below=")).split("=")[1])
    steps = dict(orlicz_report_steps(1024))
    youngs = {Q.name: Q for Q in (orlicz.LOG, orlicz.LOG2, orlicz.young_power(2.0))}
    below = []
    for name, young, norm, _ in [l.split(",") for l in lines if l and not l.startswith("#")][1:]:
        f, Q, norm = steps[name], youngs[young], float(norm)
        below.append(orlicz.modular(f, Q, math.nextafter(norm, 0.0)))
        assert orlicz.modular(f, Q, norm) <= 1.0 < below[-1], (name, young)
    assert len(below) == 9 and printed == min(below) > 1.0


def test_orlicz_refuses_grids_too_coarse_for_its_bump(tmp_path, capsys):
    # the n = 1 bump needs 16 (4 + 1/2) / pi ~ 23 points per axis, so grids of 4, 8 and 16 points are refused
    # before any report; grid sizes are powers of two, so the refusal names the least power of two at or
    # above 23, 32, which the --grid-size help gives as orlicz's least and which runs
    for grid in ("4", "8", "16"):
        assert main(["orlicz", "--out", str(tmp_path), "--grid-size", grid]) == EXIT_USAGE
        assert f"grid {grid} too coarse for bump scale 1 (need >= 32)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "orlicz.csv")
    assert ">= 32 (orlicz)" in build_parser().format_help()
    assert main(["orlicz", "--out", str(tmp_path), "--grid-size", "32"]) == EXIT_OK


def test_no_command_constructs_a_grid(tmp_path, monkeypatch):
    # orlicz reports one-value steps and converge runs on one axis, so no command builds a
    # GridFunction2D (the bench tracer counts its constructions as grid.GridFunction2D)
    built = []
    post_init = GridFunction2D.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GridFunction2D, "__post_init__", counting_post_init)
    GridFunction2D.constant(0.0, 4)
    assert len(built) == 1  # the count sees a construction
    for argv in (["orlicz", "--grid-size", "1024"], ["converge", "--grid-size", "1024"], ["lemma", "--n", "3"],
                 ["growth", "--n", "3"], ["measure", "--n", "3"], ["kernel-verify", "--samples", "4"]):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK, argv
    assert len(built) == 1


def test_orlicz_memory_does_not_grow_with_the_grid(tmp_path):
    # every reported function is a step held as one value and a cell count, so G = 2^20, which
    # as grids would take 8 TiB a grid, runs in well under 1 MB
    assert main(["orlicz", "--grid-size", "64", "--out", str(tmp_path)]) == EXIT_OK  # lazy imports
    tracemalloc.start()
    try:
        code = main(["orlicz", "--grid-size", str(2 ** 20), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 1e6


def test_orlicz_counts_the_cells_of_huge_grids_without_overflow(tmp_path):
    # at G = 2^40 the constant covers 2^80 cells, past int64; its norms are the small grids'
    # (every cell count times the cell area is 4 pi^2 exactly), and the bump reads its unsnapped
    # L log L norm 6.6402
    rows = {}
    for grid in (64, 2 ** 40):
        out = tmp_path / str(grid)
        out.mkdir()
        assert main(["orlicz", "--grid-size", str(grid), "--out", str(out), "--json"]) == EXIT_OK
        rows[grid] = json.loads(read(out / "orlicz.json"))["rows"]
    assert rows[2 ** 40][:3] == rows[64][:3]  # const_1 under the three Young functions
    norms = {(f, young): norm for f, young, norm, _ in rows[2 ** 40]}
    assert all(math.isfinite(norm) and norm > 0.0 for norm in norms.values())
    assert norms["bump_n1_unscaled", "u*log(1+u)"] == pytest.approx(6.6402, abs=5e-5)


def test_json_mirror(tmp_path):
    assert main(["lemma", "--out", str(tmp_path), "--n", "3", "--samples", "5", "--json"]) == EXIT_OK
    payload = json.loads(read(tmp_path / "lemma.json"))
    assert payload["header"] == ["n", "kind", "min_ratio", "argmin_x", "argmin_y", "samples"]
    assert len(payload["rows"]) == 2


def test_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path):
    assert build_parser() is build_parser()
    for name, flags in (("with", ["--json"]), ("without", [])):
        (tmp_path / name).mkdir()
        assert main(["converge", "--n", "4,8,16", "--out", str(tmp_path / name), *flags]) == EXIT_OK
    assert sorted(os.listdir(tmp_path / "with")) == ["converge.csv", "converge.json"]
    assert os.listdir(tmp_path / "without") == ["converge.csv"]


def test_json_mirror_writes_null_for_nan(tmp_path):
    # growth prints no l1_lower past MAX_KERNEL_SCALE: nan in the CSV, null in the JSON
    assert main(["growth", "--out", str(tmp_path), "--n", "5,6", "--json"]) == EXIT_OK
    assert read(tmp_path / "growth.csv").splitlines()[-1].endswith(",nan")

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    payload = json.loads(read(tmp_path / "growth.json"), parse_constant=refuse)
    assert [row[0] for row in payload["rows"]] == [5, 6]
    assert payload["rows"][0][3] > 0.0 and payload["rows"][1][3] is None


# -------------------------------------------------------------- determinism

@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-verify", "--samples", "4"],
        ["lemma", "--n", "3", "--samples", "5"],
        ["growth", "--n", "3,4", "--samples", "5"],
        ["measure", "--n", "6", "--samples", "5"],
        ["converge", "--n", "4,8,16"],
        ["orlicz", "--grid-size", "64"],
    ],
)
def test_commands_are_byte_reproducible(tmp_path, argv):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    assert main(argv + ["--out", str(out_a), "--json"]) in (EXIT_OK, EXIT_TOLERANCE)
    assert main(argv + ["--out", str(out_b), "--json"]) in (EXIT_OK, EXIT_TOLERANCE)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert read(out_a / name) == read(out_b / name), name
