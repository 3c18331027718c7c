"""CLI surface: run-value checks, exit codes, CSV shape, determinism."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from logmeans import kernels
from logmeans.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    KERNEL_VERIFY_N,
    main,
    quasi_random_points,
)

from conftest import quasi_random_points_loop


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


def test_kernel_verify_makes_one_call_per_form_and_order(tmp_path, monkeypatch):
    calls = []
    for name in ("closed_form_terms", "log_kernel_direct_many"):
        def spy(N, *args, _form=getattr(kernels, name), _name=name, **kwargs):
            calls.append((_name, N, len(args[0])))
            return _form(N, *args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    assert main(["kernel-verify", "--samples", "8", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [
        (name, N, 64) for N in KERNEL_VERIFY_N for name in ("closed_form_terms", "log_kernel_direct_many")
    ]


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


@pytest.mark.parametrize("n", ["9", "12"])
def test_lemma_refuses_scale_beyond_memory_limit(tmp_path, capsys, n):
    # n = 9 needs 3.4 GiB of (N, |X|) kernel matrices, n = 12 about 1.7 TiB:
    # both are refused from the estimate, before anything is allocated
    tracemalloc.start()
    try:
        code = main(["lemma", "--out", str(tmp_path), "--n", n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"n = {n}" in err and "GiB" in err
    assert not (tmp_path / "lemma.csv").exists()
    assert peak < 10e6


@pytest.mark.parametrize("n", ["16", "18", "25"])
def test_measure_refuses_scale_beyond_memory_limit(tmp_path, capsys, n):
    # n = 16 needs 3.6 GiB of window-pair arrays, n = 18 about 57 GiB and
    # n = 25 about 1e6 GiB: all are refused from the estimate, before any pair
    # array and before the region's windows (about 100 MB at n = 25) are built
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


@pytest.mark.parametrize("command", ["growth", "measure"])
def test_region_refuses_scale_beyond_memory_limit(tmp_path, capsys, command):
    # the 2^37 windows of n = 40 would take 4096 GiB of endpoint arrays:
    # growth's build_region refuses them from the estimate, before it allocates
    # them, and measure refuses its larger window-pair estimate before that
    tracemalloc.start()
    try:
        code = main([command, "--out", str(tmp_path), "--n", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "n = 40" in err and "GiB" in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 10e6


@pytest.mark.parametrize("command", ["converge", "orlicz"])
def test_grid_commands_refuse_grids_beyond_memory_limit(tmp_path, capsys, monkeypatch, command):
    # under a 1 MiB limit the 1024 x 1024 grids (8 MiB a grid) are refused
    # from the estimate, before the first grid is built
    monkeypatch.setattr(kernels, "MAX_LATTICE_GIB", 2 ** -10)
    tracemalloc.start()
    try:
        code = main([command, "--out", str(tmp_path), "--grid-size", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "grid size 1024" in err and "GiB" in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 2e6


@pytest.mark.parametrize(
    "argv, estimate",
    [
        (["lemma", "--n", "3", "--samples", "200"], "lemma's survey at n = 3, 200 samples"),
        (["measure", "--samples", "200"], "bump survey at n = 3, 200 samples"),
        (["kernel-verify", "--samples", "64"], "4096 points at 64 samples"),
    ],
)
def test_samples_beyond_memory_limit_are_refused(tmp_path, capsys, monkeypatch, argv, estimate):
    # under a 1 MiB limit, lemma's 200^2 lattice pairs (57 bytes each), measure's
    # c1 fit over 200^2 pairs (33 bytes each) and kernel-verify's 64^2 points
    # (530 bytes each) are refused from the estimate, before anything is allocated
    monkeypatch.setattr(kernels, "MAX_LATTICE_GIB", 2 ** -10)
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


@pytest.mark.parametrize("command, n_arg, kept", [("growth", "2", []), ("measure", "2,6", ["6"])])
def test_empty_region_is_skipped_like_lemma(tmp_path, command, n_arg, kept):
    assert main([command, "--out", str(tmp_path), "--n", n_arg, "--samples", "5"]) == EXIT_OK
    lines = read(tmp_path / f"{command}.csv").splitlines()
    assert "# skipped_empty_region_n=2" in lines
    data_rows = [l for l in lines if l and not l.startswith("#")][1:]
    assert [r.split(",")[0] for r in data_rows] == kept


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


def test_orlicz_builds_one_magnitude_histogram_per_grid(tmp_path, monkeypatch):
    # luxemburg_norm and modular share the grid's cached histogram: 3 grids, 3 np.unique calls
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    assert main(["orlicz", "--grid-size", "64", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 3


def test_json_mirror(tmp_path):
    assert main(["lemma", "--out", str(tmp_path), "--n", "3", "--samples", "5", "--json"]) == EXIT_OK
    payload = json.loads(read(tmp_path / "lemma.json"))
    assert payload["header"] == ["n", "kind", "min_ratio", "argmin_x", "argmin_y", "samples"]
    assert len(payload["rows"]) == 2


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
