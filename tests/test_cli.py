"""CLI surface: config handling, exit codes, CSV shape, determinism."""

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
    ConfigError,
    RunConfig,
    main,
    quasi_random_points,
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------------- config

def test_config_round_trip_default():
    cfg = RunConfig()
    assert RunConfig.from_text(cfg.to_text()) == cfg


def test_config_round_trip_custom():
    cfg = RunConfig(
        grid_size=128,
        n_list=(3, 5, 7),
        samples_per_rect=5,
        tol_bisection=1e-8,
        tol_kernel=1e-7,
        output_dir="results",
    )
    assert RunConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig.from_text("grid_size=64\nbogus=1\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig.from_text("grid_size=not-a-number\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("n_list=3,x\n")
    # run values are validated when the config is built, before any command runs
    for bad in (0, -8, 2, 100):
        with pytest.raises(ConfigError, match=f"grid_size.*got {bad}"):
            RunConfig(grid_size=bad)
    with pytest.raises(ConfigError, match="samples_per_rect.*got 0"):
        RunConfig(samples_per_rect=0)
    with pytest.raises(ConfigError):
        RunConfig.from_text("grid_size=100\n")


def test_config_rejects_bad_tolerances():
    # built directly: a zero bisection tolerance would hang a command
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ConfigError, match=f"tol_bisection.*got {bad}"):
            RunConfig(tol_bisection=bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=f"tol_kernel.*got {bad}"):
            RunConfig(tol_kernel=bad)
    RunConfig(tol_kernel=0.0)  # zero is allowed: exact comparison


@pytest.mark.parametrize(
    "key, command",
    [("tol_bisection", "orlicz"), ("tol_kernel", "kernel-verify")],
)
def test_nan_tolerance_is_usage_error(tmp_path, capsys, key, command):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key}=nan\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out), "--grid-size", "16"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "nan" in err
    assert os.listdir(out) == []


def test_quasi_random_points_avoid_tubes():
    pts = quasi_random_points(500)
    assert len(pts) == 500
    import math

    for x, y in pts:
        for u in (x, y, x + y, x - y):
            assert abs(math.remainder(u, 2 * math.pi)) >= 0.02


# ---------------------------------------------------------------- exit codes

def test_missing_output_dir_is_io_error(tmp_path):
    missing = tmp_path / "does-not-exist"
    assert main(["lemma", "--out", str(missing)]) == EXIT_IO


def test_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope=1\n")
    assert main(["lemma", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["lemma", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_unknown_command_is_usage_error(tmp_path):
    assert main(["frobnicate", "--out", str(tmp_path)]) == EXIT_USAGE


def test_bad_run_values_are_usage_errors(tmp_path, capsys):
    assert main(["converge", "--grid-size", "100", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "100" in err and "800" not in err
    assert main(["kernel-verify", "--samples", "0", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "concatenate" not in err
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


def test_zero_tolerance_fails_kernel_verify(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("tol_kernel=0.0\n")
    code = main([
        "kernel-verify", "--config", str(cfg), "--out", str(tmp_path), "--samples", "3",
    ])
    assert code == EXIT_TOLERANCE


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


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RunConfig(n_list=(4,), samples_per_rect=5).to_text())
    assert main([
        "lemma", "--config", str(cfg), "--out", str(tmp_path), "--n", "3",
    ]) == EXIT_OK
    rows = [
        l.split(",") for l in read(tmp_path / "lemma.csv").splitlines()
        if l and not l.startswith("#")
    ][1:]
    assert {r[0] for r in rows} == {"3"}


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
