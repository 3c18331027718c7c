"""The benchmark's own reference check passes on the reports of every workload's commands."""

import importlib.util
import pathlib

import pytest

from logmeans import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_pass_the_reference_check(workload, tmp_path):
    # the same check a benchmark round applies, so report drift shows here before a bench run
    reference = _load("reference")
    commands = WORKLOADS[workload]
    refs = reference.load_references(argv[0] for argv in commands)
    for argv in commands:
        out = tmp_path / argv[0]
        out.mkdir()
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
        assert reference.check_command(argv[0], str(out), refs) == [], argv
