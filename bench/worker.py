"""
Benchmark worker: runs the rounds of one workload through ``logmeans.cli.main``
inside this process, closed loop, one command at a time.

``run.py`` starts it with BLAS pinned to one thread.  The worker prints
``ready`` once set-up is done (interpreter start, ``import logmeans``, loading
the reference reports), then one JSON line with its measurements.  With
``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
#: Set to 1 in the worker's environment, so BLAS uses one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_logmeans():
    """Import the CLI from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    from logmeans import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"logmeans imported from {cli.__file__}, not from {SRC}")
    return cli


def scratch_dir(name: str) -> str:
    path = os.path.join(WORK_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_command(argv, out_dir: str) -> int | None:
    """One CLI invocation into an emptied ``out_dir``; None if it raised."""
    from logmeans import cli

    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    try:
        return cli.main([*argv, "--out", out_dir])
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        return None


def run_round(commands, out_dir: str, refs: dict | None) -> dict:
    """
    Run each command once; a command fails if it raises, exits nonzero, or
    its reports fail the reference check (skipped when ``refs`` is None).
    Only the CLI calls are timed.
    """
    from reference import check_command

    times, failures = {}, []
    for argv in commands:
        start = time.perf_counter()
        code = run_command(argv, out_dir)
        times[argv[0]] = time.perf_counter() - start
        if code != 0:
            problems = [f"exit code {code}"]
        elif refs is not None:
            problems = check_command(argv[0], out_dir, refs)
        else:
            problems = []
        if problems:
            failures.append({"command": argv[0], "problems": problems[:5]})
    return {"seconds": sum(times.values()), "commands": times, "failures": failures}


@contextlib.contextmanager
def tracing():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def run_traced_round(tracer, commands, out_dir: str, refs: dict | None,
                     memory: bool = False) -> dict:
    """
    A round with spans recorded; adds the layer stats and ``unattributed_s``.
    A ``memory`` round also records tracemalloc peaks, which slows it.
    """
    tracer.reset()
    tracer.measure_memory = memory
    paused = tracer.paused
    result = run_round(commands, out_dir, refs)
    traced_time = result["seconds"] - (tracer.paused - paused)
    result["unattributed_s"] = traced_time - tracer.top_level_time()
    result["layers"] = tracer.layer_stats()
    result["memory"] = memory
    return result


def traced_counts(commands, out_dir: str) -> dict:
    """The exact counts of one traced round (used to record the seed's counts)."""
    from tracer import EXACT_STATS, flatten

    with tracing() as tracer:
        result = run_traced_round(tracer, commands, out_dir, None)
    return flatten(result["layers"], EXACT_STATS)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
            "LOGMEANS_THREADS": os.environ.get("LOGMEANS_THREADS")}


def main(argv: list[str] | None = None) -> int:
    from reference import load_references
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    commands = WORKLOADS[args.workload]
    import_logmeans()
    refs = load_references(command[0] for command in commands)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    out_dir = scratch_dir(f"out-{args.workload}-{os.getpid()}")
    # An untimed warm-up round in the listed order lets the heap grow and lazy
    # imports finish; without it the first round's time and the peak RSS
    # depend on which command the seed puts first.
    warmup = run_round(commands, out_dir, refs)
    start = time.perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    rounds = []
    while len(rounds) < (1 if args.trace else 3) or time.perf_counter() - start < untraced_budget:
        rounds.append(run_round(rng.sample(commands, len(commands)), out_dir, refs))
    result = {"warmup": warmup, "rounds": rounds, "env": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}

    if args.trace:
        traced = []
        with tracing() as tracer:
            while len(traced) < 2 or time.perf_counter() - start < args.seconds:
                traced.append(run_traced_round(tracer, rng.sample(commands, len(commands)),
                                               out_dir, refs, memory=len(traced) % 2 == 1))
            spans = tracer.span_records()
        result["traced_rounds"] = traced
        with open(os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
