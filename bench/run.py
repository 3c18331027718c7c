"""
The logmeans benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a fresh worker process (``worker.py``) that calls
``logmeans.cli.main`` one command at a time with BLAS pinned to one thread.
With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json
(``wall_s``, ``peak_rss_mb``, ``setup_s``) and ``failed_frac``; with
``--trace 1`` it prints the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results record with the
environment, the seed and every sample goes to ``bench/.work/results/``.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from worker import BLAS_THREAD_VARS, HERE, ROOT, SRC, WORK_DIR
from workloads import WORKLOADS

RESULTS_DIR = os.path.join(WORK_DIR, "results")

#: Worker starts timed for ``setup_s`` besides the measuring worker's own.
SETUP_PROBES = 9
#: Seconds a workload may take, set-up probes included, before its worker is killed.
WORKER_TIMEOUT = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env.pop("LOGMEANS_THREADS", None)  # unset means one thread
    return env


def start_worker(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from start to ``ready``, its result)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.splitlines()
    if ready.strip() != "ready" or code != 0 or (lines == [] and "--setup-only" not in args):
        raise WorkerError(f"worker {' '.join(args)} exited {code}")
    return setup_s, json.loads(lines[-1]) if lines else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def src_lines() -> int:
    total = 0
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def l3_cache_bytes() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in fresh workers and summarise it."""
    deadline = time.perf_counter() + WORKER_TIMEOUT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup = [start_worker(common + ["--setup-only"], deadline - time.perf_counter())[0]
             for _ in range(SETUP_PROBES)]
    setup_s, result = start_worker(common + ["--trace", str(int(trace))],
                                   deadline - time.perf_counter())
    setup.append(setup_s)

    rounds = [result["warmup"], *result["rounds"], *result.get("traced_rounds", [])]
    attempted = sum(len(r["commands"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    wall = [r["seconds"] for r in result["rounds"]]
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "env": {**result["env"], "nproc": os.cpu_count(), "l3_cache_bytes": l3_cache_bytes(),
                "src_lines": src_lines()},
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "wall_s_samples": wall, "setup_s_samples": setup,
        "command_median_s": {name: statistics.median(r["commands"][name] for r in result["rounds"])
                             for name in result["rounds"][0]["commands"]},
        "values": {"wall_s": statistics.median(wall),
                   "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": statistics.median(setup)},
        "correct": not failures,
    }
    if trace:
        summary.update(trace_summary(workload, result["traced_rounds"], wall))
    return summary


def trace_summary(workload: str, traced: list[dict], untraced_wall: list[float]) -> dict:
    """
    Per-layer values.  Times are medians over the timing rounds, ``peak_mb``
    medians over the memory rounds; exact counts must repeat in every round.
    """
    from reference import load_counts
    from tracer import EXACT_STATS, flatten

    timing = [r for r in traced if not r["memory"]]
    memory = [r for r in traced if r["memory"]]
    values = {}
    for rounds, keep in ((timing, lambda stat: stat not in EXACT_STATS and stat != "peak_mb"),
                         (memory, lambda stat: stat == "peak_mb")):
        flat = [flatten(r["layers"]) for r in rounds]
        values.update({name: statistics.median(f[name] for f in flat)
                       for name in flat[0] if keep(name.rsplit(".", 1)[1])})
    exact = [flatten(r["layers"], EXACT_STATS) for r in traced]
    values.update(exact[0])
    values["unattributed_s"] = statistics.median(r["unattributed_s"] for r in timing)
    values["trace_overhead_frac"] = (statistics.median(r["seconds"] for r in timing)
                                     / statistics.median(untraced_wall) - 1.0)
    seed_counts = load_counts()[workload]
    return {"trace_values": values,
            "counts_repeat": all(counts == exact[0] for counts in exact[1:]),
            "counts_changed_since_seed": sorted(
                name for name in seed_counts if seed_counts[name] != exact[0].get(name))}


def report(summary: dict, spec: dict) -> dict:
    """Print one workload's metrics; returns its metric dict for the JSON line."""
    w = summary["workload"]
    print(f"workload {w}  seed {summary['seed']}  trace {summary['trace']}  "
          f"src_lines {summary['env']['src_lines']}")
    failed_frac = summary["failed"] / summary["attempted"]
    wall = summary["wall_s_samples"]
    q1, q2, q3 = quartiles(wall)
    print(f"  wall_s       {q2:.4f} s   median of {len(wall)} rounds, q1 {q1:.4f}, q3 {q3:.4f}")
    print(f"  peak_rss_mb  {summary['values']['peak_rss_mb']:.1f} MB")
    setup = summary["setup_s_samples"]
    print(f"  setup_s      {statistics.median(setup):.4f} s   median of {len(setup)} starts")
    print(f"  failed_frac  {failed_frac:.4f}   ({summary['failed']} of {summary['attempted']})")
    for failure in summary["failures"][:5]:
        print(f"    FAIL {failure['command']}: {'; '.join(failure['problems'])}")
    print("  per command  " + ", ".join(f"{k} {v:.3f} s"
                                        for k, v in summary["command_median_s"].items()))
    if not summary["trace"]:
        return {m["name"]: {"value": summary["values"][m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    values = summary["trace_values"]
    print(f"  counts repeat across traced rounds: {summary['counts_repeat']}; "
          f"changed since seed: {summary['counts_changed_since_seed'] or 'none'}")
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<46} {values[m['name']]:.6g} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the logmeans benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so start_worker's cleanup stops the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "logmeans", "cli.py")):
        print(f"error: no logmeans sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            summary = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(RESULTS_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        found = report(summary, spec)
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct &= summary["correct"] and summary.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
