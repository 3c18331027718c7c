"""
Reference check for the reports the benchmark's commands write.

The references in ``bench/reference/`` were written by the seed commit.  A
report passes when it matches its reference column by column, by rules meant
to survive the planned refactors (exact bump mean, chunked kernels, FFT grid
layer) while catching a wrong formula:

* integers and labels match exactly, and NaN matches NaN;
* floats agree to ``REL_TOL`` relative, with a per-column absolute floor for
  values that can be exactly zero;
* ``orlicz.norm`` agrees within the CLI's bisection tolerance
  (``tol_bisection`` = 1e-9 relative), and ``modular_at_norm`` is checked by
  the CLI's own predicate |mod - 1| <= 1e-6, not against the reference;
* ``kernel_verify.max_abs_diff`` and ``worst_margin`` are rounding noise:
  only ``pass == 1`` and ``worst_margin <= 0`` are required;
* ``lemma.argmin_x/argmin_y`` only need to be finite: a tie flip moves the
  argmin without changing ``min_ratio``, which is checked.

Every reference comment line must still be present; new comment lines (such
as certificate lines) are allowed.

Run ``python3 bench/reference.py`` from the repository root to rewrite the
references and the seed's exact trace counts from the current ``src/``.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
COUNTS_FILE = os.path.join(REFERENCE_DIR, "trace_counts.json")

#: Relative tolerance for floats compared with the reference.  The planned
#: reorderings move values by <= 1e-12 relative; a wrong formula moves them
#: by far more than 1e-9.
REL_TOL = 1e-9
#: The CLI's Luxemburg-norm bisection tolerance (RunConfig.tol_bisection).
BISECTION_TOL = 1e-9
#: The CLI's own acceptance predicate for the modular at the norm.
MODULAR_TOL = 1e-6


def _exact(value: str, ref: str) -> bool:
    return value == ref


def _close(abs_floor: float = 0.0, rel: float = REL_TOL):
    def check(value: str, ref: str) -> bool:
        a, b = float(value), float(ref)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_floor)
    return check


def _finite(value: str, ref: str) -> bool:
    return math.isfinite(float(value))


def _nonpositive(value: str, ref: str) -> bool:
    return float(value) <= 0.0


def _modular(value: str, ref: str) -> bool:
    return abs(float(value) - 1.0) <= MODULAR_TOL


#: Per report, the rule for each column (in header order).
RULES = {
    "lemma": {"n": _exact, "kind": _exact, "min_ratio": _close(),
              "argmin_x": _finite, "argmin_y": _finite, "samples": _exact},
    "growth": {"n": _exact, "geometric_sum": _close(), "gs_over_n2": _close(),
               "l1_lower": _close()},
    # measure is exactly 0 for n <= 5; the floors sit far below REL_TOL times
    # the smallest nonzero values (measure ~1e-12, bound ~4e-5).
    "measure": {"n": _exact, "c1": _close(), "measure": _close(abs_floor=1e-30),
                "bound": _close(abs_floor=1e-20)},
    "converge": {"kind": _exact, "n": _exact, "l1_error": _close()},
    "orlicz": {"function": _exact, "young": _exact,
               "norm": _close(rel=BISECTION_TOL + 1e-15), "modular_at_norm": _modular},
    "orlicz_deficit": {"young": _exact, "weight": _exact, "probe_max": _close(),
                       "probe_at_top": _close()},
    "kernel_verify": {"N": _exact, "points": _exact, "max_abs_diff": _finite,
                      "worst_margin": _nonpositive, "pass": lambda v, r: v == "1"},
}

#: The reports each CLI command writes.
REPORTS = {
    "kernel-verify": ("kernel_verify",),
    "lemma": ("lemma",),
    "growth": ("growth",),
    "measure": ("measure",),
    "converge": ("converge",),
    "orlicz": ("orlicz", "orlicz_deficit"),
}


def parse_report(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Split a CSV report into (comment lines, header, rows)."""
    comments, body = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else body).append(line)
    if not body:
        raise ValueError("report has no header row")
    return comments, body[0].split(","), [line.split(",") for line in body[1:]]


def load_references(command_names) -> dict[str, tuple]:
    """Parsed references for every report the given commands write."""
    refs = {}
    for command in command_names:
        for report in REPORTS[command]:
            with open(os.path.join(REFERENCE_DIR, report + ".csv"), encoding="utf-8") as fh:
                refs[report] = parse_report(fh.read())
    return refs


def check_report(report: str, text: str, reference: tuple) -> list[str]:
    """Problems found comparing a report's text with its parsed reference."""
    comments, header, rows = parse_report(text)
    ref_comments, ref_header, ref_rows = reference
    problems = [f"{report}: missing comment {c!r}" for c in ref_comments if c not in comments]
    if header != ref_header:
        return problems + [f"{report}: header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return problems + [f"{report}: {len(rows)} rows, reference has {len(ref_rows)}"]
    rules = RULES[report]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(header):
            problems.append(f"{report} row {i}: {len(row)} fields")
            continue
        for column, value, ref in zip(header, row, ref_row):
            try:
                ok = rules[column](value, ref)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{report} row {i} {column}: {value} vs reference {ref}")
    return problems


def check_command(command: str, out_dir: str, refs: dict) -> list[str]:
    """Problems in the reports one command wrote to ``out_dir``."""
    problems = []
    for report in REPORTS[command]:
        try:
            with open(os.path.join(out_dir, report + ".csv"), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            problems.append(f"{report}: cannot read report ({exc})")
            continue
        try:
            problems.extend(check_report(report, text, refs[report]))
        except ValueError as exc:
            problems.append(f"{report}: {exc}")
    return problems


def load_counts() -> dict[str, dict[str, float]]:
    with open(COUNTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _capture() -> None:
    """Rewrite the references and trace counts from the current ``src/``."""
    import shutil

    import worker
    from run import worker_env
    from workloads import WORKLOADS

    env = worker_env()  # set before numpy loads: the BLAS thread count changes digits
    os.environ.clear()
    os.environ.update(env)
    worker.import_logmeans()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    counts = {}
    for name, commands in WORKLOADS.items():
        out_dir = worker.scratch_dir(f"capture-{name}")
        for argv in commands:
            rc = worker.run_command(argv, out_dir)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}; references not written")
            for report in REPORTS[argv[0]]:
                shutil.copyfile(os.path.join(out_dir, report + ".csv"),
                                os.path.join(REFERENCE_DIR, report + ".csv"))
        counts[name] = worker.traced_counts(commands, out_dir)
        shutil.rmtree(out_dir)
    with open(COUNTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _capture()
