"""
Command-line surface: every experiment as a subcommand emitting deterministic,
plot-ready CSV (optionally mirrored as JSON).

Exit codes: 0 all checks passed, 1 tolerance violation, 2 usage error (a bad
command, flag or run value), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import counterexamples as cx
from . import kernels, orlicz
from .fourier import BandwidthError, GridOp, fourier_coeffs, evaluate_grid
from .grid import GridFunction2D, validate_grid_size
from .means import harmonic_number, l1_distance

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3

KERNEL_VERIFY_N = (3, 4, 8, 16, 64, 256, 1024)
CONVERGE_DEFAULT_N = (4, 16, 64, 256)
REGION_DEFAULT_N = (3, 4, 5)
#: largest scale whose kernel order 2^{2n} stays desk-sized
MAX_KERNEL_SCALE = 5
#: Fewest samples per window and axis a command accepts (1 for the others):
#: lemma and measure sample every window's corners.
MIN_SAMPLES = {"lemma": 2, "measure": 2}
#: Slack, relative to 1 + |direct|, that kernel-verify allows past the closed form's truncation bound.
KERNEL_TOL = 1e-8


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------

def _fmt(value) -> str:
    v = _json_value(value)
    return str(int(v)) if isinstance(v, bool) else str(v)


def write_report(args: argparse.Namespace, name: str, comments: list[str], header: list[str],
                 rows: list[list]) -> str:
    """Write ``name``.csv into ``--out``, and with ``--json`` its JSON mirror; returns the CSV path."""
    path = os.path.join(args.out, name + ".csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if args.json:
        payload = {
            "comments": comments,
            "header": header,
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        with open(os.path.join(args.out, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return path


def _json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def _json_cell(v):
    """A cell of the JSON mirror: JSON (RFC 8259) has no NaN or infinity, so a non-finite float is null."""
    v = _json_value(v)
    return None if isinstance(v, float) and not math.isfinite(v) else v


# ----------------------------------------------------------------------------
# quasi-random points
# ----------------------------------------------------------------------------

_PLASTIC = 1.3247179572447460259609088544780973
_R2_A1 = 1.0 / _PLASTIC
_R2_A2 = 1.0 / _PLASTIC ** 2
#: Distance every quasi-random point keeps from the singular tubes.
_TUBE_MARGIN = 0.02


def quasi_random_points(count: int) -> np.ndarray:
    """
    First ``count`` points of the 2D low-discrepancy rotation sequence mapped
    to (-pi, pi)^2 and filtered to stay _TUBE_MARGIN away from the singular
    tubes x, y, x+y, x-y = 0 (mod 2*pi), shape (count, 2).  Deterministic.
    """
    if count < 0:
        raise ValueError(f"point count must be >= 0, got {count}")
    # about 2.5% of the sequence lies within the margin of a tube; the rare
    # shortfall doubles the candidates, which keeps the accepted prefix unchanged
    candidates = count + count // 8 + 8
    while True:
        i = np.arange(1.0, candidates + 1.0)
        x = (2.0 * ((0.5 + _R2_A1 * i) % 1.0) - 1.0) * math.pi
        y = (2.0 * ((0.5 + _R2_A2 * i) % 1.0) - 1.0) * math.pi
        keep = np.min(kernels.tube_distances(x, y)[1], axis=0) >= _TUBE_MARGIN
        if np.count_nonzero(keep) >= count:
            return np.column_stack([x[keep], y[keep]])[:count]
        candidates *= 2


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def _skip_empty_regions(n_list, per_scale) -> tuple[list, list[str]]:
    """
    ``per_scale(n)`` for every scale in order, skipping the scales whose
    region is empty; returns the results and the report comments naming the
    skipped scales (none when nothing was skipped).
    """
    results, skipped = [], []
    for n in n_list:
        try:
            results.append(per_scale(n))
        except kernels.EmptyRegionError:
            skipped.append(n)
    comments = ["skipped_empty_region_n=" + ",".join(str(n) for n in skipped)] if skipped else []
    return results, comments


def cmd_kernel_verify(args: argparse.Namespace) -> int:
    points = args.samples ** 2
    # at most 530 bytes a point: the tracemalloc peak of kernel-verify at S = 64..256
    kernels.refuse_beyond_memory_limit(
        f"kernel-verify's {points} points at {args.samples} samples", 530 * points
    )
    xs, ys = quasi_random_points(points).T
    rows = []
    all_ok = True
    for N in KERNEL_VERIFY_N:
        terms, bound = kernels.closed_form_terms(N, xs, ys)
        closed = np.sum(terms, axis=1) / harmonic_number(N)
        direct = kernels.log_kernel_direct_many(N, xs, ys)
        err = np.abs(closed - direct)
        worst_margin = float(np.max(err - (bound + KERNEL_TOL * (1.0 + np.abs(direct)))))
        ok = worst_margin <= 0.0
        all_ok &= ok
        rows.append([N, len(xs), float(np.max(err)), worst_margin, ok])

    write_report(
        args, "kernel_verify",
        ["report=closed-vs-direct kernel equivalence"],
        ["N", "points", "max_abs_diff", "worst_margin", "pass"],
        rows,
    )
    return EXIT_OK if all_ok else EXIT_TOLERANCE


def cmd_lemma(args: argparse.Namespace) -> int:
    reports, skipped = _skip_empty_regions(
        args.n or REGION_DEFAULT_N, lambda n: kernels.lemma_survey(n, args.samples)
    )
    rows = [row for rep in reports for row in rep.csv_rows()]
    comments = ["paper_display=lemma-main", *skipped]
    positive = [r.n for r in reports if r.i_min_ratio > 0.0]
    if positive:
        comments.append(f"n0_estimate={min(positive)}")
    write_report(
        args, "lemma", comments,
        ["n", "kind", "min_ratio", "argmin_x", "argmin_y", "samples"],
        rows,
    )
    ok = all(r.i_min_ratio > 0.0 and r.j_min_ratio > 0.0 for r in reports)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_growth(args: argparse.Namespace) -> int:
    def row(n):
        gs = cx.geometric_sum(n)
        l1 = cx.l1_growth(n).l1_lower if n <= MAX_KERNEL_SCALE else float("nan")
        return [n, gs, gs / n ** 2, l1]

    rows, skipped = _skip_empty_regions(args.n or REGION_DEFAULT_N, row)
    write_report(
        args, "growth", ["paper_display=(b)", *skipped],
        ["n", "geometric_sum", "gs_over_n2", "l1_lower"],
        rows,
    )
    gs_by_n = {n: gs for n, gs, _, _ in rows}
    l1_by_n = {n: l1 for n, _, _, l1 in rows if n <= MAX_KERNEL_SCALE}
    ok = True
    ns = sorted(gs_by_n)
    for i, n in enumerate(ns):
        for smaller in ns[:i]:
            if gs_by_n[n] < 0.5 * (n / smaller) ** 2 * gs_by_n[smaller]:
                ok = False
    l1_ns = sorted(l1_by_n)
    ok &= all(l1_by_n[a] < l1_by_n[b] for a, b in zip(l1_ns, l1_ns[1:]))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_measure(args: argparse.Namespace) -> int:
    n_list = args.n or REGION_DEFAULT_N
    # window_count refuses an empty region without building its windows
    kept, comments = _skip_empty_regions(n_list, lambda n: kernels.window_count(n) and n)
    rows = []
    if kept:
        # Lower-bound constant of the unscaled bump mean, fitted at the smallest
        # kernel-feasible scale; c1 plays both roles of the threshold, so the
        # certified set is pure region geometry and the fit only documents it.
        fit_n = min([n for n in kept if 3 <= n <= MAX_KERNEL_SCALE], default=3)
        c1 = cx.bump_mean_lower_bound(fit_n, args.samples).min_ratio / cx.BUMP_PREFACTOR
        reports = [cx.exceedance_measure(n, c1) for n in kept]
        rows = [[rep.n, c1, rep.measure, rep.bound] for rep in reports]
        comments.append(f"c1_fit_scale={fit_n}")
    write_report(
        args, "measure", ["paper_display=est1", *comments], ["n", "c1", "measure", "bound"],
        rows,
    )
    return EXIT_OK


def _fit_order(kind: str, n: int, bandwidth: int) -> int:
    """Largest order <= n whose reach fits the bandwidth, never below the least order GridOp accepts."""
    for order in range(n, 0, -1):
        try:
            op = GridOp(kind, order)
        except ValueError:  # below the smallest order GridOp accepts for the kind
            return order + 1
        if op.reach() <= bandwidth:
            return order
    raise BandwidthError(f"no {kind} order <= {n} fits bandwidth {bandwidth}")


def cmd_converge(args: argparse.Namespace) -> int:
    orders = args.n or CONVERGE_DEFAULT_N
    if min(orders) < 1:
        raise ValueError(f"orders must be >= 1, got {min(orders)}")
    max_order = max(orders)
    grid = args.grid_size
    while grid < 2 * max_order:
        grid *= 2
    bandwidth = grid // 2 - 1
    # 25 bytes a grid sample and 41 a coefficient |m|, |n| <= reach: the tracemalloc peak of
    # converge at G = 512..4096 for reaches 16..G/2 - 1; no op reaches past min(max_order, bandwidth)
    coeff_side = 2 * min(max_order, bandwidth) + 1
    kernels.refuse_beyond_memory_limit(
        f"converge's grids at grid size {grid}", 25 * grid ** 2 + 41 * coeff_side ** 2
    )

    ops, clamped = [], []
    for kind in ("norlund-log", "marcinkiewicz", "riesz-log"):
        for n in orders:
            order = _fit_order(kind, n, bandwidth)
            if order != n:
                clamped.append(f"{kind}:{n}->{order}")
            ops.append(GridOp(kind, order))
    f = GridFunction2D.from_function(lambda x, y: np.abs(x), grid)
    reach = max(op.reach() for op in ops)  # no coefficient past the ops' reach is used
    coeffs = fourier_coeffs(f, reach)
    rows = [[op.kind, op.order, l1_distance(evaluate_grid(coeffs, op), f)] for op in ops]
    comments = ["function=|x|", f"grid_size={grid}"]
    if clamped:
        comments.append("order_clamped=" + ",".join(clamped))
    write_report(
        args, "converge", comments,
        ["kind", "n", "l1_error"],
        rows,
    )
    tail = [err for kind, _, err in rows if kind == "norlund-log"][-3:]
    ok = all(b <= a for a, b in zip(tail, tail[1:]))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_orlicz(args: argparse.Namespace) -> int:
    grid = args.grid_size
    # 43 bytes a grid sample: the tracemalloc peak of orlicz at G = 256..2048
    kernels.refuse_beyond_memory_limit(f"orlicz's grids at grid size {grid}", 43 * grid ** 2)
    h = 2.0 * math.pi / grid
    side = int(round(1.0 / h))  # ~unit-measure square, snapped to cells

    functions: list[tuple[str, GridFunction2D]] = []
    functions.append(("const_1", GridFunction2D.constant(1.0, grid)))
    vals = np.zeros((grid, grid))
    vals[:side, :side] = 1.0
    functions.append((f"indicator_{side}x{side}cells", GridFunction2D(values=vals)))
    functions.append(("bump_n1_unscaled", cx.make_bump(1, grid_size=grid)))

    youngs = (orlicz.LOG, orlicz.LOG2, orlicz.young_power(2.0))
    rows = []
    ok = True
    for fname, fgrid in functions:
        for Q in youngs:
            norm = orlicz.luxemburg_norm(fgrid, Q)
            mod = orlicz.modular(fgrid, Q, norm) if norm > 0.0 else 0.0
            rows.append([fname, Q.name, norm, mod])
            if norm > 0.0 and abs(mod - 1.0) > 1e-6:
                ok = False
    write_report(
        args, "orlicz", ["report=luxemburg norms"],
        ["function", "young", "norm", "modular_at_norm"],
        rows,
    )

    u_grid = 2.0 ** np.arange(1, 41)
    deficit_rows = []
    for Q in (orlicz.LOG, orlicz.LOG2, orlicz.young_power(1.5)):
        for weight in ("log", "log2"):
            top = orlicz.inclusion_deficit(Q, weight, u_grid[-1:])  # the ratio at the grid's top alone
            deficit_rows.append([Q.name, weight, orlicz.inclusion_deficit(Q, weight, u_grid), top])
    write_report(
        args, "orlicz_deficit", ["report=inclusion probe u*log^p(u)/Q(u)"],
        ["young", "weight", "probe_max", "probe_at_top"],
        deficit_rows,
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


COMMANDS = {
    "kernel-verify": cmd_kernel_verify,
    "lemma": cmd_lemma,
    "growth": cmd_growth,
    "measure": cmd_measure,
    "converge": cmd_converge,
    "orlicz": cmd_orlicz,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmeans",
        description="Desk-scale experiments on logarithmic means of double Fourier series.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--grid-size", type=int, default=256, dest="grid_size",
                        help="grid points per axis, a power of two >= 4 (converge) or >= 32 (orlicz)")
    parser.add_argument("--n", type=lambda s: [int(p) for p in s.split(",")],
                        help="comma-separated scale/order list")
    parser.add_argument("--samples", type=int, default=9,
                        help="lattice samples per window on each axis (lemma, measure: >= 2; "
                             "kernel-verify: >= 1, it checks S^2 points)")
    parser.add_argument("--out", default=".", help="output directory (must exist)")
    parser.add_argument("--json", action="store_true", help="mirror each CSV as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    least = MIN_SAMPLES.get(args.command, 1)
    try:
        validate_grid_size(args.grid_size)
        if args.samples < least:
            raise ValueError(f"{args.command} needs at least {least} samples per axis, got {args.samples}")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
