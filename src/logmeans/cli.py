"""
Command-line surface: every experiment as a subcommand emitting deterministic,
plot-ready CSV (optionally mirrored as JSON).

Exit codes: 0 all checks passed, 1 tolerance violation, 2 usage error (a bad
command, flag or run value), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import counterexamples as cx
from . import kernels, orlicz
from .fourier import BandwidthError, GridOp, axis_l1_distance
from .grid import axis_points, validate_grid_size
from .means import harmonic_number

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
#: Slack, relative to 1 + |direct|, that kernel-verify allows between the closed and the direct form.
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
#: Floats a screened candidate holds at most (its four tube arguments, their reductions and distances).
SCREEN_FLOATS = 32


def quasi_random_points(count: int) -> np.ndarray:
    """
    First ``count`` points of the 2D low-discrepancy rotation sequence mapped
    to (-pi, pi)^2 and filtered to stay _TUBE_MARGIN away from the singular
    tubes x, y, x+y, x-y = 0 (mod 2*pi), shape (count, 2).  Deterministic.
    The candidates are screened in blocks of at most kernels.BLOCK_ELEMS //
    SCREEN_FLOATS, in sequence order, so the accepted prefix does not depend
    on the block size.
    """
    if count < 0:
        raise ValueError(f"point count must be >= 0, got {count}")
    points, kept, start = np.empty((count, 2)), 0, 1
    block = max(1, kernels.BLOCK_ELEMS // SCREEN_FLOATS)
    while kept < count:
        # about 2.5% of the sequence lies within the margin of a tube, so a block of the points
        # still missing and 1/8 more rarely falls short; a shortfall screens the next block
        need = count - kept
        i = np.arange(start, start + min(need + need // 8 + 8, block), dtype=float)
        start += len(i)
        x = (2.0 * ((0.5 + _R2_A1 * i) % 1.0) - 1.0) * math.pi
        y = (2.0 * ((0.5 + _R2_A2 * i) % 1.0) - 1.0) * math.pi
        keep = np.min(kernels.tube_distances(x, y)[1], axis=0) >= _TUBE_MARGIN
        accepted = np.column_stack([x[keep], y[keep]])[:need]
        points[kept : kept + len(accepted)] = accepted
        kept += len(accepted)
    return points


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
    orders = args.n or KERNEL_VERIFY_N
    points = args.samples ** 2
    # the direct form's Norlund weights of every order in one (rows, B) matrix, with the temporary of
    # the largest order's: under 4 floats an order (tracemalloc reads 2.0 at 4096, 65536, 16777216; the
    # closed form holds no weights); and the points, 2 floats each, screened and evaluated in blocks
    what = f"kernel-verify's {points} points at {args.samples} samples and {len(orders)} orders"
    kernels.refuse_beyond_memory_limit(what, 8 * (4 * sum(orders) + 2 * points))
    xs, ys = quasi_random_points(points).T
    max_err = np.full(len(orders), -math.inf)
    worst_margin = np.full(len(orders), -math.inf)
    min_distance = math.inf
    step = max(1, kernels.BLOCK_ELEMS // (kernels.CLOSED_FORM_FLOATS * len(orders)))
    for start in range(0, points, step):
        x, y = xs[start : start + step], ys[start : start + step]
        terms = kernels.closed_form_terms(orders, x, y)  # orders below 3 are refused here, before any H_N
        closed = np.sum(terms, axis=2) / np.array([harmonic_number(N) for N in orders])[:, None]
        del terms  # every order's 15 terms need not outlive their sums into the direct form's tables
        direct = kernels.log_kernel_direct_many(orders, x, y)
        err = np.abs(closed - direct)
        max_err = np.maximum(max_err, np.max(err, axis=1))
        margin = err - KERNEL_TOL * (1.0 + np.abs(direct))
        worst_margin = np.maximum(worst_margin, np.max(margin, axis=1))
        min_distance = min(min_distance, np.min(kernels.tube_distances(x, y)[1]))
    rows = [
        [N, points, float(err), float(margin), bool(margin <= 0.0)]
        for N, err, margin in zip(orders, max_err, worst_margin)
    ]
    # the nearest any point comes to a singular tube
    write_report(
        args, "kernel_verify",
        ["report=closed-vs-direct kernel equivalence", f"min_tube_distance={_fmt(min_distance)}"],
        ["N", "points", "max_abs_diff", "worst_margin", "pass"],
        rows,
    )
    return EXIT_OK if np.all(worst_margin <= 0.0) else EXIT_TOLERANCE


def cmd_lemma(args: argparse.Namespace) -> int:
    reports, skipped = _skip_empty_regions(
        args.n or REGION_DEFAULT_N, lambda n: kernels.lemma_survey(n, args.samples)
    )
    rows = [row for rep in reports for row in rep.csv_rows()]
    comments = ["paper_display=lemma-main", *skipped]
    positive = [r.n for r in reports if r.i_min_ratio > 0.0]
    if positive:
        comments.append(f"n0_estimate={min(positive)}")
    # the largest summation-by-parts remainder of any C_N entry (0 when every entry is near)
    comments.append(f"max_tail_bound={_fmt(max((r.tail_bound for r in reports), default=0.0))}")
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
    # what l1_lower is: the cells' |integrals| summed over the J region, at most the L1 norm there
    note = f"l1_lower=region-restricted lower bound of the L1 norm; nan past n={MAX_KERNEL_SCALE}"
    write_report(
        args, "growth", ["paper_display=(b)", *skipped, note],
        ["n", "geometric_sum", "gs_over_n2", "l1_lower"],
        rows,
    )
    gs_by_n = {n: gs for n, gs, _, _ in rows}
    l1_by_n = {n: l1 for n, _, _, l1 in rows if n <= MAX_KERNEL_SCALE}
    ns = sorted(gs_by_n)
    ok = not any(gs_by_n[n] < 0.5 * (n / small) ** 2 * gs_by_n[small] for i, n in enumerate(ns) for small in ns[:i])
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
        # what c1 is: a lattice minimum, evidence for the lower bound rather than a certificate of it
        sampled = f"{args.samples} samples per window and axis at n={fit_n}"
        comments.append(f"c1=sampled minimum ({sampled}); not a certificate")
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
    orders = args.n or CONVERGE_DEFAULT_N  # ascending: the tolerance check reads the largest orders last
    if min(orders) < 1:
        raise ValueError(f"orders must be >= 1, got {min(orders)}")
    max_order = max(orders)
    grid = args.grid_size
    while grid < 2 * max_order:
        grid *= 2
    bandwidth = grid // 2 - 1
    # 24 bytes a sample for the three G-point arrays held at once (the samples of |x|, their half
    # spectrum, one synthesis), 32 an order for the weights, profile and weighted bins of the
    # largest order beside them, 64 KiB for the parser and the report: above the tracemalloc peak
    # of converge at G = 2^10..2^22 for orders 16..G/2 - 1 (the first call in a process also
    # imports numpy.fft)
    top = min(max_order, bandwidth)  # no op reaches past it
    kernels.refuse_beyond_memory_limit(
        f"converge's grids at grid size {grid}", 24 * grid + 32 * (top + 1) + 2 ** 16
    )

    ops, clamped = [], []
    for kind in ("norlund-log", "marcinkiewicz", "riesz-log"):
        for n in orders:
            order = _fit_order(kind, n, bandwidth)
            if order != n:
                clamped.append(f"{kind}:{n}->{order}")
            ops.append(GridOp(kind, order))
    ops = list(dict.fromkeys(ops))  # one row per op: two orders may clamp to one
    f = np.abs(axis_points(grid))  # |x| depends on x alone, so its grid is one axis
    rows = [[op.kind, op.order, err] for op, err in zip(ops, axis_l1_distance(f, ops))]
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
    h = 2.0 * math.pi / grid
    side = int(round(1.0 / h))  # ~unit-measure square, snapped to cells
    functions = (
        ("const_1", orlicz.StepFunction(1.0, grid ** 2, h ** 2)),
        (f"indicator_{side}x{side}cells", orlicz.StepFunction(1.0, side ** 2, h ** 2)),
        ("bump_n1_unscaled", cx.make_bump(1, grid_size=grid)),
    )
    youngs = (orlicz.LOG, orlicz.LOG2, orlicz.young_power(2.0))
    rows, below = [], []
    for fname, f in functions:
        for Q in youngs:
            norm = orlicz.luxemburg_norm(f, Q)
            rows.append([fname, Q.name, norm, orlicz.modular(f, Q, norm)])
            if norm > 0.0:  # a modular above 1 one float below certifies the norm as the least float
                below.append(orlicz.modular(f, Q, math.nextafter(norm, 0.0)))
    certificate = f"min_modular_one_float_below={_fmt(min(below, default=math.inf))}"
    write_report(
        args, "orlicz", ["report=luxemburg norms", certificate],
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
    ok = not any(abs(mod - 1.0) > 1e-6 for *_, mod in rows)
    return EXIT_OK if ok else EXIT_TOLERANCE


COMMANDS = {
    "kernel-verify": cmd_kernel_verify,
    "lemma": cmd_lemma,
    "growth": cmd_growth,
    "measure": cmd_measure,
    "converge": cmd_converge,
    "orlicz": cmd_orlicz,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmeans",
        description="Desk-scale experiments on logarithmic means of double Fourier series.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--grid-size", type=int, default=256, dest="grid_size",
                        help="grid points per axis, a power of two >= 4 (converge) or >= 32 (orlicz)")
    parser.add_argument("--n", type=lambda s: sorted({int(p) for p in s.split(",")}),
                        help="comma-separated scale/order list, run in ascending order, each once")
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
