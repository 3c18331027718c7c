"""
Command-line surface: every experiment as a subcommand emitting deterministic,
plot-ready CSV (optionally mirrored as JSON).

Exit codes: 0 all checks passed, 1 tolerance violation, 2 usage/config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

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
#: Fewest samples per window and axis a command accepts where RunConfig's
#: floor of 1 is too low: lemma and measure sample every window's corners.
MIN_SAMPLES = {"lemma": 2, "measure": 2}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Flat, losslessly serializable run configuration."""

    grid_size: int = 256
    n_list: tuple[int, ...] | None = None
    samples_per_rect: int = 9
    tol_bisection: float = 1e-9
    tol_kernel: float = 1e-8
    output_dir: str = "."

    def __post_init__(self) -> None:
        try:
            validate_grid_size(self.grid_size)
        except ValueError as exc:
            raise ConfigError(f"grid_size: {exc}") from exc
        if self.samples_per_rect < 1:
            raise ConfigError(f"samples_per_rect must be >= 1, got {self.samples_per_rect}")
        if not math.isfinite(self.tol_kernel):
            raise ConfigError(f"tol_kernel must be finite, got {self.tol_kernel}")
        if not (math.isfinite(self.tol_bisection) and self.tol_bisection > 0.0):
            raise ConfigError(f"tol_bisection must be finite and > 0, got {self.tol_bisection}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "n_list":
                text = "" if value is None else ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            kwargs[key] = _parse_value(key, value)
        return cls(**kwargs)


def _parse_value(key: str, value: str):
    if key == "n_list":
        if value == "":
            return None
        try:
            return tuple(int(part) for part in value.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad n_list {value!r}") from exc
    if key in ("grid_size", "samples_per_rect"):
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key}: {value!r}") from exc
    if key == "output_dir":
        return value
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"bad float for {key}: {value!r}") from exc


def load_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, then flag overrides (flags win)."""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    else:
        cfg = RunConfig()
    overrides = {}
    if args.grid_size is not None:
        overrides["grid_size"] = args.grid_size
    if args.n is not None:
        overrides["n_list"] = tuple(args.n)
    if args.samples is not None:
        overrides["samples_per_rect"] = args.samples
    if args.out is not None:
        overrides["output_dir"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------

def _fmt(value) -> str:
    v = _json_value(value)
    return str(int(v)) if isinstance(v, bool) else str(v)


def write_report(cfg: RunConfig, name: str, comments: list[str], header: list[str],
                 rows: list[list], json_mirror: bool) -> str:
    path = os.path.join(cfg.output_dir, name + ".csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if json_mirror:
        payload = {
            "comments": comments,
            "header": header,
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        with open(os.path.join(cfg.output_dir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
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
    tubes x, y, x+y, x-y = 0 (mod 2*pi).  Deterministic.
    """
    out = []
    i = 1
    while len(out) < count:
        x = (2.0 * ((0.5 + _R2_A1 * i) % 1.0) - 1.0) * math.pi
        y = (2.0 * ((0.5 + _R2_A2 * i) % 1.0) - 1.0) * math.pi
        i += 1
        margins = (
            abs(math.remainder(x, 2 * math.pi)),
            abs(math.remainder(y, 2 * math.pi)),
            abs(math.remainder(x + y, 2 * math.pi)),
            abs(math.remainder(x - y, 2 * math.pi)),
        )
        if min(margins) >= _TUBE_MARGIN:
            out.append((x, y))
    return np.array(out)


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


def cmd_kernel_verify(cfg: RunConfig, json_mirror: bool) -> int:
    xs, ys = quasi_random_points(cfg.samples_per_rect ** 2).T
    rows = []
    all_ok = True
    for N in KERNEL_VERIFY_N:
        terms, bound = kernels.closed_form_terms(N, xs, ys)
        closed = np.sum(terms, axis=1) / harmonic_number(N)
        direct = kernels.log_kernel_direct_many(N, xs, ys)
        err = np.abs(closed - direct)
        worst_margin = float(np.max(err - (bound + cfg.tol_kernel * (1.0 + np.abs(direct)))))
        ok = worst_margin <= 0.0
        all_ok &= ok
        rows.append([N, len(xs), float(np.max(err)), worst_margin, ok])

    write_report(
        cfg, "kernel_verify",
        ["report=closed-vs-direct kernel equivalence"],
        ["N", "points", "max_abs_diff", "worst_margin", "pass"],
        rows, json_mirror,
    )
    return EXIT_OK if all_ok else EXIT_TOLERANCE


def cmd_lemma(cfg: RunConfig, json_mirror: bool) -> int:
    reports, skipped = _skip_empty_regions(
        cfg.n_list or REGION_DEFAULT_N, lambda n: kernels.lemma_survey(n, cfg.samples_per_rect)
    )
    rows = [row for rep in reports for row in rep.csv_rows()]
    comments = ["paper_display=lemma-main", *skipped]
    positive = [r.n for r in reports if r.i_min_ratio > 0.0]
    if positive:
        comments.append(f"n0_estimate={min(positive)}")
    write_report(
        cfg, "lemma", comments,
        ["n", "kind", "min_ratio", "argmin_x", "argmin_y", "samples"],
        rows, json_mirror,
    )
    ok = all(r.i_min_ratio > 0.0 and r.j_min_ratio > 0.0 for r in reports)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_growth(cfg: RunConfig, json_mirror: bool) -> int:
    def row(n):
        gs = cx.geometric_sum(n)
        l1 = cx.l1_growth(n).l1_lower if n <= MAX_KERNEL_SCALE else float("nan")
        return [n, gs, gs / n ** 2, l1]

    rows, skipped = _skip_empty_regions(cfg.n_list or REGION_DEFAULT_N, row)
    write_report(
        cfg, "growth", ["paper_display=(b)", *skipped],
        ["n", "geometric_sum", "gs_over_n2", "l1_lower"],
        rows, json_mirror,
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


def cmd_measure(cfg: RunConfig, json_mirror: bool) -> int:
    n_list = cfg.n_list or REGION_DEFAULT_N
    # window_count refuses an empty region without building its windows
    kept, comments = _skip_empty_regions(n_list, lambda n: kernels.window_count(n) and n)
    rows = []
    if kept:
        # Lower-bound constant of the unscaled bump mean, fitted at the smallest
        # kernel-feasible scale; with bound_coeff = c1 the certified set is pure
        # region geometry, so the fit only documents the threshold actually used.
        fit_n = min([n for n in kept if 3 <= n <= MAX_KERNEL_SCALE], default=3)
        c1 = cx.bump_mean_lower_bound(fit_n, cfg.samples_per_rect).min_ratio / cx.BUMP_PREFACTOR
        reports = [cx.exceedance_measure(n, c1) for n in kept]
        rows = [[rep.n, c1, rep.measure, rep.bound] for rep in reports]
        comments.append(f"c1_fit_scale={fit_n}")
    write_report(
        cfg, "measure", ["paper_display=est1", *comments], ["n", "c1", "measure", "bound"],
        rows, json_mirror,
    )
    return EXIT_OK


def _fit_order(kind: str, n: int, bandwidth: int) -> int:
    """Largest order <= n whose reach fits the bandwidth, never below the least order GridOp accepts."""
    for order in range(n, 0, -1):
        try:
            op = GridOp(kind, order)
        except ValueError:  # below the smallest order GridOp accepts for the kind
            return order + 1
        if op.reach()[0] <= bandwidth:
            return order
    raise BandwidthError(f"no {kind} order <= {n} fits bandwidth {bandwidth}")


def cmd_converge(cfg: RunConfig, json_mirror: bool) -> int:
    orders = cfg.n_list or CONVERGE_DEFAULT_N
    if min(orders) < 1:
        raise ValueError(f"orders must be >= 1, got {min(orders)}")
    max_order = max(orders)
    grid = cfg.grid_size
    while grid < 2 * max_order:
        grid *= 2
    bandwidth = grid // 2 - 1

    ops, clamped = [], []
    for kind in ("norlund-log", "marcinkiewicz", "riesz-log"):
        for n in orders:
            order = _fit_order(kind, n, bandwidth)
            if order != n:
                clamped.append(f"{kind}:{n}->{order}")
            ops.append(GridOp(kind, order))
    f = GridFunction2D.from_function(lambda x, y: np.abs(x), grid, real=True)
    reach = max(op.reach()[0] for op in ops)  # no coefficient past the ops' reach is used
    coeffs = fourier_coeffs(f, reach, reach)
    rows = [[op.kind, op.order, l1_distance(evaluate_grid(coeffs, op), f)] for op in ops]
    comments = ["function=|x|", f"grid_size={grid}"]
    if clamped:
        comments.append("order_clamped=" + ",".join(clamped))
    write_report(
        cfg, "converge", comments,
        ["kind", "n", "l1_error"],
        rows, json_mirror,
    )
    tail = [err for kind, _, err in rows if kind == "norlund-log"][-3:]
    ok = all(b <= a for a, b in zip(tail, tail[1:]))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_orlicz(cfg: RunConfig, json_mirror: bool) -> int:
    grid = cfg.grid_size
    h = 2.0 * math.pi / grid
    side = int(round(1.0 / h))  # ~unit-measure square, snapped to cells

    functions: list[tuple[str, GridFunction2D]] = []
    functions.append(("const_1", GridFunction2D.constant(1.0, grid)))
    vals = np.zeros((grid, grid))
    vals[:side, :side] = 1.0
    functions.append((f"indicator_{side}x{side}cells", GridFunction2D(values=vals, is_real=True)))
    bump_grid, _spec = cx.make_bump(1, scaled=False, grid_size=grid)
    functions.append(("bump_n1_unscaled", bump_grid))

    youngs = (orlicz.LOG, orlicz.LOG2, orlicz.young_power(2.0))
    rows = []
    ok = True
    for fname, fgrid in functions:
        for Q in youngs:
            norm = orlicz.luxemburg_norm(fgrid, Q, rel_tol=cfg.tol_bisection)
            mod = orlicz.modular(fgrid, Q, norm) if norm > 0.0 else 0.0
            rows.append([fname, Q.name, norm, mod])
            if norm > 0.0 and abs(mod - 1.0) > 1e-6:
                ok = False
    write_report(
        cfg, "orlicz", ["report=luxemburg norms"],
        ["function", "young", "norm", "modular_at_norm"],
        rows, json_mirror,
    )

    u_grid = 2.0 ** np.arange(1, 41)
    deficit_rows = []
    for Q in (orlicz.LOG, orlicz.LOG2, orlicz.young_power(1.5)):
        for weight in ("log", "log2"):
            top = orlicz.inclusion_deficit(Q, weight, u_grid[-1:])  # the ratio at the grid's top alone
            deficit_rows.append([Q.name, weight, orlicz.inclusion_deficit(Q, weight, u_grid), top])
    write_report(
        cfg, "orlicz_deficit", ["report=inclusion probe u*log^p(u)/Q(u)"],
        ["young", "weight", "probe_max", "probe_at_top"],
        deficit_rows, json_mirror,
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
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--grid-size", type=int, dest="grid_size")
    parser.add_argument("--n", type=lambda s: [int(p) for p in s.split(",")],
                        help="comma-separated scale/order list")
    parser.add_argument("--samples", type=int,
                        help="lattice samples per window on each axis (lemma, measure: >= 2; "
                             "kernel-verify: >= 1, it checks S^2 points)")
    parser.add_argument("--out", help="output directory (must exist)")
    parser.add_argument("--json", action="store_true", help="mirror each CSV as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args)
        least = MIN_SAMPLES.get(args.command, 1)
        if cfg.samples_per_rect < least:
            raise ConfigError(
                f"{args.command} needs at least {least} samples per axis, got {cfg.samples_per_rect}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg, args.json)
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
