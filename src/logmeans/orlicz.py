"""Young functions, Luxemburg norms, and inclusion probes for Orlicz spaces on the torus."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grid import GridFunction2D


@dataclass(frozen=True)
class YoungFunction:
    """
    Convex Young function Q with Q(0) = 0, Q(u)/u -> 0 at 0 and -> infinity
    at infinity.  ``evaluator`` is the bare array formula; calling Q checks
    u >= 0 and hands it a float array.
    """

    name: str
    evaluator: Callable

    def __call__(self, u):
        """Q(u) for u >= 0, a float for a scalar ``u``; refuses negative u."""
        u_arr = np.asarray(u, dtype=float)
        if (u_arr < 0.0).any():
            raise ValueError("Young functions are evaluated on u >= 0")
        out = self.evaluator(u_arr)
        return float(out) if np.ndim(u) == 0 else out


def young_power(p: float) -> YoungFunction:
    """Power Young function u^p, p > 1."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"power Young function needs finite p > 1, got {p}")
    return YoungFunction(name=f"u^{p}", evaluator=lambda u: u ** p)


def young_log_power(p: float) -> YoungFunction:
    """u log^p(1+u) for fractional log strength (p > 0)."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"log power must be finite and positive, got {p}")
    return YoungFunction(name=f"u*log^{p}(1+u)", evaluator=lambda u: u * np.log1p(u) ** p)


#: u log(1 + u), which generates the space L log L.
LOG = replace(young_log_power(1.0), name="u*log(1+u)")
#: u log^2(1 + u), which generates the space L log^2 L.
LOG2 = replace(young_log_power(2.0), name="u*log^2(1+u)")


#: The least and the greatest positive float.
_LEAST, _GREATEST = math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0)


@dataclass(frozen=True)
class StepFunction:
    """
    ``value`` on ``cells`` grid cells of area ``cell_area``, 0 elsewhere: its grid's histogram
    without the grid (zero cells add Q(0) = 0 to a modular).  The count is a float, so the
    G x G cells of G = 2^40 do not overflow it.  Refuses a value that is not finite, a cell count
    that is negative or not finite and a cell area that is not finite and positive.
    """

    value: float
    cells: int
    cell_area: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"step value must be finite, got {self.value}")
        if not (math.isfinite(self.cells) and self.cells >= 0):
            raise ValueError(f"cell count must be finite and >= 0, got {self.cells}")
        if not (math.isfinite(self.cell_area) and self.cell_area > 0.0):
            raise ValueError(f"cell area must be finite and positive, got {self.cell_area}")

    @property
    def magnitude_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.cells:  # the zero function: an empty histogram adds no 0 * Q(inf) at a tiny k
            return np.empty(0), np.empty(0)
        return np.array([abs(self.value)]), np.array([self.cells], dtype=float)


def modular(f: GridFunction2D | StepFunction, Q: YoungFunction, k: float) -> float:
    """
    Rectangle-rule value of Int Q(|f| / k) over the torus, read from the
    grid's magnitude histogram: each distinct |f| once, times its count.
    A value that overflows to inf is a correct "modular above 1", so it
    raises no overflow warning.
    """
    with np.errstate(over="ignore"):
        return _modular(*f.magnitude_histogram, f.cell_area, Q, k)


def _modular(mags: np.ndarray, counts: np.ndarray, cell_area: float, Q: YoungFunction, k: float) -> float:
    """The modular at k of the histogram (mags, counts) of cells of area ``cell_area``."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"scale must be finite and positive, got {k}")
    return float(counts @ np.asarray(Q(mags / k)) * cell_area)


def luxemburg_norm(f: GridFunction2D | StepFunction, Q: YoungFunction) -> float:
    """
    inf { k > 0 : Int Q(|f| / k) <= 1 } as the least float k with modular(k) <= 1, so the float
    below it has a modular above 1; 0 for f = 0.  From k = 1 the walk multiplies or divides k by
    2, 4, 16, 256, ..., the factor squared each step, while the modular is inf or 0, so a norm e
    binades away is passed in about log2(e) steps; otherwise it steps to k * modular(k), which
    lies across the norm (Q(u)/u is nondecreasing).  Regula falsi steps on log modular against
    log k, which is linear for u^p, then close the bracket, each step clamped strictly inside it,
    until its ends are adjacent floats.  When one end is replaced twice running, the other end's
    log modular is scaled by Anderson and Bjorck's 1 - g_new/g_old, or halved (Illinois) where
    that is not in (0, 1).  A norm beyond the float range, where the walk reaches inf or 0, is
    refused with the ``ValueError`` of ``modular``.
    """
    mags, counts = f.magnitude_histogram
    if not np.any(counts[mags > 0.0]):  # f = 0: no cell carries a nonzero magnitude
        return 0.0
    lo = hi = None  # [k, log modular] at the largest k seen with modular > 1 and the least <= 1
    k, moved, factor = 1.0, None, 2.0
    with np.errstate(over="ignore"):
        while True:
            m = _modular(mags, counts, f.cell_area, Q, k)
            point = [k, math.log(m) if m > 0.0 else -math.inf]
            kept = hi if m > 1.0 else lo
            if kept is not None and moved is not kept:  # the same end replaced twice running
                ratio = point[1] / moved[1] if moved[1] != 0.0 else math.nan
                kept[1] *= 1.0 - ratio if 0.0 < ratio < 1.0 else 0.5  # Anderson-Bjorck, else Illinois
            if m > 1.0:
                lo = moved = point
            else:
                hi = moved = point
            if kept is not None:
                if math.nextafter(lo[0], math.inf) == hi[0]:
                    return hi[0]
                gap, span = lo[1] - hi[1], hi[0] / lo[0]
                if 0.0 < gap < math.inf and span < math.inf:  # from lo, so k keeps its digits at any size
                    k = lo[0] + lo[0] * math.expm1(lo[1] / gap * math.log(span))
                else:
                    k = math.sqrt(lo[0]) * math.sqrt(hi[0])
            elif math.isfinite(point[1]):
                k *= m
            else:
                k = k * factor if m > 1.0 else k / factor
                factor *= factor
            # onto the positive floats, then strictly inside the bracket: an unseen end stands at
            # 0 or inf, so the walk reaches 0 or inf only from the least or the greatest float
            k = min(max(k, _LEAST), _GREATEST)
            above = math.nextafter(lo[0], math.inf) if lo is not None else 0.0
            k = min(max(k, above), math.nextafter(hi[0], 0.0) if hi is not None else math.inf)


def inclusion_deficit(Q: YoungFunction, weight: str, u_grid) -> float:
    """
    Numerical probe of the space-inclusion criterion: the maximum over the
    grid of u log^p(u) / Q(u) with p = 1 for ``log`` and p = 2 for ``log2``.
    Large values across a growing grid indicate L_Q is not contained in the
    corresponding log-weighted space on the probed range (a trend report,
    not a proof: the criterion itself is asymptotic).
    """
    if weight not in ("log", "log2"):
        raise ValueError(f"weight must be 'log' or 'log2', got {weight!r}")
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or len(u) == 0:
        raise ValueError("u_grid must be a nonempty 1D sequence")
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0) or np.any(np.diff(u) <= 0.0):
        raise ValueError("u_grid must be finite, increasing and positive")
    p = 1 if weight == "log" else 2
    ratios = u * np.log(u) ** p / np.asarray(Q(u))
    return float(np.max(ratios))
