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
        if np.any(u_arr < 0.0):
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


#: Relative width of the final Luxemburg bisection bracket.
NORM_REL_TOL = 1e-9


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
        return np.array([abs(self.value)]), np.array([self.cells], dtype=float)


def modular(f: GridFunction2D | StepFunction, Q: YoungFunction, k: float) -> float:
    """
    Rectangle-rule value of Int Q(|f| / k) over the torus, read from the
    grid's magnitude histogram: each distinct |f| once, times its count.
    A value that overflows to inf is a correct "modular above 1", so it
    raises no overflow warning.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"scale must be finite and positive, got {k}")
    mags, counts = f.magnitude_histogram
    with np.errstate(over="ignore"):
        return float(counts @ np.asarray(Q(mags / k)) * f.cell_area)


def luxemburg_norm(f: GridFunction2D | StepFunction, Q: YoungFunction) -> float:
    """
    inf { k > 0 : Int Q(|f| / k) <= 1 }: double k from 1 while the modular
    exceeds 1, halve it until the modular exceeds 1, then bisect to relative
    width ``NORM_REL_TOL``.  Returns 0 for f = 0; otherwise the returned k
    sits on the feasible side (modular(k) <= 1).  A norm beyond the float
    range, where the doubling reaches inf or the halving reaches 0, is
    refused with the ``ValueError`` of ``modular``.
    """
    mags, counts = f.magnitude_histogram
    if not np.any(counts[mags > 0.0]):  # f = 0: no cell carries a nonzero magnitude
        return 0.0
    hi = 1.0
    while modular(f, Q, hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while modular(f, Q, lo) <= 1.0:
        lo /= 2.0
    while hi - lo > NORM_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if modular(f, Q, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


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
