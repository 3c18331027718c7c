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

    def validate(self, seed: int = 0, triples: int = 1000) -> None:
        """
        Sampled invariant check: Q(0) = 0, midpoint convexity on random
        triples, and the slope Q(u)/u decaying at u = 2^-40 and exploding at
        u = 2^40 relative to u = 1.
        """
        if abs(self(0.0)) > 1e-300:
            raise ValueError(f"{self.name}: Q(0) != 0")
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 50.0, triples)
        hi = lo + rng.uniform(0.0, 50.0, triples)
        mid_val = self((lo + hi) / 2.0)
        chord = (self(lo) + self(hi)) / 2.0
        if np.any(mid_val > chord + 1e-9 * (1.0 + np.abs(chord))):
            raise ValueError(f"{self.name}: midpoint convexity violated")
        slope = lambda u: self(u) / u
        if not slope(2.0 ** -40) < slope(1.0) < slope(2.0 ** 40):
            raise ValueError(f"{self.name}: slope not increasing across the probe range")


def young_power(p: float) -> YoungFunction:
    """Power Young function u^p, p > 1."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"power Young function needs finite p > 1, got {p}")
    return YoungFunction(name=f"u^{p}", evaluator=lambda u: u ** p)


def young_log_power(p: float) -> YoungFunction:
    """u log^p(1+u) for fractional log strength (p > 0)."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"log power must be finite and positive, got {p}")

    def formula(u):
        out = np.log1p(u)  # in place from here: Q runs over whole grids
        out **= p
        out *= u
        return out

    return YoungFunction(name=f"u*log^{p}(1+u)", evaluator=formula)


#: u log(1 + u), which generates the space L log L.
LOG = replace(young_log_power(1.0), name="u*log(1+u)")
#: u log^2(1 + u), which generates the space L log^2 L.
LOG2 = replace(young_log_power(2.0), name="u*log^2(1+u)")


def _histogram_modular(mags: np.ndarray, counts: np.ndarray, Q: YoungFunction, k: float, area: float) -> float:
    """Rectangle-rule Int Q(|f| / k) from the magnitude histogram: each distinct value once, times its count."""
    return float(counts @ np.asarray(Q(mags / k)) * area)


def modular(f: GridFunction2D, Q: YoungFunction, k: float) -> float:
    """Rectangle-rule value of Int Q(|f| / k) over the torus."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"scale must be finite and positive, got {k}")
    mags, counts = f.magnitude_histogram
    return _histogram_modular(mags, counts, Q, k, f.cell_area)


def luxemburg_norm(f: GridFunction2D, Q: YoungFunction, rel_tol: float = 1e-9) -> float:
    """
    inf { k > 0 : Int Q(|f| / k) <= 1 }, computed by bracketing (double k
    until the modular drops to <= 1, halve until it exceeds 1) followed by
    bisection to relative tolerance ``rel_tol``.  Returns 0 for f = 0; the
    returned k sits on the feasible side (modular(k) <= 1).  Every modular
    runs over the distinct magnitudes of f weighted by their sample counts
    (the grid's ``magnitude_histogram``, built once per grid).
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"relative tolerance must be finite and positive, got {rel_tol}")
    mags, counts = f.magnitude_histogram
    if mags[-1] == 0.0:  # sorted: the largest magnitude
        return 0.0
    area = f.cell_area

    def mod(k: float) -> float:
        return _histogram_modular(mags, counts, Q, k, area)

    hi = 1.0
    for _ in range(1100):
        if mod(hi) <= 1.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - float range exhausted long before this
        raise ValueError("failed to bracket the Luxemburg norm from above")
    lo = hi
    for _ in range(1100):
        candidate = lo / 2.0
        if mod(candidate) > 1.0:
            lo = candidate
            break
        lo = candidate
        if lo < 1e-300:
            # modular stays <= 1 for arbitrarily small k: only possible for f = 0
            return 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mod(mid) <= 1.0:
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
    if np.any(u <= 0.0) or np.any(np.diff(u) <= 0.0):
        raise ValueError("u_grid must be increasing and positive")
    p = 1 if weight == "log" else 2
    ratios = u * np.log(u) ** p / np.asarray(Q(u))
    return float(np.max(ratios))
