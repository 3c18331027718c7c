"""The harmonic numbers that normalize the logarithmic means, and L1 distances between grids."""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import GridFunction2D, GridMismatchError


@functools.cache
def harmonic_number(n: int) -> float:
    """Partial harmonic sum 1 + 1/2 + ... + 1/n (exactly accumulated), summed once per n."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def l1_distance(f: GridFunction2D, g: GridFunction2D) -> float:
    """Rectangle-rule approximation of Int |f - g| over the torus, for two real grids of one size."""
    if f.grid_size != g.grid_size:
        raise GridMismatchError(f"grid sizes differ: {f.grid_size} vs {g.grid_size}")
    d = f.values - g.values
    return float(np.sum(np.abs(d, out=d)) * f.cell_area)  # one G x G temporary
