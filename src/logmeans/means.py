"""Summability means of quadratical partial sums, the harmonic numbers that normalize them, and L1 distances."""

from __future__ import annotations

import math

import numpy as np

from .fourier import GridOp, SpectralCoeffs, quad_partial_sum
from .grid import GridFunction2D, GridMismatchError


def harmonic_number(n: int) -> float:
    """Partial harmonic sum 1 + 1/2 + ... + 1/n (exactly accumulated)."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def pointwise_mean(c: SpectralCoeffs, op: GridOp, x: float, y: float) -> complex:
    """
    The mean ``op`` at one point, partial sum by partial sum:
    sum_j w_j S_{j,j}(x, y) / sum_j w_j over the op's weights w_j, j = 0..reach.
    """
    w = op.weights()
    total = 0.0 + 0.0j
    for j, w_j in enumerate(w):
        total += w_j * quad_partial_sum(c, j, x, y)
    return total / math.fsum(w)


def l1_distance(f: GridFunction2D, g: GridFunction2D) -> float:
    """Rectangle-rule approximation of Int |f - g| over the torus."""
    if f.grid_size != g.grid_size:
        raise GridMismatchError(f"grid sizes differ: {f.grid_size} vs {g.grid_size}")
    d = f.values - g.values
    d = np.abs(d, out=d) if np.isrealobj(d) else np.abs(d)  # one G x G temporary for real grids
    return float(np.sum(d) * f.cell_area)
