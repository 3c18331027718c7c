"""Summability means of quadratical partial sums and their kernel-convolution path."""

from __future__ import annotations

import math

import numpy as np

from .fourier import GridOp, SpectralCoeffs, dirichlet_matrix, quad_partial_sum
from .grid import GridFunction2D, GridMismatchError, GridResolutionError, axis_points


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


def mean_via_kernel(f: GridFunction2D, n: int, x: float, y: float) -> float:
    """
    Logarithmic mean through the convolution path,
    (1/pi^2) Int f(s, t) F_n(x - s, y - t) ds dt, by rectangle-rule quadrature
    on f's grid.  The 1/pi^2 factor normalizes each S_{k,k} convolution so the
    mean fixes constants (the kernel then integrates to 1 against the mean's
    weights).

    Requires grid_size >= 8 n so the quadrature resolves the kernel.
    """
    w = GridOp.norlund_log(n).weights()
    G = f.grid_size
    if G < 8 * n:
        raise GridResolutionError(f"grid {G} too coarse for order {n} (need >= {8 * n})")
    pts = axis_points(G)
    orders = np.arange(n)
    dk_x = dirichlet_matrix(orders, x - pts)  # (n, G)
    dk_y = dirichlet_matrix(orders, y - pts)
    # sum_k w_k * u_k^T f v_k, accumulated in fixed k order
    fv = f.values @ dk_y.T  # (G, n)
    per_k = np.einsum("kg,gk->k", dk_x, fv)
    total = complex(np.sum(per_k * w))
    h2 = f.cell_area
    value = total * h2 / (math.fsum(w) * math.pi ** 2)
    return float(value.real)


def l1_distance(f: GridFunction2D, g: GridFunction2D) -> float:
    """Rectangle-rule approximation of Int |f - g| over the torus."""
    if f.grid_size != g.grid_size:
        raise GridMismatchError(f"grid sizes differ: {f.grid_size} vs {g.grid_size}")
    d = f.values - g.values
    d = np.abs(d, out=d) if np.isrealobj(d) else np.abs(d)  # one G x G temporary for real grids
    return float(np.sum(d) * f.cell_area)
