"""Summability means of quadratical partial sums and their kernel-convolution path."""

from __future__ import annotations

import math

import numpy as np

from .fourier import BandwidthError, SpectralCoeffs, dirichlet_matrix, quad_partial_sum
from .grid import GridFunction2D, GridMismatchError, GridResolutionError, axis_points


def harmonic_number(n: int) -> float:
    """Partial harmonic sum 1 + 1/2 + ... + 1/n (exactly accumulated)."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def harmonic_prefix(n: int) -> np.ndarray:
    """Array [H_0, H_1, ..., H_n] with H_0 = 0."""
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return out


def norlund_log_mean(c: SpectralCoeffs, n: int, x: float, y: float) -> complex:
    """
    Logarithmic mean of quadratical partial sums,
    (1/H_n) sum_{i=0}^{n-1} S_{i,i}(x, y) / (n - i); includes the i = 0 term.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n - 1 > min(c.bandwidth_m, c.bandwidth_n):
        raise BandwidthError(f"order {n} needs bandwidth >= {n - 1}")
    total = 0.0 + 0.0j
    for i in range(n):
        total += quad_partial_sum(c, i, x, y) / (n - i)
    return total / harmonic_number(n)


def marcinkiewicz_mean(c: SpectralCoeffs, n: int, x: float, y: float) -> complex:
    """Arithmetic mean (1/n) sum_{j=1}^{n} S_{j,j}(x, y)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > min(c.bandwidth_m, c.bandwidth_n):
        raise BandwidthError(f"order {n} needs bandwidth >= {n}")
    total = 0.0 + 0.0j
    for j in range(1, n + 1):
        total += quad_partial_sum(c, j, x, y)
    return total / n


def riesz_log_mean(c: SpectralCoeffs, n: int, x: float, y: float) -> complex:
    """
    Riesz-type logarithmic mean (1/H_{n-1}) sum_{k=1}^{n-1} S_{k,k}(x, y) / k.

    Normalized by H_{n-1} (the index range of the sum) so that constant
    functions are fixed exactly.
    """
    if n < 2:
        raise ValueError(f"riesz-log mean needs order >= 2, got {n}")
    if n - 1 > min(c.bandwidth_m, c.bandwidth_n):
        raise BandwidthError(f"order {n} needs bandwidth >= {n - 1}")
    total = 0.0 + 0.0j
    for k in range(1, n):
        total += quad_partial_sum(c, k, x, y) / k
    return total / harmonic_number(n - 1)


def mean_via_kernel(f: GridFunction2D, n: int, x: float, y: float) -> float:
    """
    Logarithmic mean through the convolution path,
    (1/pi^2) Int f(s, t) F_n(x - s, y - t) ds dt, by rectangle-rule quadrature
    on f's grid.  The 1/pi^2 factor normalizes each S_{k,k} convolution so the
    mean fixes constants (the kernel then integrates to 1 against the mean's
    weights).

    Requires grid_size >= 8 n so the quadrature resolves the kernel.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    G = f.grid_size
    if G < 8 * n:
        raise GridResolutionError(f"grid {G} too coarse for order {n} (need >= {8 * n})")
    pts = axis_points(G)
    orders = np.arange(n)
    dk_x = dirichlet_matrix(orders, x - pts)  # (n, G)
    dk_y = dirichlet_matrix(orders, y - pts)
    inv_weights = 1.0 / (n - orders)
    # sum_k (1/(n-k)) * u_k^T f v_k, accumulated in fixed k order
    fv = f.values @ dk_y.T  # (G, n)
    per_k = np.einsum("kg,gk->k", dk_x, fv)
    total = complex(np.sum(per_k * inv_weights))
    h2 = f.cell_area
    value = total * h2 / (harmonic_number(n) * math.pi ** 2)
    return float(value.real)


def l1_distance(f: GridFunction2D, g: GridFunction2D) -> float:
    """Rectangle-rule approximation of Int |f - g| over the torus."""
    if f.grid_size != g.grid_size:
        raise GridMismatchError(f"grid sizes differ: {f.grid_size} vs {g.grid_size}")
    return float(np.sum(np.abs(f.values - g.values)) * f.cell_area)
