"""Uniform-grid samples of 2*pi-biperiodic functions on [-pi, pi)^2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: A grid flagged `real` may carry imaginary parts up to this size.
IMAG_TOL = 1e-12


class GridResolutionError(ValueError):
    """The grid is too coarse for the requested operation."""


class GridMismatchError(ValueError):
    """Two grids that must share size/flags do not."""


def axis_points(grid_size: int) -> np.ndarray:
    """Sample points x_j = -pi + 2*pi*j/G for j = 0..G-1."""
    return -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size


def validate_grid_size(grid_size: int) -> None:
    if grid_size < 4 or grid_size & (grid_size - 1) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {grid_size}")


@dataclass(frozen=True, eq=False)
class GridFunction2D:
    """
    Complex samples of a function on the uniform grid over [-pi, pi)^2.

    ``values[i, j]`` holds ``f(x_i, y_j)`` with ``x_i = -pi + 2*pi*i/G``; the
    spacing is ``2*pi/G`` on both axes and G is a power of two (>= 4).  A grid
    flagged ``is_real`` must have all imaginary parts below ``IMAG_TOL``.
    """

    values: np.ndarray
    is_real: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"expected a square 2D sample array, got shape {values.shape}")
        validate_grid_size(values.shape[0])
        if self.is_real:
            worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
            if worst > IMAG_TOL:
                raise ValueError(
                    f"grid flagged real has imaginary parts up to {worst:.3e} > {IMAG_TOL:.0e}"
                )
        object.__setattr__(self, "values", values)

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.grid_size

    @property
    def cell_area(self) -> float:
        return self.spacing ** 2

    @classmethod
    def from_function(cls, func, grid_size: int, real: bool | None = None) -> "GridFunction2D":
        """
        Sample ``func(x, y)`` on the grid.  ``func`` must accept numpy arrays
        (meshgrid evaluation).  ``real=None`` detects the flag from the samples.
        """
        validate_grid_size(grid_size)
        pts = axis_points(grid_size)
        xx, yy = np.meshgrid(pts, pts, indexing="ij")
        values = np.asarray(func(xx, yy), dtype=complex)
        if real is None:
            real = bool(np.max(np.abs(values.imag)) <= IMAG_TOL) if values.size else True
        return cls(values=values, is_real=real)

    @classmethod
    def constant(cls, value: complex, grid_size: int) -> "GridFunction2D":
        values = np.full((grid_size, grid_size), value, dtype=complex)
        return cls(values=values, is_real=abs(complex(value).imag) <= IMAG_TOL)

    def integral(self) -> complex:
        """Rectangle-rule value of the double integral over [-pi, pi)^2."""
        return complex(np.sum(self.values)) * self.cell_area
