"""Uniform-grid samples of 2*pi-biperiodic functions on [-pi, pi)^2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def read_only_view(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through; the array itself stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


def validate_grid_size(grid_size: int) -> None:
    if grid_size < 4 or grid_size & (grid_size - 1) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {grid_size}")


@dataclass(frozen=True, eq=False)
class GridFunction2D:
    """
    Samples of a function on the uniform grid over [-pi, pi)^2.

    ``values[i, j]`` holds ``f(x_i, y_j)`` with ``x_i = -pi + 2*pi*i/G``; the
    spacing is ``2*pi/G`` on both axes and G is a power of two (>= 4).  A grid
    flagged ``is_real`` must have all imaginary parts below ``IMAG_TOL`` and
    stores its real parts as a contiguous float64 array; any other grid stores
    complex samples.  ``values`` is a read-only view (of the caller's array
    when no conversion was needed), so the cached ``magnitude_histogram``
    cannot go stale through the grid.
    """

    values: np.ndarray
    is_real: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"expected a square 2D sample array, got shape {values.shape}")
        validate_grid_size(values.shape[0])
        if self.is_real:
            if np.iscomplexobj(values):
                worst = float(np.max(np.abs(values.imag)))
                if worst > IMAG_TOL:
                    raise ValueError(
                        f"grid flagged real has imaginary parts up to {worst:.3e} > {IMAG_TOL:.0e}"
                    )
            values = np.ascontiguousarray(values.real, dtype=float)
        else:
            values = values.astype(complex, copy=False)
        object.__setattr__(self, "values", read_only_view(values))

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
        values = np.asarray(func(xx, yy))
        if real is None:
            real = not np.iscomplexobj(values) or bool(np.max(np.abs(values.imag)) <= IMAG_TOL)
        return cls(values=values, is_real=real)

    @classmethod
    def constant(cls, value: complex, grid_size: int) -> "GridFunction2D":
        values = np.full((grid_size, grid_size), value)
        return cls(values=values, is_real=abs(complex(value).imag) <= IMAG_TOL)

    @cached_property
    def magnitude_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """
        The distinct values of |f| in increasing order and how many samples
        take each, built once per grid; refuses non-finite samples.
        """
        mags = np.abs(self.values)
        if not np.all(np.isfinite(mags)):
            raise ValueError("samples must be finite")
        distinct, counts = np.unique(mags, return_counts=True)
        return read_only_view(distinct), read_only_view(counts)

    def integral(self) -> complex:
        """Rectangle-rule value of the double integral over [-pi, pi)^2."""
        return complex(np.sum(self.values)) * self.cell_area
