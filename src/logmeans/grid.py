"""Uniform-grid samples of 2*pi-biperiodic functions on [-pi, pi)^2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridResolutionError(ValueError):
    """The grid is too coarse for the requested operation."""


class GridMismatchError(ValueError):
    """Two grids that must share a size do not."""


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
    Real samples of a function on the uniform grid over [-pi, pi)^2.

    ``values[i, j]`` holds ``f(x_i, y_j)`` with ``x_i = -pi + 2*pi*i/G``; the
    spacing is ``2*pi/G`` on both axes and G is a power of two (>= 4).  The
    samples are stored as a contiguous float64 array; a complex array is
    refused.  ``values`` is a read-only view (of the caller's array when no
    conversion was needed), so the cached ``magnitude_histogram`` cannot go
    stale through the grid.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if np.iscomplexobj(values):
            raise ValueError("grid samples must be real, got a complex array")
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"expected a square 2D sample array, got shape {values.shape}")
        validate_grid_size(values.shape[0])
        object.__setattr__(self, "values", read_only_view(np.ascontiguousarray(values, dtype=float)))

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
    def from_function(cls, func, grid_size: int) -> "GridFunction2D":
        """
        Sample ``func(x, y)`` on the grid: ``func`` must accept numpy arrays,
        and is called once on the axis points as a (G, 1) column x and a
        (1, G) row y; its result is broadcast to G x G, so a function of x
        alone may return a column.
        """
        validate_grid_size(grid_size)
        pts = axis_points(grid_size)
        values = np.asarray(func(pts[:, None], pts[None, :]))
        return cls(values=np.broadcast_to(values, (grid_size, grid_size)))

    @classmethod
    def constant(cls, value: float, grid_size: int) -> "GridFunction2D":
        return cls(values=np.full((grid_size, grid_size), float(value)))

    @cached_property
    def magnitude_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """
        The distinct values of |f| in increasing order and how many samples
        take each, built once per grid; refuses non-finite samples.
        """
        mags = np.abs(self.values).ravel()
        mags.sort()  # in place, so one copy of |f| is all the histogram holds
        if not math.isfinite(mags[-1]):  # NaN sorts last, infinity just before it
            raise ValueError("samples must be finite")
        starts = np.flatnonzero(mags[1:] != mags[:-1]) + 1  # where each later value begins
        distinct = mags[np.concatenate(([0], starts))]
        counts = np.diff(starts, prepend=0, append=mags.size)
        return read_only_view(distinct), read_only_view(counts)
