import numpy as np
import pytest

from logmeans.fourier import GridOp, SpectralCoeffs, evaluate_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_band_limited(rng, bandwidth, grid_size, real=False, scale=1.0):
    """Random trig polynomial as (GridFunction2D, SpectralCoeffs)."""
    shape = (2 * bandwidth + 1, 2 * bandwidth + 1)
    c = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if real:
        c = 0.5 * (c + np.conj(c[::-1, ::-1]))
    coeffs = SpectralCoeffs(coeffs=c, bandwidth_m=bandwidth, bandwidth_n=bandwidth,
                            source_grid=grid_size)
    grid = evaluate_grid(coeffs, GridOp.rect(bandwidth, bandwidth), grid_size)
    return grid, coeffs


def stratified_samples(region, per_axis=9):
    """
    Reference sample layout: an inclusive per_axis x per_axis grid on every
    rectangle of the region, concatenated in rectangle order, shape (P, 2).
    """
    chunks = []
    for ax, bx, ay, by in region.rectangles:
        xs = np.linspace(ax, bx, per_axis)
        ys = np.linspace(ay, by, per_axis)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        chunks.append(np.column_stack([xx.ravel(), yy.ravel()]))
    return np.concatenate(chunks, axis=0)


def stratified_min(pts, values):
    """(samples, minimum of x y values, its first argmin in rectangle order) over paired points."""
    xs, ys = pts[:, 0], pts[:, 1]
    ratios = xs * ys * values
    arg = int(np.argmin(ratios))
    return len(xs), float(ratios[arg]), (float(xs[arg]), float(ys[arg]))
