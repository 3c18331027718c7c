"""Fourier coefficients, Dirichlet kernels, and rectangular partial sums on the torus."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction2D, IMAG_TOL, axis_points


class BandwidthError(ValueError):
    """Requested frequencies exceed the available bandwidth or the Nyquist limit."""


def reduce_angle(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Reduce ``t`` modulo 2*pi to [-pi, pi]: the exact remainder nearest zero,
    as ``math.remainder(t, 2*pi)`` (a tie at +-pi may keep either sign), so
    any |t| <= pi passes through bit-unchanged.  Returns ``(r, half_sin,
    zero)`` with half_sin = sin(r/2) and ``zero`` marking the points where it
    vanishes, i.e. t = 0 mod 2*pi, where the ratio kernels take their limits.
    """
    r = np.fmod(np.asarray(t, dtype=float), 2.0 * math.pi)  # exact
    r = np.where(np.abs(r) > math.pi, r - np.copysign(2.0 * math.pi, r), r)  # exact (Sterbenz)
    half_sin = np.sin(0.5 * r)
    return r, half_sin, half_sin == 0.0


def dirichlet_kernel(k: int, t):
    """
    Dirichlet kernel D_k(t) = sin((k + 1/2) t) / (2 sin(t/2)).

    Accepts scalar or array ``t``; at t = 0 (mod 2*pi) returns the limit
    value k + 1/2.  Total on the real line, 2*pi-periodic.
    """
    if k < 0:
        raise ValueError(f"kernel order must be >= 0, got {k}")
    out = dirichlet_matrix(np.array([k]), np.ravel(t))[0]
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


def dirichlet_matrix(orders: np.ndarray, t) -> np.ndarray:
    """D_k(t) for every k in ``orders`` and every point in ``t``, shape (len(orders), len(t))."""
    r, half_sin, zero = reduce_angle(np.atleast_1d(t))
    k_col = np.asarray(orders, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin((k_col + 0.5) * r[None, :]) / (2.0 * half_sin[None, :])
    return np.where(zero[None, :], k_col + 0.5, ratio)


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """
    Complex Fourier coefficients c(m, n) for |m| <= M, |n| <= N.

    ``coeffs[M + m, N + n]`` stores c(m, n).  ``source_grid`` remembers the
    grid the coefficients were computed from (used as the default synthesis
    resolution).
    """

    coeffs: np.ndarray
    bandwidth_m: int
    bandwidth_n: int
    source_grid: int | None = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.bandwidth_m + 1, 2 * self.bandwidth_n + 1)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array shape {coeffs.shape} != {expected}")
        object.__setattr__(self, "coeffs", coeffs)

    def get(self, m: int, n: int) -> complex:
        if abs(m) > self.bandwidth_m or abs(n) > self.bandwidth_n:
            raise BandwidthError(f"({m}, {n}) outside bandwidth ({self.bandwidth_m}, {self.bandwidth_n})")
        return complex(self.coeffs[self.bandwidth_m + m, self.bandwidth_n + n])

    def hermitian_defect(self) -> float:
        """max |c(-m,-n) - conj(c(m,n))|; ~0 for coefficients of a real function."""
        flipped = np.conj(self.coeffs[::-1, ::-1])
        return float(np.max(np.abs(self.coeffs - flipped)))


def fourier_coeffs(f: GridFunction2D, M: int, N: int) -> SpectralCoeffs:
    """
    Coefficients c(m, n) = (1/4 pi^2) Int f(x, y) e^{-imx} e^{-iny} dx dy
    by rectangle-rule quadrature on the sample grid.

    The rule is spectrally exact below Nyquist, so both bandwidths must stay
    under half the grid: 2M < G and 2N < G.
    """
    if M < 0 or N < 0:
        raise ValueError("bandwidths must be nonnegative")
    G = f.grid_size
    if 2 * M >= G or 2 * N >= G:
        raise BandwidthError(f"bandwidth ({M}, {N}) at or above Nyquist for grid {G}")
    pts = axis_points(G)
    m_range = np.arange(-M, M + 1)
    n_range = np.arange(-N, N + 1)
    # (1/G^2) sum_jk f(x_j, y_k) e^{-i m x_j} e^{-i n y_k}, separably.
    ex = np.exp(-1j * np.outer(m_range, pts))
    ey = np.exp(-1j * np.outer(n_range, pts))
    coeffs = (ex @ f.values @ ey.T) / G ** 2
    return SpectralCoeffs(coeffs=coeffs, bandwidth_m=M, bandwidth_n=N, source_grid=G)


def rect_partial_sum(c: SpectralCoeffs, M: int, N: int, x: float, y: float) -> complex:
    """S_{M,N}(x, y) = sum_{|m|<=M} sum_{|n|<=N} c(m, n) e^{imx} e^{iny}."""
    if M < 0 or N < 0:
        raise ValueError("partial-sum orders must be nonnegative")
    if M > c.bandwidth_m or N > c.bandwidth_n:
        raise BandwidthError(f"order ({M}, {N}) outside bandwidth ({c.bandwidth_m}, {c.bandwidth_n})")
    sub = c.coeffs[c.bandwidth_m - M : c.bandwidth_m + M + 1, c.bandwidth_n - N : c.bandwidth_n + N + 1]
    ex = np.exp(1j * np.arange(-M, M + 1) * x)
    ey = np.exp(1j * np.arange(-N, N + 1) * y)
    return complex(ex @ sub @ ey)


def quad_partial_sum(c: SpectralCoeffs, n: int, x: float, y: float) -> complex:
    """Quadratical (diagonal) partial sum S_{n,n}(x, y)."""
    return rect_partial_sum(c, n, n, x, y)


@dataclass(frozen=True)
class GridOp:
    """
    Specifier for whole-grid evaluation: a partial sum or a summability mean.

    kind is one of ``rect`` (orders M, N), ``quad`` (order n), or the mean
    kinds ``norlund-log`` / ``marcinkiewicz`` / ``riesz-log`` (order n).
    """

    kind: str
    order: int
    order_n: int | None = None

    _KINDS = ("rect", "quad", "norlund-log", "marcinkiewicz", "riesz-log")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown grid op kind {self.kind!r}")
        if self.kind == "rect":
            if self.order_n is None or self.order < 0 or self.order_n < 0:
                raise ValueError("rect op needs nonnegative orders M and N")
        else:
            low = 2 if self.kind == "riesz-log" else 1
            if self.kind == "quad":
                low = 0
            if self.order < low:
                raise ValueError(f"{self.kind} op needs order >= {low}, got {self.order}")

    @classmethod
    def rect(cls, M: int, N: int) -> "GridOp":
        return cls("rect", M, N)

    @classmethod
    def quad(cls, n: int) -> "GridOp":
        return cls("quad", n)

    @classmethod
    def norlund_log(cls, n: int) -> "GridOp":
        return cls("norlund-log", n)

    @classmethod
    def marcinkiewicz(cls, n: int) -> "GridOp":
        return cls("marcinkiewicz", n)

    @classmethod
    def riesz_log(cls, n: int) -> "GridOp":
        return cls("riesz-log", n)

    def reach(self) -> tuple[int, int]:
        """Largest (|m|, |n|) the operator can touch."""
        if self.kind == "rect":
            return self.order, self.order_n  # type: ignore[return-value]
        if self.kind == "quad":
            return self.order, self.order
        if self.kind == "marcinkiewicz":
            return self.order, self.order
        return self.order - 1, self.order - 1


def _radial_profile(op: GridOp) -> np.ndarray:
    """Weight per diagonal index j* = max(|m|, |n|) for the radial op kinds."""
    from .means import harmonic_prefix  # deferred: means depends on this module

    n = op.order
    if op.kind == "quad":
        return np.ones(n + 1)
    if op.kind == "marcinkiewicz":
        # S_{j,j} contains frequency j* iff j >= max(j*, 1); arithmetic mean of S_1..S_n.
        j = np.arange(n + 1)
        return (n - np.maximum(j, 1) + 1) / n
    H = harmonic_prefix(n)
    if op.kind == "norlund-log":
        # weight sum_{i=j*}^{n-1} 1/(n-i) / H_n = H_{n-j*} / H_n
        j = np.arange(n)
        return H[n - j] / H[n]
    # riesz-log: (sum_{k=max(j*,1)}^{n-1} 1/k) / H_{n-1}
    j = np.arange(n)
    return (H[n - 1] - H[np.maximum(j, 1) - 1]) / H[n - 1]


def evaluate_grid(c: SpectralCoeffs, op: GridOp, grid_size: int | None = None) -> GridFunction2D:
    """
    Evaluate the partial sum or mean specified by ``op`` on the full grid.

    Deterministic (fixed-order separable reductions).  ``grid_size`` defaults
    to the coefficients' source grid.
    """
    G = grid_size if grid_size is not None else c.source_grid
    if G is None:
        raise ValueError("no grid size available; pass grid_size explicitly")
    reach_m, reach_n = op.reach()
    if reach_m > c.bandwidth_m or reach_n > c.bandwidth_n:
        raise BandwidthError(
            f"op reaches ({reach_m}, {reach_n}) beyond bandwidth ({c.bandwidth_m}, {c.bandwidth_n})"
        )

    sub = c.coeffs[
        c.bandwidth_m - reach_m : c.bandwidth_m + reach_m + 1,
        c.bandwidth_n - reach_n : c.bandwidth_n + reach_n + 1,
    ]
    if op.kind == "rect":
        weighted = sub
    else:
        profile = _radial_profile(op)
        m_abs = np.abs(np.arange(-reach_m, reach_m + 1))
        j_star = np.maximum(m_abs[:, None], m_abs[None, :])
        weighted = sub * profile[j_star]

    pts = axis_points(G)
    ex = np.exp(1j * np.outer(pts, np.arange(-reach_m, reach_m + 1)))
    ey = np.exp(1j * np.outer(np.arange(-reach_n, reach_n + 1), pts))
    values = ex @ weighted @ ey
    is_real = bool(np.max(np.abs(values.imag)) <= IMAG_TOL)
    return GridFunction2D(values=values, is_real=is_real)
