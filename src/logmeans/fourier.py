"""Fourier coefficients, Dirichlet kernels, and whole-grid means of quadratical partial sums on the torus."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction2D, read_only_view, validate_grid_size


class BandwidthError(ValueError):
    """Requested frequencies exceed the available bandwidth or the Nyquist limit."""


def finite_points(t) -> np.ndarray:
    """``t`` as a float array; refuses NaN and infinite points, which have no angle."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("angle reduction needs finite points")
    return t


def reduce_angle(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Reduce ``t`` modulo 2*pi to [-pi, pi]: the exact remainder nearest zero,
    as ``math.remainder(t, 2*pi)`` (a tie at +-pi may keep either sign), so
    any |t| <= pi passes through bit-unchanged.  Returns ``(r, half_sin,
    zero)`` with half_sin = sin(r/2) and ``zero`` marking the points where it
    vanishes, i.e. t = 0 mod 2*pi, where the ratio kernels take their limits.
    Refuses NaN and infinite input, which has no remainder.
    """
    t = finite_points(t)
    r = np.fmod(t, 2.0 * math.pi)  # exact
    r = np.where(np.abs(r) > math.pi, r - np.copysign(2.0 * math.pi, r), r)  # exact (Sterbenz)
    half_sin = np.sin(0.5 * r)
    return r, half_sin, half_sin == 0.0


def angle_table(u, start: int, count: int, offset: float = 0.0, cosine: bool = False) -> np.ndarray:
    """
    sin((k + offset) u), or cos((k + offset) u) when ``cosine``, for the
    orders k = start .. start + count - 1 at every point of the 1-D ``u``,
    shape (len(u), count).

    Two-level angle addition, as for FFT twiddle tables: with B =
    ceil(sqrt(count)) and k = start + B q + j (0 <= j < B), the angle is
    a + b with a = (start + offset + B q) u and b = j u, and
    sin(a + b) = sin a cos b + cos a sin b (cos(a + b) = cos a cos b - sin a sin b).
    Each point takes 2 (Q + B) libm calls, Q = ceil(count / B), and one
    (Q, 2) @ (2, B) product, in place of count calls.  An entry depends only
    on (k, u, count), never on the other points.  Against long double at
    count = 1024 .. 65536 its error stays below 0.50 eps (1 + |(k + offset) u|)
    for the sine and 0.95 eps (1 + |(k + offset) u|) for the cosine, where
    np.sin and np.cos of the rounded angle reach 0.50; the tests hold it to
    2 eps (1 + |(k + offset) u|).  A one-order range (B = Q = 1) is
    np.sin((start + offset) u), or np.cos, bit for bit.
    """
    u = np.asarray(u, dtype=float)
    if count < 1:
        raise ValueError(f"an angle table needs at least one order, got {count}")
    step = math.isqrt(count - 1) + 1
    blocks = -(-count // step)
    a = np.multiply.outer(u, start + offset + step * np.arange(blocks, dtype=float))
    b = np.multiply.outer(u, np.arange(step, dtype=float))
    left = np.empty(a.shape + (2,))  # per point, rows (sin a, cos a) or (cos a, -sin a)
    if cosine:
        np.cos(a, out=left[..., 0])
        np.negative(np.sin(a), out=left[..., 1])
    else:
        np.sin(a, out=left[..., 0])
        np.cos(a, out=left[..., 1])
    right = np.empty((len(u), 2, step))  # per point, columns (cos b, sin b)
    np.cos(b, out=right[:, 0])
    np.sin(b, out=right[:, 1])
    table = np.empty((len(u), blocks * step))
    np.matmul(left, right, out=table.reshape(len(u), blocks, step))
    return table[:, :count]


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
    """
    D_k(t) for every k in ``orders``, a range of consecutive ascending orders,
    and every point in ``t``, shape (len(orders), len(t)).  It is the
    transpose of one (points, orders) angle_table, divided and given its
    removable limits in place.
    """
    orders = np.asarray(orders)
    if orders.ndim != 1 or orders.size == 0 or np.any(np.diff(orders) != 1):
        raise ValueError("kernel orders must be a nonempty range of consecutive ascending orders")
    r, half_sin, zero = reduce_angle(np.atleast_1d(t))
    table = angle_table(r, orders[0], len(orders), 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        table /= 2.0 * half_sin[:, None]
    table[zero] = orders + 0.5
    return table.T


def validate_bandwidth(bandwidth: int, grid_size: int) -> None:
    """Refuse a negative bandwidth B, and any 2B >= G: the rectangle rule is spectrally exact only below Nyquist."""
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    if 2 * bandwidth >= grid_size:
        raise BandwidthError(f"bandwidth {bandwidth} at or above Nyquist for grid {grid_size}")


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """
    Fourier coefficients c(m, n) for |m|, |n| <= B, the bandwidth, of a real
    grid of G = ``source_grid`` points an axis, on which they are synthesised.

    ``coeffs[B + m, B + n]`` stores c(m, n).  The coefficients of a real grid
    are Hermitian, c(-m, -n) = conj(c(m, n)); any others are refused, as are
    a G that is not a power of two (>= 4) and any 2B >= G.  ``coeffs`` is a
    read-only view.
    """

    coeffs: np.ndarray
    bandwidth: int
    source_grid: int

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.bandwidth + 1,) * 2
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array shape {coeffs.shape} != {expected}")
        validate_grid_size(self.source_grid)
        validate_bandwidth(self.bandwidth, self.source_grid)
        rows = self.bandwidth + 1  # rows m <= 0 against their mirrors m >= 0 cover every pair
        if not np.array_equal(coeffs[:rows], np.conj(coeffs[::-1, ::-1][:rows])):
            raise ValueError("coefficients are not exactly Hermitian: c(-m, -n) != conj(c(m, n))")
        object.__setattr__(self, "coeffs", read_only_view(coeffs))


def fourier_coeffs(f: GridFunction2D, bandwidth: int) -> SpectralCoeffs:
    """
    Coefficients c(m, n) = (1/4 pi^2) Int f(x, y) e^{-imx} e^{-iny} dx dy,
    |m|, |n| <= B = ``bandwidth``, by rectangle-rule quadrature on the sample
    grid, taken by one ``rfft2``: the half spectrum n >= 0 comes from the
    transform and the rest by c(m, n) = conj(c(-m, -n)), so the coefficients
    are exactly Hermitian.

    The rule is spectrally exact below Nyquist, so the bandwidth must stay
    under half the grid: 2B < G.
    """
    B, G = bandwidth, f.grid_size
    validate_bandwidth(B, G)
    m = np.arange(-B, B + 1)
    sign = (-1.0) ** m
    # (1/G^2) sum_jk f(x_j, y_k) e^{-i m x_j} e^{-i n y_k} is one FFT: the grid
    # origin x_0 = -pi puts the phase (-1)^(m + n) on bin (m mod G, n mod G).
    spectrum = np.fft.rfft2(f.values, norm="forward")  # bins n = 0..G/2 only
    coeffs = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
    np.multiply(spectrum[np.ix_(m % G, m[B:])], np.outer(sign, sign[B:]), out=coeffs[:, B:])
    # c(m, n) = conj(c(-m, -n)): the real c(0, 0), then c(m, 0) for m < 0, then every n < 0
    coeffs[B, B] = coeffs[B, B].real
    coeffs[:B, B] = np.conj(coeffs[:B:-1, B])
    np.conj(coeffs[::-1, :B:-1], out=coeffs[:, :B])
    return SpectralCoeffs(coeffs=coeffs, bandwidth=B, source_grid=G)


#: Unnormalised weight w_j of S_{j,j}, j = 0..reach, per mean kind and order n;
#: the mean is sum_j w_j S_{j,j} / sum_j w_j, so every mean fixes constants.
_MEAN_WEIGHTS = {
    "quad": lambda n: (np.arange(n + 1) == n).astype(float),
    # logarithmic (Norlund) mean: S_{i,i} / (n - i), i = 0..n-1
    "norlund-log": lambda n: 1.0 / (n - np.arange(n)),
    # arithmetic mean of S_{1,1}..S_{n,n}
    "marcinkiewicz": lambda n: np.minimum(np.arange(n + 1), 1.0),
    # Riesz-type logarithmic mean: S_{k,k} / k, k = 1..n-1
    "riesz-log": lambda n: np.concatenate(([0.0], 1.0 / np.arange(1, n))),
}


@dataclass(frozen=True)
class GridOp:
    """
    Specifier for whole-grid evaluation: a mean of the quadratical partial
    sums S_{j,j}, j = 0..reach, given by its weights (``weights``).

    kind is ``quad`` (S_{n,n} itself) or one of the mean kinds
    ``norlund-log`` / ``marcinkiewicz`` / ``riesz-log``, each of order n.
    """

    kind: str
    order: int

    def __post_init__(self) -> None:
        if self.kind not in _MEAN_WEIGHTS:
            raise ValueError(f"unknown grid op kind {self.kind!r}")
        if not np.any(self.weights()):
            raise ValueError(f"{self.kind} op of order {self.order} has no nonzero weight")

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

    def weights(self) -> np.ndarray:
        """Unnormalised weight of S_{j,j} for j = 0..reach."""
        return _MEAN_WEIGHTS[self.kind](self.order)

    def reach(self) -> int:
        """Largest |m| and |n| the operator can touch."""
        return len(self.weights()) - 1


def evaluate_grid(c: SpectralCoeffs, op: GridOp) -> GridFunction2D:
    """
    Evaluate the quadratical partial sum or mean specified by ``op`` on the
    coefficients' source grid, as a float64 grid.

    The op's weights are applied in coefficient space; every op's weights are
    symmetric in +-m and +-n, so the Hermitian coefficients give a real grid,
    which the columns n = 0..reach determine.  Since 2 reach < G no two
    frequencies share an FFT bin, so the synthesis places those columns at
    rows m mod G, runs one ``ifft`` along m and one ``irfft`` along n, which
    zero-pads the bins past reach.  Deterministic.
    """
    G, reach, B = c.source_grid, op.reach(), c.bandwidth
    if reach > B:
        raise BandwidthError(f"op reaches {reach} beyond bandwidth {B}")

    # frequency j* = max(|m|, |n|) lies in S_{j,j} for every j >= j*
    tail = np.cumsum(op.weights()[::-1])[::-1]
    profile = tail / tail[0]
    m = np.arange(-reach, reach + 1)
    n = m[reach:]
    # the grid origin x_0 = -pi puts the phase (-1)^(m + n) on frequency (m, n)
    sign = (-1.0) ** m
    weights = profile[np.maximum(np.abs(m)[:, None], n[None, :])] * np.outer(sign, sign[reach:])

    # sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j}, unscaled inverse FFTs
    spectrum = np.zeros((G, reach + 1), dtype=complex)
    spectrum[m % G] = c.coeffs[B - reach : B + reach + 1, B : B + reach + 1] * weights
    cols = np.fft.ifft(spectrum, axis=0, norm="forward")
    return GridFunction2D(values=np.fft.irfft(cols, n=G, axis=1, norm="forward"))
