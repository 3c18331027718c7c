"""Fourier coefficients, Dirichlet kernels, and whole-grid means of quadratical partial sums on the torus."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction2D, IMAG_TOL, read_only_view, validate_grid_size


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


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """
    Complex Fourier coefficients c(m, n) for |m|, |n| <= B, the bandwidth.

    ``coeffs[B + m, B + n]`` stores c(m, n).  ``source_grid`` remembers the
    grid the coefficients were computed from (used as the default synthesis
    resolution).  ``hermitian`` records whether c(-m, -n) = conj(c(m, n))
    holds exactly, as it does for the coefficients of a real grid; such
    coefficients synthesise real grids.  ``coeffs`` is a read-only view, so
    the flag cannot go stale.
    """

    coeffs: np.ndarray
    bandwidth: int
    source_grid: int | None = None
    hermitian: bool = field(init=False)

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.bandwidth + 1,) * 2
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array shape {coeffs.shape} != {expected}")
        object.__setattr__(self, "coeffs", read_only_view(coeffs))
        rows = self.bandwidth + 1  # rows m <= 0 against their mirrors m >= 0 cover every pair
        object.__setattr__(
            self, "hermitian", np.array_equal(coeffs[:rows], np.conj(coeffs[::-1, ::-1][:rows]))
        )


def fourier_coeffs(f: GridFunction2D, bandwidth: int) -> SpectralCoeffs:
    """
    Coefficients c(m, n) = (1/4 pi^2) Int f(x, y) e^{-imx} e^{-iny} dx dy,
    |m|, |n| <= B = ``bandwidth``, by rectangle-rule quadrature on the sample
    grid, taken by one 2D FFT.  A real grid takes the half spectrum n >= 0 by
    ``rfft2`` and the rest by c(m, n) = conj(c(-m, -n)), so its coefficients
    are exactly Hermitian.

    The rule is spectrally exact below Nyquist, so the bandwidth must stay
    under half the grid: 2B < G.
    """
    B = bandwidth
    if B < 0:
        raise ValueError("bandwidth must be nonnegative")
    G = f.grid_size
    if 2 * B >= G:
        raise BandwidthError(f"bandwidth {B} at or above Nyquist for grid {G}")
    m = np.arange(-B, B + 1)
    sign = (-1.0) ** m
    # (1/G^2) sum_jk f(x_j, y_k) e^{-i m x_j} e^{-i n y_k} is one FFT: the grid
    # origin x_0 = -pi puts the phase (-1)^(m + n) on bin (m mod G, n mod G).
    if f.is_real:
        spectrum = np.fft.rfft2(f.values, norm="forward")  # bins n = 0..G/2 only
        coeffs = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
        np.multiply(spectrum[np.ix_(m % G, m[B:])], np.outer(sign, sign[B:]), out=coeffs[:, B:])
        # c(m, n) = conj(c(-m, -n)): the real c(0, 0), then c(m, 0) for m < 0, then every n < 0
        coeffs[B, B] = coeffs[B, B].real
        coeffs[:B, B] = np.conj(coeffs[:B:-1, B])
        np.conj(coeffs[::-1, :B:-1], out=coeffs[:, :B])
    else:
        spectrum = np.fft.fft2(f.values, norm="forward")
        coeffs = spectrum[np.ix_(m % G, m % G)] * np.outer(sign, sign)
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


def _fold(spectrum: np.ndarray, G: int, axis: int, bins: int | None = None) -> np.ndarray:
    """
    Place the frequencies -r..r along ``axis`` of ``spectrum`` (length 2r + 1)
    in their FFT bins m mod G, summing the frequencies that alias when
    2r + 1 > G, and apply the phase (-1)^m of the grid origin -pi.  G is even,
    so every frequency in a bin shares the bin's parity.  Only the first
    ``bins`` bins (default all G) are kept.
    """
    reach = (spectrum.shape[axis] - 1) // 2
    bins = G if bins is None else bins
    shape = list(spectrum.shape)
    shape[axis] = bins
    out = np.zeros(shape, dtype=complex)
    src, dst = np.moveaxis(spectrum, axis, 0), np.moveaxis(out, axis, 0)
    for start in range(0, 2 * reach + 1, G):  # G consecutive frequencies fill G distinct bins
        block = src[start : start + G]
        first = (start - reach) % G
        split = min(len(block), G - first)  # where the block wraps past bin G - 1
        for lo, piece in ((first, block[:split]), (0, block[split:])):
            piece = piece[: max(bins - lo, 0)]
            dst[lo : lo + len(piece)] += piece
    dst[1::2] *= -1.0
    return out


def evaluate_grid(c: SpectralCoeffs, op: GridOp, grid_size: int | None = None) -> GridFunction2D:
    """
    Evaluate the quadratical partial sum or mean specified by ``op`` on the full grid.

    The op's weights are applied in coefficient space, then one inverse FFT
    per axis synthesises the grid: first along m over the op's coefficient
    columns only, then along n over every row.  Every op's weights are
    symmetric in +-m and +-n, so Hermitian coefficients give a real grid: the
    n transform is then ``irfft`` of bins 0..G/2 and the grid is float64.
    Deterministic.  ``grid_size`` defaults to the coefficients' source grid.
    """
    G = grid_size if grid_size is not None else c.source_grid
    if G is None:
        raise ValueError("no grid size available; pass grid_size explicitly")
    validate_grid_size(G)
    reach, B = op.reach(), c.bandwidth
    if reach > B:
        raise BandwidthError(f"op reaches {reach} beyond bandwidth {B}")

    # frequency j* = max(|m|, |n|) lies in S_{j,j} for every j >= j*
    tail = np.cumsum(op.weights()[::-1])[::-1]
    profile = tail / tail[0]
    j_abs = np.abs(np.arange(-reach, reach + 1))
    window = slice(B - reach, B + reach + 1)
    weighted = c.coeffs[window, window] * profile[np.maximum(j_abs[:, None], j_abs[None, :])]

    # sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j}, unscaled inverse FFTs
    if c.hermitian:
        # bins 0..G/2 along n determine a real grid, and without aliasing only
        # n = 0..reach land there; irfft zero-pads the bins past them
        half = _fold(weighted, G, axis=1, bins=min(G // 2, reach) + 1)
        cols = np.fft.ifft(_fold(half, G, axis=0), axis=0, norm="forward")
        return GridFunction2D(values=np.fft.irfft(cols, n=G, axis=1, norm="forward"), is_real=True)
    cols = np.fft.ifft(_fold(weighted, G, axis=0), axis=0, norm="forward")
    values = np.fft.ifft(_fold(cols, G, axis=1), axis=1, norm="forward")
    is_real = bool(np.max(np.abs(values.imag)) <= IMAG_TOL)
    return GridFunction2D(values=values, is_real=is_real)
