"""Fourier coefficients, Dirichlet kernels, and whole-grid means of quadratical partial sums on the torus."""

from __future__ import annotations

import math
import operator
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


def angle_table(u, origin: float, count: int, cosine: bool = False) -> np.ndarray:
    """
    sin((origin + k) u), or cos((origin + k) u) when ``cosine``, for k = 0 ..
    count - 1 at every point of the 1-D ``u``, shape (len(u), count): one
    origin, the first order, which is a half-integer for Dirichlet tables.

    Two-level angle addition, as for FFT twiddle tables: with B =
    ceil(sqrt(count)) and k = B q + j (0 <= j < B), the angle is a + b with
    a = (origin + B q) u and b = j u, and
    sin(a + b) = sin a cos b + cos a sin b (cos(a + b) = cos a cos b - sin a sin b).
    Each point takes 2 (Q + B) libm calls, Q = ceil(count / B), and one
    (Q, 2) @ (2, B) product, in place of count calls.  An entry depends only
    on (origin + k, u, count), never on the other points.  Against long double at
    count = 1024 .. 65536 its error stays below 0.50 eps (1 + |(origin + k) u|)
    for the sine and 0.95 eps (1 + |(origin + k) u|) for the cosine, where
    np.sin and np.cos of the rounded angle reach 0.50; the tests hold it to
    2 eps (1 + |(origin + k) u|).  A one-order table (B = Q = 1) is
    np.sin(origin u), or np.cos, bit for bit.
    """
    return _angle_tables(u, origin, count, (cosine,))[0]


def angle_pair(u, origin: float, count: int, step: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """
    The sine and the cosine angle_table of the same orders and points, each
    equal to its own angle_table call bit for bit; with a ``step``, of the
    orders origin + step k instead, k = 0 .. count - 1.  Both tables are
    products of the same four libm arrays sin a, cos a, cos b and sin b, so
    the pair costs the libm calls of one table.
    """
    sin, cos = _angle_tables(u, origin, count, (False, True), step)
    return sin, cos


def _angle_tables(u, origin: float, count: int, cosines: tuple[bool, ...], step: int = 1) -> np.ndarray:
    """
    angle_table's two-level scheme at the orders origin + step k: one (len(u), count) table a flag in
    ``cosines``, from one set of libm calls.
    """
    u = np.asarray(u, dtype=float)
    if count < 1:
        raise ValueError(f"an angle table needs at least one order, got {count}")
    width = math.isqrt(count - 1) + 1
    blocks = -(-count // width)
    a = np.multiply.outer(u, origin + step * width * np.arange(blocks, dtype=float))
    b = np.multiply.outer(u, step * np.arange(width, dtype=float))
    sin_cos_a = np.empty(a.shape + (2,))  # per point, rows (sin a, cos a) of a sine table
    np.sin(a, out=sin_cos_a[..., 0])
    np.cos(a, out=sin_cos_a[..., 1])
    right = np.empty((len(u), 2, width))  # per point, columns (cos b, sin b)
    np.cos(b, out=right[:, 0])
    np.sin(b, out=right[:, 1])
    # one allocation: the two tables of a pair allocated apart took 2.7x as long at 32 x 1024
    tables = np.empty((len(cosines), len(u), blocks * width))
    for cosine, table in zip(cosines, tables):
        left = sin_cos_a[..., ::-1] * (1.0, -1.0) if cosine else sin_cos_a  # rows (cos a, -sin a)
        np.matmul(left, right, out=table.reshape(len(u), blocks, width))
    return tables[..., :count]


def integer_orders(orders, what: str, scalar: bool = False):
    """
    The one integer-order rule: ``orders`` as a Python int when 0-d, else (unless ``scalar``) as
    an integer array of its shape, an empty one included.  Anything else is refused with
    ValueError "<what> must be integers": a float is never truncated, not even an integral 4.0,
    nor is a sequence holding one.  NumPy integers pass.
    """
    if np.ndim(orders) == 0:
        try:
            return operator.index(orders)
        except TypeError:
            pass
    elif not scalar and ((array := np.asarray(orders)).dtype.kind in "iu" or array.size == 0):
        return array.astype(int, copy=False)
    raise ValueError(f"{what} must be integers, got {orders!r}")


def dirichlet_kernel(k, t):
    """
    Dirichlet kernel D_k(t) = sin((k + 1/2) t) / (2 sin(t/2)).

    ``k`` is an integer order, or an integer array of orders that broadcasts
    against the points ``t`` (scalar or array); at t = 0 (mod 2*pi) returns
    the limit value k + 1/2.  Total on the real line, 2*pi-periodic.  A float
    for a 0-d result.  The one result array is built, divided and given its
    limits in place.
    """
    k = integer_orders(k, "kernel orders")
    if np.any(k < 0):
        raise ValueError(f"kernel order must be >= 0, got {np.min(k)}")
    r, half_sin, zero = reduce_angle(t)
    out = np.multiply(k + 0.5, r, out=np.empty(np.broadcast(k, r).shape))
    np.sin(out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= 2.0 * half_sin
    np.copyto(out, k + 0.5, where=zero)
    return float(out) if out.ndim == 0 else out


def dirichlet_matrix(orders: np.ndarray, t) -> np.ndarray:
    """
    D_k(t) for every k in the 1-D ``orders`` and every point in ``t``, shape
    (len(orders), len(t)): dirichlet_kernel over the column of orders.
    """
    orders = np.asarray(integer_orders(orders, "kernel orders"))
    if orders.ndim != 1:
        raise ValueError(f"kernel orders must be a 1-D array, got shape {orders.shape}")
    return dirichlet_kernel(orders[:, None], np.atleast_1d(t))


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
    grid, taken by the 1-D transforms of one ``rfft2``, bit for bit: one
    ``rfft`` along n, of which only the columns n = 0..B are kept, then one
    ``fft`` along m over those columns.  The rest of the
    coefficients follow by c(m, n) = conj(c(-m, -n)), so they are exactly
    Hermitian.

    The rule is spectrally exact below Nyquist, so the bandwidth must stay
    under half the grid: 2B < G.
    """
    B, G = bandwidth, f.grid_size
    validate_bandwidth(B, G)
    m = np.arange(-B, B + 1)
    sign = (-1.0) ** m
    # (1/G^2) sum_jk f(x_j, y_k) e^{-i m x_j} e^{-i n y_k} is one FFT: the grid
    # origin x_0 = -pi puts the phase (-1)^(m + n) on bin (m mod G, n mod G).
    cols = np.fft.fft(np.fft.rfft(f.values, axis=1, norm="forward")[:, : B + 1], axis=0, norm="forward")
    coeffs = np.empty((2 * B + 1, 2 * B + 1), dtype=complex)
    np.multiply(cols[m % G], np.outer(sign, sign[B:]), out=coeffs[:, B:])
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

#: The least order of each kind whose weights have a nonzero entry: every order from it on has one.
_LEAST_ORDER = {"quad": 0, "norlund-log": 1, "marcinkiewicz": 1, "riesz-log": 2}


@dataclass(frozen=True)
class GridOp:
    """
    Specifier for whole-grid evaluation: a mean of the quadratical partial
    sums S_{j,j}, j = 0..reach, given by its weights (``weights``).

    kind is ``quad`` (S_{n,n} itself) or one of the mean kinds
    ``norlund-log`` / ``marcinkiewicz`` / ``riesz-log``, each of integer order n.
    """

    kind: str
    order: int

    def __post_init__(self) -> None:
        if self.kind not in _LEAST_ORDER:
            raise ValueError(f"unknown grid op kind {self.kind!r}")
        object.__setattr__(self, "order", integer_orders(self.order, "grid op orders", scalar=True))
        if self.order < _LEAST_ORDER[self.kind]:
            raise ValueError(f"{self.kind} op of order {self.order} has no nonzero weight")

    def weights(self) -> np.ndarray:
        """Unnormalised weight of S_{j,j} for j = 0..reach."""
        return _MEAN_WEIGHTS[self.kind](self.order)

    def reach(self) -> int:
        """Largest |m| and |n| the operator can touch."""
        return len(self.weights()) - 1

    def profile(self) -> np.ndarray:
        """
        The op's factor on frequency j* = max(|m|, |n|), j* = 0..reach:
        frequency j* lies in S_{j,j} for every j >= j*, so its factor is the
        tail sum of the weights from j* on, normalised to 1 at j* = 0.
        """
        tail = np.cumsum(self.weights()[::-1])[::-1]
        return tail / tail[0]


def evaluate_grid(c: SpectralCoeffs, op: GridOp) -> GridFunction2D:
    """
    Evaluate the quadratical partial sum or mean specified by ``op`` on the
    coefficients' source grid, as a float64 grid.  Deterministic.

    The op's weights are applied in coefficient space; every op's weights are
    symmetric in +-m and +-n, so the Hermitian coefficients give a real grid,
    which the columns n = 0..reach determine.  Since 2 reach < G no two
    frequencies share an FFT bin, so the synthesis places those columns at
    rows m mod G, runs one in-place ``ifft`` along m over them and one
    ``irfft`` along n, which zero-pads the bins past reach.
    """
    G, reach, B = c.source_grid, op.reach(), c.bandwidth
    if reach > B:
        raise BandwidthError(f"op reaches {reach} beyond bandwidth {B}")

    m = np.arange(-reach, reach + 1)
    n = m[reach:]
    # the grid origin x_0 = -pi puts the phase (-1)^(m + n) on frequency (m, n)
    sign = (-1.0) ** m
    weights = op.profile()[np.maximum(np.abs(m)[:, None], n[None, :])] * np.outer(sign, sign[reach:])

    # sum_{m,n} w(m, n) e^{i m x_i} e^{i n y_j}, unscaled inverse FFTs
    cols = np.zeros((G, reach + 1), dtype=complex)
    cols[m % G] = c.coeffs[B - reach : B + reach + 1, B : B + reach + 1] * weights
    np.fft.ifft(cols, axis=0, norm="forward", out=cols)
    return GridFunction2D(values=np.fft.irfft(cols, n=G, axis=1, norm="forward"))


def axis_l1_distance(samples, ops) -> list[float]:
    """
    For every GridOp ``op`` of the sequence ``ops``, the rectangle-rule
    Int |t - f| over the G x G grid, for a function f of x alone given by its
    real samples at ``axis_points(G)`` and t its partial sum or mean ``op``:
    ``l1_distance(evaluate_grid(fourier_coeffs(F, B), op), F)`` on the grid F
    of f, for any B >= reach, to rounding.  One distance an op, in a list,
    all from one ``rfft`` of the samples.

    Every c(m, n) of F with n != 0 vanishes, so S_{j,j} f = S_j f and t is
    one ``rfft`` of the samples, ``op.profile()`` on bins 0..reach and one
    ``irfft`` of G points; the grid origin -pi puts the phase (-1)^m on bin
    m in the analysis and again in the synthesis, so it cancels.  Every
    column of t - F is the same, so the grid sum is G h^2 sum_i |t_i - f_i|
    = 2 pi h sum_i |t_i - f_i|, h = 2 pi / G.  G must be a power of two
    (>= 4) and 2 reach < G for every op.
    """
    samples = np.asarray(samples)
    if np.iscomplexobj(samples) or samples.ndim != 1:
        raise ValueError(f"expected real 1-D axis samples, got shape {samples.shape}, dtype {samples.dtype}")
    G = len(samples)
    validate_grid_size(G)
    for each in ops:
        validate_bandwidth(each.reach(), G)
    spectrum = np.fft.rfft(samples, norm="forward")

    def distance(each: GridOp) -> float:  # one synthesis held at a time
        diff = np.fft.irfft(spectrum[: each.reach() + 1] * each.profile(), n=G, norm="forward")
        diff -= samples
        return 2.0 * math.pi * (2.0 * math.pi / G) * float(np.sum(np.abs(diff, out=diff)))

    return [distance(each) for each in ops]
