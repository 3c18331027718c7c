"""
The Norlund cosine kernel C_N(u) = sum_{k<N} cos((k + 1/2) u) / (N - k), and S_N(u) = sum_{k<=N} e^{iku} / k,
in O(1) an entry: a logarithm in closed form less a tail summed by parts far from u = 0 mod 2 pi and by
Euler-Maclaurin around the exponential integral E1 near it (Abramowitz & Stegun 5.1.11 and 5.1.22).  Both
sums take their near band from the one _near_kernel; C_N's far band is in real arithmetic, S_N's one pass
over its column of orders.  kernels' lemma survey takes x y F_N through C_N, and its closed form takes T and
the sine sums from S_N.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import finite_points, integer_orders


#: C_N's near band: the entries with N |1 - e^{-iu}| below this sum their tail by Euler-Maclaurin
#: around the exponential integral E1; the far entries sum it by parts in TAIL_TERMS terms, whose
#: remainder bound 2 |c_24| / |1 - e^{-iu}|^25 is then below 1.1e-16.
NEAR_BAND = 40.0
TAIL_TERMS = 24
#: The Bernoulli numbers B_2, B_4, ..., B_14 as (numerator, denominator): the near band's Euler-Maclaurin
#: terms B_{2k}/(2k)! I_{2k-1}.  At N >= MIN_COSINE_ORDER the seventh is at most 5.7e-16 and the eighth
#: would be at most 5.8e-18, so seven is the fewest that reach rounding level.
BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))
#: E1(x) on the imaginary axis: its power series below this |x| (E1_SERIES_TERMS terms, last at most
#: 1.4e-16), its continued fraction of depth E1_FRACTION_DEPTH above (truncation at most 5.7e-17).
E1_SERIES_RADIUS = 4.0
E1_SERIES_TERMS = 30
E1_FRACTION_DEPTH = 48
#: Smallest order cosine_kernel evaluates: its expansions are in powers of 1/(N + 1).
MIN_COSINE_ORDER = 64


def cosine_kernel(N: int, distances, offsets) -> tuple[np.ndarray, float]:
    """
    The Norlund cosine kernel C_N(u) = sum_{k<N} cos((k + 1/2) u) / (N - k) at u = 2 pi d / rho + c,
    rho = N + 1/2, for the integer window distances d and the offsets c broadcast together, in O(1) an
    entry; and the largest summation-by-parts remainder bound over its far entries (0 when none).  Since
    D_k(x) D_k(y) = [cos((k + 1/2)(x - y)) - cos((k + 1/2)(x + y))] / (8 sin(x/2) sin(y/2)),

        H_N F_N(x, y) = [C_N(x - y) - C_N(x + y)] / (8 sin(x/2) sin(y/2)).

    With j = N - k and z = e^{-iu}, C_N(u) = Re[e^{i rho u} sum_{j=1}^{N} z^j / j], and e^{i rho u} =
    e^{i rho c} exactly, as d is an integer: the phase comes from the offset alone, so rho u is never
    formed.  The sum is -log(1 - z) = -log(2 sin(v/2)) - i (pi - v)/2 (v = u mod 2 pi) less the tail
    e^{-iu/2} sum_{m>=0} z^m / (a + m), a = N + 1, which _far_tail sums by parts and _near_kernel takes by
    Euler-Maclaurin.  At u = 0, where C_N is H_N, the near form is H_N's asymptotic series.  Every entry is a
    few dozen array operations, so its error is a few eps (1 + |C_N|), plus about eps rho |c| log N from
    the one rounded phase rho c.  Refuses N < MIN_COSINE_ORDER, non-integer distances and non-finite
    offsets.
    """
    N = integer_orders(N, "kernel orders", scalar=True)
    if N < MIN_COSINE_ORDER:
        raise ValueError(f"cosine_kernel needs N >= {MIN_COSINE_ORDER}, got {N}")
    d, c = np.broadcast_arrays(integer_orders(distances, "window distances"), finite_points(offsets))
    rho = N + 0.5
    u = 2.0 * math.pi / rho * d + c
    # u and u/2 reduced mod 2 pi from the integers: d - k rho is an exact half-integer, so r and half
    # are rounded like small arguments, however many turns u makes
    r = 2.0 * math.pi / rho * (d - rho * np.rint(u / (2.0 * math.pi))) + c
    half = math.pi / rho * (d - 2.0 * rho * np.rint(u / (4.0 * math.pi))) + 0.5 * c
    phase = rho * c
    far = 2.0 * N * np.abs(np.sin(half)) >= NEAR_BAND
    out = np.empty(u.shape)
    tail, bounds = _far_tail(N, half[far])
    log_gap, arg = _log_parts(r[far])
    out[far] = np.sin(phase[far]) * arg - np.cos(phase[far]) * log_gap - tail.real
    near = ~far
    out[near] = _near_kernel(N + 1.0, r[near], np.exp(-1j * half[near]), np.exp(1j * phase[near])).real
    return out, float(np.max(bounds, initial=0.0))


def log_partial_sums(orders: list[int], r: np.ndarray) -> np.ndarray:
    """
    S_N(r) = sum_{k=1}^{N} e^{ikr} / k = -log(1 - z) - z^{N+1} sum_{m>=0} z^m / (N + 1 + m), z = e^{ir},
    for every order N >= 1 of the ascending ``orders`` and every point r reduced to [-pi, pi], shape
    (orders, points), in O(1) an entry: cosine_kernel's sum at u = -r.  Its far tail is e^{i(N + 1/2) r}
    times _far_tail's, O(1/(N |1 - z|)), so the phase's rounding eps (N + 1/2) |r| stays at rounding
    level; its near band (r = 0 included) is _near_kernel at w = -r, U = z^{N+1} and A = 1, one entry an
    (order, point), so S_N(0) and C_N(0) = H_N are one evaluation.
    Orders below MIN_COSINE_ORDER are the partial sums of one running sum of z^k / k, z^k = z^{k-1} z.
    Each band takes every order's entries in one pass, and an entry depends only on (N, r).
    """
    out = np.empty((len(orders), len(r)), dtype=complex)
    small = [N for N in orders if N < MIN_COSINE_ORDER]
    z, power, total = np.exp(1j * r), 1.0, 0.0
    for k in range(1, max(small, default=0) + 1):
        total = total + (power := power * z) / k
        if k in small:
            out[small.index(k)] = total
    large = np.array(orders[len(small):], dtype=float)[:, None]
    far = 2.0 * large * np.abs(np.sin(0.5 * r)) >= NEAR_BAND
    top = np.any(far, axis=0)  # the largest order's far points, which hold every order's
    log_gap, arg = _log_parts(r[top])
    tail = np.exp(1j * (large + 0.5) * r[top]) * _far_tail(large, -0.5 * r[top])[0]
    out[len(small):, top] = 1j * arg - log_gap - tail  # -log(1 - z) less the tail
    orders_at, points = np.nonzero(~far)
    a, rn = large[orders_at, 0] + 1.0, r[points]
    out[len(small):][~far] = _near_kernel(a, -rn, np.exp(1j * a * rn), 1.0)  # U = z^{N+1}
    return out


def _log_parts(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(2 |sin(r/2)|) and (copysign(pi, r) - r)/2 at r != 0 in [-pi, pi]: -log(1 - e^{ir}) = -first + i second."""
    return np.log(2.0 * np.abs(np.sin(0.5 * r))), np.copysign(0.5 * math.pi, r) - 0.5 * r


def _far_tail(N, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    The tail e^{-iu/2} sum_{m>=0} z^m / (N + 1 + m) at u/2 = ``half`` (mod 2 pi), N an order or a column
    of orders, summed by parts in TAIL_TERMS terms: sum_{p<P} c_p w^p / (2i sin(u/2)), w = z / (1 - z) =
    -1/2 - (i/2) cot(u/2), with c_0 = 1/(N + 1) and c_{p+1} = -c_p (p + 1)/(N + p + 2), the p-th
    difference of 1/(N + 1 + m); and each entry's remainder bound 2 |c_P| / |1 - z|^{P+1}, |1 - z| = 2 |sin(u/2)|.
    """
    coeffs = [1.0 / (N + 1.0)]
    for p in range(TAIL_TERMS):
        coeffs.append(-coeffs[-1] * (p + 1) / (N + p + 2.0))
    sin_half = np.sin(half)
    w = -0.5 - 0.5j * np.cos(half) / sin_half
    total = np.full(np.broadcast_shapes(np.shape(N), half.shape), coeffs[TAIL_TERMS - 1], dtype=complex)
    for coeff in coeffs[TAIL_TERMS - 2 :: -1]:
        total *= w
        total += coeff
    bounds = 2.0 * np.abs(coeffs[TAIL_TERMS]) / np.abs(2.0 * sin_half) ** (TAIL_TERMS + 1)
    return total / (2j * sin_half), bounds


def _near_kernel(a, w: np.ndarray, unit: np.ndarray, scale) -> np.ndarray:
    """
    The near band of both sums: A (-log(1 - e^{-iw})) - U [e^x E1(x) + _euler_maclaurin(a, w)], x = i a w,
    at the 1-D points w, with a = N + 1 and the factors U = ``unit`` and A = ``scale`` each a scalar or
    one a point.  cosine_kernel takes C_N as its real part at w = r, U = e^{-iu/2} and A = e^{i rho c};
    log_partial_sums takes S_N at w = -r, U = z^{N+1} and A = 1.  Euler-Maclaurin gives the tail
    sum_{m>=0} e^{-imw} / (a + m) as e^x E1(x) plus _euler_maclaurin's part.  Where |x| >= E1_SERIES_RADIUS,
    e^x E1(x) is its continued fraction (_e1_fraction).  Below, E1(x) = -gamma - log x - sum_{k>=1} (-x)^k
    / (k k!) (A&S 5.1.11), and U e^x = A in both uses, so the two logarithms join: the value is
    A (log a + gamma + log(w / (2 sin(w/2))) + i w/2 + sum_{k>=1} (-x)^k / (k k!)) less U times the
    Euler-Maclaurin part, with no cancellation and no limit to take at w = 0, where it is H_N.
    """
    a, scale = np.broadcast_to(a, w.shape), np.broadcast_to(scale, w.shape)
    x = 1j * a * w
    out = -unit * _euler_maclaurin(a, w)
    series = np.abs(x) < E1_SERIES_RADIUS
    ws = w[series]
    inner = np.log(a[series]) + np.euler_gamma - np.log(np.sinc(ws / (2.0 * math.pi))) + 0.5j * ws
    out[series] += scale[series] * (inner + _e1_series(-x[series]))
    fraction = ~series
    log_gap, arg = _log_parts(w[fraction])  # -log(1 - e^{-iw}) = -log_gap - i arg
    out[fraction] += scale[fraction] * (-log_gap - 1j * arg) - unit[fraction] / _e1_fraction(x[fraction])
    return out


def _e1_series(y: np.ndarray) -> np.ndarray:
    """sum_{k>=1} y^k / (k k!) in E1_SERIES_TERMS terms, by Horner: E1(x) = -gamma - log x - this at y = -x."""
    powers = np.zeros(len(y), dtype=complex)
    for k in range(E1_SERIES_TERMS, 0, -1):
        powers = (powers + 1.0 / (k * math.factorial(k))) * y
    return powers


def _e1_fraction(x: np.ndarray) -> np.ndarray:
    """f = x + 1 - 1/(x + 3 - 4/(x + 5 - ...)) to depth E1_FRACTION_DEPTH: e^x E1(x) = 1/f (A&S 5.1.22)."""
    f = x + (2.0 * E1_FRACTION_DEPTH + 1.0)
    for k in range(E1_FRACTION_DEPTH, 0, -1):
        f = x + (2.0 * k - 1.0) - k * k / f
    return f


def _euler_maclaurin(a: float, r: np.ndarray) -> np.ndarray:
    """
    The near tail's Euler-Maclaurin part sum_{m>=0} f(m) - int_0^inf f, f(t) = e^{-irt} / (a + t):
    f(0)/2 - sum_k B_{2k}/(2k)! f^{(2k-1)}(0) = 1/(2a) + sum_k B_{2k}/(2k)! I_{2k-1} over the BERNOULLI
    terms, where I_m = (-1)^m f^{(m)}(0) follows from (a + t) f = e^{-irt}: I_0 = 1/a and
    I_m = (ir)^m / a + (m / a) I_{m-1}.
    """
    ir = 1j * r
    total, power, moment = np.full(r.shape, 0.5 / a, dtype=complex), 1.0, 1.0 / a
    for m in range(1, 2 * len(BERNOULLI)):
        power = power * ir
        moment = (power + m * moment) / a
        if m % 2:
            p, q = BERNOULLI[m // 2]
            total += p / (q * math.factorial(m + 1)) * moment
    return total
