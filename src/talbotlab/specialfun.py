"""Special functions on the round sphere S^d.

Unit-norm zonal harmonics, their Gauss rule, symmetric Jacobi
polynomials and zonal series, together with the large-degree
asymptotic form of the Jacobi polynomials.

One three-term recurrence, x Y_{n-1} = a_n Y_n + a_{n-1} Y_{n-2} with
closed-form a_n, defines the zonal family, and it is walked one row
at a time: ``zonal_harmonic_table`` stacks the rows at scattered
points such as quadrature nodes, ``gauss_rule`` keeps the last two for
Newton's method and a running sum of squares for its weights, and
``jacobi_symmetric`` is the last row, rescaled.  Through the Gegenbauer
cosine expansion each degree block is an even trigonometric polynomial
in the polar angle, returned as a T^1 spectrum
(``zonal_cosine_blocks``), so uniform polar grids are sampled by the
torus transform of ``evolve``.  The conversion of a block is a
Toeplitz-times-Hankel matrix per parity, applied in cache-sized row
chunks by matrix products.

Conventions
-----------
The inner product on S^d is (1/omega_d) * integral over S^d with the
surface measure, so the constant function 1 has norm one; for zonal
integrands ``gaunt.QuadratureRule`` carries this normalization.  A zonal
harmonic ``Y_n`` is normalized to unit norm in this inner product and
positive at the north pole; on S^2 this gives
``Y_n(theta) = sqrt(2n+1) * P_n(cos theta)`` with ``P_n`` the Legendre
polynomial.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectra import TorusSpectrum

__all__ = [
    "SZEGO_WINDOW_C",
    "SZEGO_REMAINDER_C",
    "eigenspace_dimension",
    "jacobi_symmetric",
    "zonal_harmonic_table",
    "gauss_rule",
    "zonal_series_blocks",
    "zonal_cosine_blocks",
    "jacobi_asymptotic",
]

# Asymptotic validity window theta in [c/n, pi - c/n]: the O(1) constant
# in the remainder stabilizes empirically once n*theta is past about 8.
SZEGO_WINDOW_C = 8.0

# Frozen remainder constants C(d) for |P_n(cos t) - asymptotic| <=
# C n^{-3/2}/sin t, fitted over n in {64, ..., 512} on the window above
# and rounded up with margin (measured maxima: 0.76 at d=2, 0.71 at
# d=3; the d=2 constant stays valid through n = 1024).
SZEGO_REMAINDER_C = {2: 2.0, 3: 1.0}


def eigenspace_dimension(n: int, d: int) -> int:
    """Dimension of the space of degree-``n`` spherical harmonics on S^d.

    Parameters
    ----------
    n : int
        Degree, non-negative.
    d : int
        Sphere dimension, at least 2.

    Returns
    -------
    int
        binom(n+d, d) - binom(n+d-2, d), exactly (2n+1 on S^2,
        (n+1)^2 on S^3).
    """
    if n < 0 or d < 2:
        raise ValueError("need n >= 0 and d >= 2")
    return math.comb(n + d, d) - math.comb(n + d - 2, d)


def _recurrence_coeffs(n_max: int, d: int) -> np.ndarray:
    """a_0 = 0, a_1 .. a_{n_max} of x Y_{n-1} = a_n Y_n + a_{n-1} Y_{n-2}.

    a_n^2 = n (n+d-2) / ((2n+d-1)(2n+d-3)) and a_1^2 = 1/(d+1), for
    every d >= 1 (on S^1, Y_0 = 1 and Y_n = sqrt(2) cos(n theta)).
    """
    a = np.zeros(n_max + 1)
    if n_max >= 1:
        a[1] = math.sqrt(1.0 / (d + 1))
    n = np.arange(2, n_max + 1, dtype=float)
    a[2:] = np.sqrt(n * (n + d - 2) / ((2 * n + d - 1) * (2 * n + d - 3)))
    return a


def _zonal_rows(n_max: int, d: int, x: np.ndarray):
    """Y_0 .. Y_{n_max} at x, one row at a time, from the recurrence;
    no argument checks."""
    a = _recurrence_coeffs(n_max, d)
    prev, row = np.zeros_like(x), np.ones_like(x)
    yield row
    for n in range(1, n_max + 1):
        prev, row = row, (x * row - a[n - 1] * prev) / a[n]
        yield row


def _checked_points(n_max: int, d: int, x) -> np.ndarray:
    """``x`` as a float array, after the argument checks of the zonal rows."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if d < 2:
        raise ValueError("sphere dimension must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    return x


def zonal_harmonic_table(n_max: int, d: int, x) -> np.ndarray:
    """All unit-norm zonal harmonics up to degree ``n_max`` at ``x``.

    Parameters
    ----------
    n_max : int
        Largest degree.
    d : int
        Sphere dimension, at least 2.
    x : array_like
        Cosines of the polar angle, in [-1, 1].

    Returns
    -------
    ndarray
        Shape ``(n_max+1, len(x))``; row n holds Y_n(arccos x).
    """
    x = _checked_points(n_max, d, x)
    table = np.empty((n_max + 1, x.size))
    for n, row in enumerate(_zonal_rows(n_max, d, x)):
        table[n] = row
    return table


def _pochhammer_ratios(c: float, top: int) -> np.ndarray:
    """(c)_k / k!, 0 <= k < top, as running products of (c+i)/(1+i)."""
    i = np.arange(top - 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((c + i) / (1.0 + i))))


def jacobi_symmetric(n: int, d: int, x):
    """Symmetric Jacobi polynomial P_n^{((d-2)/2,(d-2)/2)} at ``x``.

    Parameters
    ----------
    n : int
        Degree, non-negative.
    d : int
        Sphere dimension, at least 2.
    x : array_like
        Points in [-1, 1].

    Returns
    -------
    ndarray
        Row n of ``zonal_harmonic_table`` times P_n(1) / sqrt(dim_n),
        with P_n(1) = (alpha + 1)_n / n!; the recurrence keeps only
        its last two rows.
    """
    points = _checked_points(n, d, x)
    alpha = (d - 2) / 2.0
    at_one = _pochhammer_ratios(alpha + 1.0, n + 1)[n]
    scale = at_one / math.sqrt(eigenspace_dimension(n, d))
    return deque(_zonal_rows(n, d, points), maxlen=1)[0] * scale


_NEWTON_CAP = 30


def gauss_rule(count: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the ``count``-point Gauss rule of S^d.

    The measure is (1 - x^2)^{(d-2)/2} dx on [-1, 1] scaled to mass one,
    d >= 1, and polynomials up to degree 2 count - 1 integrate exactly.
    As in Hale and Townsend (SIAM J. Sci. Comput. 35, 2013), Newton's
    method on the recurrence finds the zeros x_k of Y_N, N = count,
    from theta_k = (k + lambda/2 - 1/2) pi / (N + lambda),
    lambda = (d-1)/2 (exact for d = 1 and 3), with
    (1 - x^2) Y_N' = -N x Y_N + (2N+d-1) a_N Y_{N-1}, until every step
    is below 1e-15.  The weights are the Christoffel numbers
    1 / sum_{n < N} Y_n(x_k)^2, normalized to sum to one.  The rule is
    symmetric, x_{N+1-k} = -x_k, so both passes run on the ceil(N/2)
    nodes x >= 0 and the rest are their mirror images; the middle node
    of an odd N is exactly 0.
    """
    if count < 1:
        raise ValueError("a Gauss rule needs at least one node")
    if d < 1:
        raise ValueError("sphere dimension must be at least 1")
    lam = (d - 1) / 2.0
    k = np.arange((count + 1) // 2, 0, -1, dtype=float)
    x = np.cos((k + lam / 2.0 - 0.5) * math.pi / (count + lam))
    if count % 2:
        x[0] = 0.0
    coupling = (2 * count + d - 1) * _recurrence_coeffs(count, d)[count]
    for _ in range(_NEWTON_CAP):
        below, top = deque(_zonal_rows(count, d, x), maxlen=2)
        slope = (coupling * below - count * x * top) / ((1.0 - x) * (1.0 + x))
        step = top / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise ValueError(f"Newton iteration for the {count}-node rule on S^{d} "
                         f"did not converge in {_NEWTON_CAP} steps")
    # Weights need rows at the final nodes: reusing the rows from before
    # the last step, even one below 1e-15, puts kappa(3, 4, n) 1e-14 off.
    # The squares are summed in degree order as the recurrence walks.
    weights = 1.0 / sum(row * row for row in _zonal_rows(count - 1, d, x))
    mirrored = slice(count % 2, None)
    x = np.concatenate([-x[mirrored][::-1], x])
    weights = np.concatenate([weights[mirrored][::-1], weights])
    return x, weights / weights.sum()


def _block_ranges(edges, n_max: int):
    """Validated degree ranges [lo, hi) of each block, clipped to n_max."""
    edges = np.asarray(edges, dtype=int)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with length >= 2")
    clipped = np.clip(edges, 0, n_max + 1)
    return list(zip(clipped[:-1].tolist(), clipped[1:].tolist()))


def zonal_series_blocks(coef, d: int, x, edges) -> np.ndarray:
    """Partial sums of a zonal expansion over contiguous degree blocks.

    Sums coef[n] * Y_n(arccos x) over each block
    edges[b] <= n < edges[b+1], using the rows of
    ``zonal_harmonic_table``.  Meant for scattered points such as
    quadrature nodes; uniform polar grids go through
    ``zonal_cosine_blocks`` and the torus transform.

    Parameters
    ----------
    coef : array_like
        Complex coefficients a_0 .. a_{n_max}.
    d : int
        Sphere dimension.
    x : array_like
        Cosines of the polar angle.
    edges : array_like
        Increasing degree breakpoints; degrees outside
        [edges[0], edges[-1]) are skipped.

    Returns
    -------
    ndarray
        Shape ``(len(edges)-1, len(x))``, complex.
    """
    coef = np.asarray(coef, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ranges = _block_ranges(edges, coef.size - 1)
    table = zonal_harmonic_table(max(ranges[-1][1] - 1, 0), d, x)
    sums = np.zeros((len(ranges), x.size), dtype=complex)
    for b, (lo, hi) in enumerate(ranges):
        sums[b] = coef[lo:hi] @ table[lo:hi]
    return sums


# Entries per chunk of a block's conversion matrix: 2^14 doubles are
# 128 KiB, and OpenBLAS runs a product of that size on one thread.
_CONVERSION_CHUNK = 1 << 14


def zonal_cosine_blocks(coef, d: int, edges):
    """Each degree block of zonal expansions as T^1 spectra in theta.

    With lambda = (d-1)/2, Y_n(theta) = sqrt(dim_n) C_n^lambda(cos theta)
    / C_n^lambda(1), and the Gegenbauer cosine expansion (DLMF 18.5.11)
    C_n^lambda(cos theta) = sum_k g_k g_{n-k} e^{i (n-2k) theta} with
    g_k = (lambda)_k / k! turns the block sum of coef[n] * Y_n into the
    even trigonometric polynomial sum_m beta_m e^{i m theta}, where
    beta_{-m} = beta_m = sum_j w_{m+2j} g_j g_{m+j} and
    w_n = coef[n] sqrt(dim_n) / C_n^lambda(1).  Every term of the
    expansion is non-negative, so the sum has no cancellation.  g_k and
    C_n^lambda(1) = (2 lambda)_n / n! are running products of (c+i)/(1+i),
    and dim_n = (n + lambda) / lambda * C_n^lambda(1) turns w_n into
    coef[n] sqrt((n + lambda) / (lambda C_n^lambda(1))): no log or exp.
    Split by parity p, with m = 2a + p and n = 2b + p, this is
    beta_m = sum_b g_{b-a} g_{a+b+p} w_{2b+p}: a matrix that is a
    Toeplitz matrix times a Hankel matrix, entry by entry, applied to
    the block's w.  Both factors are strided windows of one zero-padded
    g, so a chunk of rows costs one elementwise product and one real
    matrix product per expansion, with each complex column read as two
    real ones; an expansion's beta does not depend on the other
    columns.  A chunk holds at most 2^14 entries, so OpenBLAS runs each
    product on one thread, and skips the columns b < a where g_{b-a}
    vanishes.  Blocks are built one at a time, as the caller reaches
    them, and each column's spectrum only when its own iterator reaches
    it.

    Parameters
    ----------
    coef : array_like
        Complex coefficients of shape ``(n_max+1, k)``: column i holds
        a_0 .. a_{n_max} of expansion i.
    d : int
        Sphere dimension, at least 2.
    edges : array_like
        Strictly increasing degree breakpoints; degrees outside
        [edges[0], edges[-1]) are skipped.

    Returns
    -------
    iterator of iterators of TorusSpectrum
        Per block edges[b] <= n < edges[b+1], the k even d = 1 spectra,
        one per column, with m_max = min(edges[b+1], n_max + 1) - 1 and
        beta_m at frequency m; a block past n_max is the zero spectrum
        with m_max 0.
    """
    if d < 2:
        raise ValueError("sphere dimension must be at least 2")
    coef = np.asarray(coef, dtype=complex)
    if coef.ndim != 2:
        raise ValueError("coefficients must have shape (n_max+1, k)")
    ranges = _block_ranges(edges, coef.shape[0] - 1)
    top = max(ranges[-1][1], 1)
    lam = (d - 1) / 2.0
    g = _pochhammer_ratios(lam, top)
    n = np.arange(top)
    w = coef[:top] * np.sqrt((n + lam) / (lam * _pochhammer_ratios(2.0 * lam, top)))[:, None]
    # g_{-k} = 0: the Toeplitz rows of a chunk reach at most its row
    # count below index 0.
    padded = np.concatenate((np.zeros(top), g))

    def block(lo, hi):
        beta = np.zeros((hi if lo < hi else 1, w.shape[1]), dtype=complex)
        for p in (0, 1):
            # m = 2a + p and n = 2b + p for the block degrees lo <= n < hi.
            rows, b0 = (hi + 1 - p) // 2, (lo + 1 - p) // 2
            width = rows - b0
            if width <= 0:
                continue
            wp = np.ascontiguousarray(w[2 * b0 + p:hi:2].T).view(float).reshape(-1, width, 2)
            windows = sliding_window_view(padded, width)
            step = max(1, _CONVERSION_CHUNK // width)
            for a0 in range(0, rows, step):
                a1 = min(a0 + step, rows)
                # Row a holds g_{b-a} g_{a+b+p} for b0 <= b < rows; the
                # entries with b < a vanish, so the chunk starts at
                # column b = max(b0, a0).
                skip = max(b0, a0) - b0
                toeplitz = windows[top + b0 - a1 + 1:top + b0 - a0 + 1][::-1, skip:]
                hankel = windows[top + a0 + b0 + p:top + a1 + b0 + p, skip:]
                part = np.matmul(toeplitz * hankel, wp[:, skip:])
                beta[2 * a0 + p:2 * a1 + p:2] = part.view(complex)[..., 0].T
        return (TorusSpectrum(np.concatenate((column[:0:-1], column)))
                for column in beta.T)

    return (block(lo, hi) for lo, hi in ranges)


def jacobi_asymptotic(n: int, d: int, theta):
    """Large-degree asymptotic of P_n^{(alpha,alpha)}(cos theta).

    Parameters
    ----------
    n : int
        Degree, positive.
    d : int
        Sphere dimension.
    theta : array_like
        Polar angles inside the validity window [c/n, pi - c/n] with
        c = ``SZEGO_WINDOW_C``.

    Returns
    -------
    ndarray
        n^{-1/2} k(theta) cos(M theta + gamma) with
        k(theta) = 2^{(d-1)/2} pi^{-1/2} sin(theta)^{-(d-1)/2},
        M = n + (d-1)/2 and gamma = -(d-1) pi / 4.  Its error is at
        most C(d) n^{-3/2} / sin(theta) with the frozen constant
        C(d) = ``SZEGO_REMAINDER_C[d]`` (calibrated for d in {2, 3}).
    """
    if n < 1:
        raise ValueError("asymptotic form needs n >= 1")
    th = np.asarray(theta, dtype=float)
    lo = SZEGO_WINDOW_C / n
    hi = math.pi - SZEGO_WINDOW_C / n
    if np.any(th < lo) or np.any(th > hi):
        raise ValueError(
            f"theta outside asymptotic validity window [{lo:.6g}, {hi:.6g}]"
        )
    sin_t = np.sin(th)
    k_amp = 2.0 ** ((d - 1) / 2.0) / math.sqrt(math.pi) * sin_t ** (-(d - 1) / 2.0)
    big_m = n + (d - 1) / 2.0
    phase = -(d - 1) * math.pi / 4.0
    return n ** (-0.5) * k_amp * np.cos(big_m * th + phase)
