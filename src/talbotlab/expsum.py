"""Exponential-sum suprema: weighted quadratic Weyl blocks.

A Weyl block is the partial sum

    S(u, x) = sum_{n=N}^{u} b_n exp(i n^2 t + i n x),   N <= u <= 2N,

whose supremum over both the truncation point u and a physical grid
in x measures square-root cancellation for generic t.  It is found
from direct phases e^{i n^2 t}, FFT chunk sums (numpy.fft: no BLAS,
no dependence on the thread count) and a certified bound on the
partial sums within each chunk (Ehlich and Zeller 1964, as in
``lpbesov``) that leaves few prefixes to sum term by term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .evolve import _exact_phases

__all__ = [
    "WeylBlockResult",
    "weyl_block_sup",
]


@dataclass(frozen=True)
class WeylBlockResult:
    """Supremum of a weighted quadratic Weyl block.

    Attributes
    ----------
    sup : float
        max over u in [N, 2N] and grid x of |S(u, x)|.
    argmax_x : float
        Grid point attaining the supremum.
    argmax_u : int
        Truncation point attaining the supremum.
    """

    sup: float
    argmax_x: float
    argmax_u: int


# Chunks per batched FFT call (and per batch of _chunk_reach, 2 MiB of
# samples at 64-term chunks), and the pruning slack relative to sum |c_n|
# (it covers the roundoff of FFT chunk sums, running sums and chunk
# reaches).
_FFT_BATCH = 8
_ROUNDOFF = 1e-10


@functools.cache
def _unit_roots(size: int) -> np.ndarray:
    """e^{2 pi i k j / M} for k < size and j < M = 4 size, shape (size, M)."""
    samples = 4 * size
    roots = np.exp(2j * math.pi * np.arange(samples) / samples)
    return roots[np.outer(np.arange(size), np.arange(samples)) % samples]


def _chunk_reach(coef: np.ndarray, size: int) -> np.ndarray:
    """Upper bound of |sum_{n=lo}^{u} c_n e^{i n x}| over every real x and
    every u in the chunk, for each ``size``-term chunk [lo, lo + size).

    Each prefix is e^{i lo x} times a polynomial P of degree below size in
    e^{i x}.  P is sampled on M = 4 size points, and the largest sample
    is multiplied by sec(pi (size - 1) / (2 M)) < 1.083.  That certifies
    it (Ehlich and Zeller 1964): for every phase phi, the real part of
    e^{-i phi - i (size - 1) x / 2} P(x) is a trigonometric polynomial
    of degree size - 1 in x / 2, and on the 2 M sample points of its
    period 4 pi its modulus is at most the largest |P| sample.
    """
    chunks = -(-coef.size // size)
    padded = np.zeros((chunks, size), dtype=complex)
    padded.flat[: coef.size] = coef
    roots = _unit_roots(size)
    reach = np.empty(chunks)
    for first in range(0, chunks, _FFT_BATCH):
        prefixes = np.cumsum(padded[first:first + _FFT_BATCH, :, None] * roots, axis=1)
        reach[first:first + _FFT_BATCH] = np.max(np.abs(prefixes), axis=(1, 2))
    return reach / math.cos(math.pi * (size - 1) / (8 * size))


def _running_chunks(coef: np.ndarray, n_values: np.ndarray, grid: int, size: int):
    """Yield ``(lo, before, chunk)`` for the term chunks [lo, lo + size).

    ``chunk`` is the chunk's sum on the grid, an inverse FFT of its
    terms placed at n mod grid; ``before`` the sum of all earlier
    terms, updated in place when the walk resumes.
    """
    total = np.zeros(grid, dtype=complex)
    span = size * _FFT_BATCH
    for first in range(0, coef.size, span):
        idx = np.arange(first, min(first + span, coef.size))
        placed = np.zeros(((idx.size - 1) // size + 1, grid), dtype=complex)
        np.add.at(placed, ((idx - first) // size, n_values[idx] % grid), coef[idx])
        for row, chunk in enumerate(np.fft.ifft(placed, axis=1, norm="forward")):
            yield first + row * size, total, chunk
            total += chunk


def weyl_block_sup(
    t: float,
    block_start: int,
    weights,
    grid_factor: int = 16,
) -> WeylBlockResult:
    """Supremum of the weighted Weyl block starting at N = block_start.

    Parameters
    ----------
    t : float
        Time multiplying the quadratic phase n^2.
    block_start : int
        N >= 1; the sum runs over n in [N, 2N].
    weights : callable
        b_n as a function of n.
    grid_factor : int
        The x grid has grid_factor * N points on [0, 2 pi).

    Returns
    -------
    WeylBlockResult
        Running maximum over all prefixes u and grid points x; ties go
        to the smallest u, then the smallest x.  NaN if a term is not
        finite.

    Notes
    -----
    Bound and refine in O(G) memory, G = grid_factor * N.  The largest
    running sum B at the ends of 4L-term chunks is a lower bound of the
    sup.  A prefix in an L-term chunk starting at s beats B at x only if
    |S(s - 1, x)| + R + slack >= B, where R bounds every partial sum of
    the chunk over all real x (``_chunk_reach``); only those x are summed
    term by term, with exact phase indices (n j) mod G.  Where the terms
    cancel, R grows like the square root of the chunk length, where the
    triangle bound sum_chunk |c_n| grows linearly, so few x survive even
    in long chunks.  Longer chunks cost fewer FFT rows but leave more x
    to sum term by term; L = 2^floor(b / 2), b the bit length of N, is
    within a factor sqrt(2) of sqrt(N), and at least 16.  At N = 2048,
    L = 64 and the two passes make 9 + 33 FFT rows.
    """
    big_n = int(block_start)
    if big_n < 1:
        raise ValueError("block start must be >= 1")
    grid = int(grid_factor) * big_n
    if grid < 1:
        raise ValueError("grid_factor must be >= 1")
    n_values = np.arange(big_n, 2 * big_n + 1)
    coef = np.array([float(weights(int(n))) for n in n_values])
    coef = coef * _exact_phases(t, n_values ** 2)
    slack = _ROUNDOFF * float(np.sum(np.abs(coef)))
    if not math.isfinite(slack):
        return WeylBlockResult(math.nan, 0.0, big_n)
    bound = 0.0
    size = 1 << max(4, big_n.bit_length() // 2)
    for _, before, chunk in _running_chunks(coef, n_values, grid, 4 * size):
        bound = max(bound, float(np.max(np.abs(before + chunk))))
    roots = np.exp(2j * math.pi * np.arange(grid) / grid)
    reach = _chunk_reach(coef, size)
    best, best_u, best_j = -1.0, big_n, 0
    for lo, before, _ in _running_chunks(coef, n_values, grid, size):
        part = slice(lo, lo + size)
        cols = np.flatnonzero(np.abs(before) >= bound - reach[lo // size] - slack)
        if cols.size:
            n = n_values[part, None]
            terms = coef[part, None] * roots[n * cols % grid]
            sizes = np.abs(before[cols] + np.cumsum(terms, axis=0))
            at = int(np.argmax(sizes))
            if sizes.flat[at] > best:
                row, col = divmod(at, cols.size)
                best, best_u, best_j = float(sizes.flat[at]), int(n[row, 0]), int(cols[col])
    return WeylBlockResult(best, 2.0 * math.pi * best_j / grid, best_u)

