"""Exponential-sum suprema: weighted quadratic Weyl blocks.

A Weyl block is the partial sum

    S(u, x) = sum_{n=N}^{u} b_n exp(i n^2 t + i n x),   N <= u <= 2N,

whose supremum over both the truncation point u and a physical grid
in x measures square-root cancellation for generic t.  It is found
from direct phases e^{i n^2 t}, FFT chunk sums (numpy.fft: no BLAS,
no dependence on the thread count) and a triangle-inequality bound
that leaves few prefixes to sum term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import _quadratic_phases

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


# Terms per chunk in the bounding and refining passes of weyl_block_sup,
# chunks per batched FFT call, and the pruning slack relative to
# sum |c_n| (it covers the roundoff of FFT chunk sums and running sums).
_BOUND_CHUNK = 64
_REFINE_CHUNK = 16
_FFT_BATCH = 8
_ROUNDOFF = 1e-10


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
    running sum B at the ends of ``_BOUND_CHUNK``-term chunks is a lower
    bound of the sup.  By the triangle inequality, a prefix in a
    ``_REFINE_CHUNK``-term chunk starting at s beats B at x only if
    |S(s - 1, x)| + sum_chunk |c_n| + slack >= B; only those x are summed
    term by term, with exact phase indices (n j) mod G.
    """
    big_n = int(block_start)
    if big_n < 1:
        raise ValueError("block start must be >= 1")
    grid = int(grid_factor) * big_n
    if grid < 1:
        raise ValueError("grid_factor must be >= 1")
    n_values = np.arange(big_n, 2 * big_n + 1)
    coef = np.array([float(weights(int(n))) for n in n_values])
    coef = coef * _quadratic_phases(t, n_values)
    mags = np.abs(coef)
    slack = _ROUNDOFF * float(np.sum(mags))
    if not math.isfinite(slack):
        return WeylBlockResult(math.nan, 0.0, big_n)
    bound = 0.0
    for _, before, chunk in _running_chunks(coef, n_values, grid, _BOUND_CHUNK):
        bound = max(bound, float(np.max(np.abs(before + chunk))))
    roots = np.exp(2j * math.pi * np.arange(grid) / grid)
    best, best_u, best_j = -1.0, big_n, 0
    for lo, before, _ in _running_chunks(coef, n_values, grid, _REFINE_CHUNK):
        part = slice(lo, lo + _REFINE_CHUNK)
        cols = np.flatnonzero(np.abs(before) >= bound - float(np.sum(mags[part])) - slack)
        if cols.size:
            n = n_values[part, None]
            terms = coef[part, None] * roots[n * cols % grid]
            sizes = np.abs(before[cols] + np.cumsum(terms, axis=0))
            at = int(np.argmax(sizes))
            if sizes.flat[at] > best:
                row, col = divmod(at, cols.size)
                best, best_u, best_j = float(sizes.flat[at]), int(n[row, 0]), int(cols[col])
    return WeylBlockResult(best, 2.0 * math.pi * best_j / grid, best_u)

