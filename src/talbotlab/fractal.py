"""Box-counting dimension estimation for graphs of sampled fields.

The box (Minkowski) dimension of a graph is read off from dyadic
column counts: at level k the domain splits into 2^k columns (4^k
cells in two dimensions) and each column contributes
floor(oscillation / epsilon) + 1 vertical boxes of side
epsilon = 2^{-k}; all levels come from one dyadic max/min pyramid
(``box_count_series``).  The dimension estimate (``dim_t``) is the
least-squares slope of log2 N(k) against k over a window of levels,
reported per component (real and imaginary parts) with the maximum as
the headline value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import evaluate_torus, propagate_torus
from .fitting import LineFit, fit_line
from .spectra import TorusSpectrum

__all__ = [
    "box_count_curve",
    "box_count_surface",
    "box_count_series",
    "dim_t",
    "DimReport",
]


def _reduce_runs(op, values: np.ndarray, axis: int, r: int) -> np.ndarray:
    """Reduce each run of r samples along an axis with op, via strided views."""
    runs = [values[(slice(None),) * axis + (slice(i, None, r),)] for i in range(r)]
    out = runs[0] if r == 1 else op(runs[0], runs[1])
    for run in runs[2:]:
        op(out, run, out=out)
    return out


def box_count_curve(samples, k: int) -> int:
    """Box count of the graph of a 1-d sample vector at level k.

    Parameters
    ----------
    samples : array_like
        Real samples on a uniform grid whose length is a multiple of
        2^k and at least 4 * 2^k.
    k : int
        Dyadic level; boxes have side 2^{-k}.

    Returns
    -------
    int
        Sum over the 2^k columns of floor(oscillation / 2^{-k}) + 1.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    return int(box_count_series(values, [k])[0])


def box_count_surface(samples, k: int) -> int:
    """Box count of the graph of a 2-d sample array at level k.

    The domain splits into 4^k cells (2^k per axis); each cell
    contributes floor(oscillation / 2^{-k}) + 1 boxes.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 2:
        raise ValueError("surface counting expects a 2-d sample array")
    return int(box_count_series(values, [k])[0])


def box_count_series(samples, k_values) -> np.ndarray:
    """Box counts of a 1-d (curve) or 2-d (surface) grid across levels.

    The grid is reduced once to the finest level, then each coarser
    level halves every axis pairwise; max and min are exact, so each
    count equals a per-level reduction of its cells.  Returns the
    counts as floats, in the order of ``k_values``.
    """
    values = np.asarray(samples, dtype=float)
    ks = [int(k) for k in k_values]
    if values.ndim not in (1, 2):
        raise ValueError("box counting expects a 1-d or 2-d sample array")
    if min(ks, default=0) < 0:
        raise ValueError("dyadic levels must be non-negative")
    top = max(ks, default=0)
    cols = 1 << top
    if min(values.shape) < 4 * cols:
        raise ValueError("grid resolution must be at least 4 * 2^k per axis")
    if any(n % cols for n in values.shape):
        raise ValueError("grid sizes must be divisible by 2^k")
    hi = lo = values
    counts = {}
    for k in range(top, min(ks, default=1) - 1, -1):
        for axis, n in enumerate(values.shape):
            r = n // cols if k == top else 2
            hi = _reduce_runs(np.maximum, hi, axis, r)
            lo = _reduce_runs(np.minimum, lo, axis, r)
        counts[k] = np.sum(np.floor((hi - lo) / 2.0 ** (-k)) + 1.0)
    return np.array([counts[k] for k in ks], dtype=float)


@dataclass(frozen=True)
class DimReport:
    """dim_t output: per-component fits and the maximum of their slopes."""

    real: LineFit
    imag: LineFit
    max_slope: float


def dim_t(spec: TorusSpectrum, t: float, grid_size: int,
          window: tuple[int, int]) -> DimReport:
    """Graph dimension of the evolved torus field at time t.

    Evaluates the evolution on the uniform torus grid, box counts the
    real and imaginary parts at every level of the window, and fits
    both slopes of log2 N(k) against k.

    Parameters
    ----------
    spec : TorusSpectrum
        Data on T^1 (graph is a curve) or T^2 (graph is a surface).
    t : float
    grid_size : int
        Samples per axis for the physical-space evaluation.
    window : (int, int)
        Inclusive dyadic fit window (k_lo, k_hi), at least four levels.

    Returns
    -------
    DimReport
        Fits for both components and their maximum slope, NaN if either
        slope is NaN.
    """
    levels = np.arange(window[0], window[1] + 1)
    if levels.size < 4:
        raise ValueError("need at least four levels inside the fit window")
    values = evaluate_torus(propagate_torus(spec, t), grid_size)
    real, imag = (fit_line(levels, np.log2(box_count_series(comp, levels)))
                  for comp in (values.real, values.imag))
    return DimReport(real=real, imag=imag, max_slope=float(np.maximum(real.slope, imag.slope)))
