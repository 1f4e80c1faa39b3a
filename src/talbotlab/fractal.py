"""Box-counting dimension estimation for graphs of sampled fields.

The box (Minkowski) dimension of a graph is read off from dyadic
column counts: at level k the domain splits into 2^k columns (4^k
cells in two dimensions) and each column contributes
floor(oscillation / epsilon) + 1 vertical boxes of side
epsilon = 2^{-k}; all levels come from one dyadic max/min pyramid
over the cells of the finest level (``box_count_series``).  The
dimension estimate (``dim_t``) is the least-squares slope of log2 N(k)
against k over a window of levels, reported per component (real and
imaginary parts) with the maximum as the headline value.

``dim_t`` never builds the propagated spectrum or the sampled field:
the column strips of ``evolve.torus_strips`` (which applies the time
phases in its row pass; its docstring gives the pool policy) are
reduced as they come to the max and min of their finest cells, and the
same pyramid runs on the joined extrema.  Max and min are exact, so the
counts equal those of the whole field and do not depend on the worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``evaluate_torus`` and ``propagate_torus`` are unused here but stay
# importable from this module: the benchmark's tracer looks them up here.
from .evolve import evaluate_torus, propagate_torus, torus_strips  # noqa: F401
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


def _top_level(shape: tuple, ks: list) -> int:
    """The finest of the levels ``ks``, checked against the grid ``shape``."""
    if len(shape) not in (1, 2):
        raise ValueError("box counting expects a 1-d or 2-d sample array")
    if min(ks, default=0) < 0:
        raise ValueError("dyadic levels must be non-negative")
    top = max(ks, default=0)
    cols = 1 << top
    if min(shape) < 4 * cols:
        raise ValueError("grid resolution must be at least 4 * 2^k per axis")
    if any(n % cols for n in shape):
        raise ValueError("grid sizes must be divisible by 2^k")
    return top


def _cell_extrema(values: np.ndarray, runs) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of each cell of ``runs[axis]`` samples along each axis."""
    hi = lo = values
    for axis, r in enumerate(runs):
        hi = _reduce_runs(np.maximum, hi, axis, r)
        lo = _reduce_runs(np.minimum, lo, axis, r)
    return hi, lo


def _pyramid_counts(hi: np.ndarray, lo: np.ndarray, top: int, ks: list) -> np.ndarray:
    """Box counts at the levels ``ks`` from the cell extrema at level ``top``.

    Each coarser level halves every axis pairwise; max and min are
    exact, so each count equals a per-level reduction of its cells.
    """
    counts = {}
    for k in range(top, min(ks, default=top + 1) - 1, -1):
        if k < top:
            for axis in range(hi.ndim):
                hi = _reduce_runs(np.maximum, hi, axis, 2)
                lo = _reduce_runs(np.minimum, lo, axis, 2)
        counts[k] = np.sum(np.floor((hi - lo) / 2.0 ** (-k)) + 1.0)
    return np.array([counts[k] for k in ks], dtype=float)


def box_count_series(samples, k_values) -> np.ndarray:
    """Box counts of a 1-d (curve) or 2-d (surface) grid across levels.

    The grid is reduced once to the cells of the finest level, and the
    coarser levels come from the dyadic pyramid over them.  Returns the
    counts as floats, in the order of ``k_values``.
    """
    values = np.asarray(samples, dtype=float)
    ks = [int(k) for k in k_values]
    top = _top_level(values.shape, ks)
    hi, lo = _cell_extrema(values, [n >> top for n in values.shape])
    return _pyramid_counts(hi, lo, top, ks)


def _torus_box_counts(spec: TorusSpectrum, grid_size: int, ks: list,
                      t: float | None = None) -> np.ndarray:
    """Box counts of the real and imaginary parts of the sampled field of
    ``spec``, evolved to time ``t`` if given, shape (2, len(ks)), from its
    column strips.

    Each strip (``torus_strips``) is reduced at once to the max and min
    of its finest-level cells, for both parts; the strips hold whole
    cells, so the extrema, joined in strip order, equal those of the
    whole field and feed the same pyramid as ``box_count_series``.
    """
    size = int(grid_size)
    top = _top_level((size,) * spec.d, ks)
    cell = size >> top
    runs = (cell,) * spec.d

    def reduce(strip):
        return np.stack([_cell_extrema(part, runs) for part in (strip.real, strip.imag)])

    extrema = np.concatenate(torus_strips(spec, size, reduce, cell, t), axis=-1)
    return np.stack([_pyramid_counts(hi, lo, top, ks) for hi, lo in extrema])


@dataclass(frozen=True)
class DimReport:
    """dim_t output: per-component fits and the maximum of their slopes."""

    real: LineFit
    imag: LineFit

    @property
    def max_slope(self) -> float:
        """The larger slope, NaN if either slope is NaN."""
        return float(np.maximum(self.real.slope, self.imag.slope))


def dim_t(spec: TorusSpectrum, t: float, grid_size: int,
          window: tuple[int, int]) -> DimReport:
    """Graph dimension of the evolved torus field at time t.

    Evaluates the evolution on the uniform torus grid one column strip
    at a time (``evolve.torus_strips`` sets the pool and its memory),
    and reduces each strip at once to the max and min of its finest
    cells; box counts the real and imaginary parts at every level of
    the window from those extrema, exactly as for the whole field, and
    fits both slopes of log2 N(k) against k.  The result does not depend
    on the worker count, and equals that of the propagated spectrum
    (``propagate_torus``) bit for bit.

    Parameters
    ----------
    spec : TorusSpectrum
        Data on T^1 (graph is a curve) or T^2 (graph is a surface).
    t : float
    grid_size : int
        Samples per axis for the physical-space evaluation, >= 2 m_max + 1.
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
    counts = _torus_box_counts(spec, grid_size, levels.tolist(), t)
    real, imag = (fit_line(levels, np.log2(count)) for count in counts)
    return DimReport(real=real, imag=imag)
