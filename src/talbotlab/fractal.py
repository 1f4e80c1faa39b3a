"""Box-counting dimension estimation for graphs of sampled fields.

The box (Minkowski) dimension of a graph is read off from dyadic
column counts: at level k the domain splits into 2^k columns (4^k
cells in two dimensions) and each column contributes
floor(oscillation / epsilon) + 1 vertical boxes of side
epsilon = 2^{-k}.  The dimension estimate is the least-squares slope
of log2 N(k) against k over a scale window, reported per component
(real and imaginary parts) with the maximum as the headline value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evolve import (
    SampledField,
    evaluate_beam_equator,
    evaluate_torus,
    evaluate_zonal_circle,
    propagate_sphere,
    propagate_torus,
)
from .fitting import fit_line
from .spectra import BeamSpectrum, TorusSpectrum, ZonalSpectrum

__all__ = [
    "BoxCountSeries",
    "DimensionEstimate",
    "DomainConfig",
    "box_count_curve",
    "box_count_surface",
    "box_count_series",
    "dimension_fit",
    "dim_t",
    "DimReport",
]


@dataclass(frozen=True)
class BoxCountSeries:
    """Dyadic box counts of one graph component.

    Attributes
    ----------
    k_values : ndarray
        Dyadic levels; boxes at level k have side 2^{-k}.
    counts : ndarray
        Box counts N(E, 2^{-k}); positive and non-decreasing in k.
        Area-weighted sphere counts may be non-integral.
    """

    k_values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k_values, dtype=int)
        c = np.asarray(self.counts, dtype=float)
        if k.shape != c.shape or k.ndim != 1:
            raise ValueError("levels and counts must be aligned 1-d arrays")
        if np.any(c <= 0.0):
            raise ValueError("box counts must be positive")
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "counts", c)

    def epsilons(self) -> np.ndarray:
        return 2.0 ** (-self.k_values.astype(float))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("k,epsilon,count\n")
            for k, eps, c in zip(self.k_values, self.epsilons(), self.counts):
                fh.write(f"{int(k)},{repr(float(eps))},{repr(float(c))}\n")


@dataclass(frozen=True)
class DimensionEstimate:
    """Fitted box dimension of one graph component.

    Attributes
    ----------
    slope : float
        Least-squares slope of log2 N(k) against k.
    stderr : float
        Standard error of the slope.
    window : tuple
        Inclusive level range used in the fit.
    component : str
        "real" or "imag".
    """

    slope: float
    stderr: float
    window: tuple
    component: str = "real"

    def to_json(self) -> str:
        return json.dumps(
            {
                "slope": self.slope,
                "stderr": self.stderr,
                "window": list(self.window),
                "component": self.component,
            }
        )


def _column_counts(oscillations: np.ndarray, eps: float) -> float:
    return float(np.sum(np.floor(oscillations / eps) + 1.0))


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
    values = np.asarray(samples, dtype=float)
    cols = 1 << k
    if values.size < 4 * cols:
        raise ValueError("grid resolution must be at least 4 * 2^k")
    if values.size % cols != 0:
        raise ValueError("grid size must be divisible by 2^k")
    eps = 2.0 ** (-k)
    blocks = values.reshape(cols, -1)
    osc = blocks.max(axis=1) - blocks.min(axis=1)
    return int(_column_counts(osc, eps))


def box_count_surface(samples, k: int) -> int:
    """Box count of the graph of a 2-d sample array at level k.

    The domain splits into 4^k cells (2^k per axis); each cell
    contributes floor(oscillation / 2^{-k}) + 1 boxes.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 2:
        raise ValueError("surface counting expects a 2-d sample array")
    cols = 1 << k
    if values.shape[0] < 4 * cols or values.shape[1] < 4 * cols:
        raise ValueError("grid resolution must be at least 4 * 2^k per axis")
    if values.shape[0] % cols != 0 or values.shape[1] % cols != 0:
        raise ValueError("grid sizes must be divisible by 2^k")
    eps = 2.0 ** (-k)
    r0 = values.shape[0] // cols
    r1 = values.shape[1] // cols
    blocks = values.reshape(cols, r0, cols, r1)
    mx = blocks.max(axis=(1, 3))
    mn = blocks.min(axis=(1, 3))
    return int(_column_counts(mx - mn, eps))


def box_count_series(samples, k_values, counter=box_count_curve) -> BoxCountSeries:
    """Box counts across levels, packaged as a series."""
    ks = [int(k) for k in k_values]
    counts = [counter(samples, k) for k in ks]
    return BoxCountSeries(k_values=np.array(ks), counts=np.array(counts, dtype=float))


def dimension_fit(
    series: BoxCountSeries, window: tuple[int, int], component: str = "real"
) -> DimensionEstimate:
    """Least-squares dimension estimate over an inclusive level window.

    Parameters
    ----------
    series : BoxCountSeries
    window : (int, int)
        Inclusive level range; at least four levels must fall inside.
    component : str
        Tag stored on the estimate.

    Returns
    -------
    DimensionEstimate
    """
    lo, hi = window
    keep = (series.k_values >= lo) & (series.k_values <= hi)
    if np.count_nonzero(keep) < 4:
        raise ValueError("need at least four levels inside the fit window")
    fit = fit_line(series.k_values[keep], np.log2(series.counts[keep]))
    return DimensionEstimate(
        slope=fit.slope, stderr=fit.stderr, window=(int(lo), int(hi)), component=component
    )


@dataclass(frozen=True)
class DomainConfig:
    """Evaluation and fit parameters for a dimension experiment.

    Attributes
    ----------
    grid_size : int
        Samples per axis for the physical-space evaluation.
    window : tuple
        Inclusive dyadic fit window (k_lo, k_hi).
    k_values : tuple or None
        Levels to count; defaults to the fit window range.
    """

    grid_size: int
    window: tuple = (5, 11)
    k_values: tuple | None = None

    def levels(self) -> list[int]:
        if self.k_values is not None:
            return [int(k) for k in self.k_values]
        return list(range(self.window[0], self.window[1] + 1))


@dataclass(frozen=True)
class DimReport:
    """dim_t output: per-component estimates and their maximum."""

    real: DimensionEstimate
    imag: DimensionEstimate
    max_slope: float


def _evaluate_for_dimension(spec, t, config: DomainConfig) -> SampledField:
    if isinstance(spec, TorusSpectrum):
        evolved = propagate_torus(spec, t)
        return evaluate_torus(evolved, config.grid_size)
    if isinstance(spec, ZonalSpectrum):
        evolved = propagate_sphere(spec, t)
        return evaluate_zonal_circle(evolved, config.grid_size)
    if isinstance(spec, BeamSpectrum):
        evolved = propagate_sphere(spec, t)
        return evaluate_beam_equator(evolved, config.grid_size)
    raise TypeError("dimension experiments accept torus, zonal, or beam spectra")


def dim_t(spec, t, config: DomainConfig) -> DimReport:
    """Graph dimension of the evolved field at time t.

    Evaluates the evolution on the configured domain (the torus grid,
    or a great-circle slice for sphere spectra), box counts the real
    and imaginary parts, and fits both slopes.

    Parameters
    ----------
    spec : TorusSpectrum or ZonalSpectrum or BeamSpectrum
    t : float or TimePoint
    config : DomainConfig

    Returns
    -------
    DimReport
        Estimates for both components and their maximum slope.
    """
    field = _evaluate_for_dimension(spec, t, config)
    values = field.values
    counter = box_count_surface if values.ndim == 2 else box_count_curve
    estimates = {}
    for name, comp in (("real", values.real), ("imag", values.imag)):
        series = box_count_series(comp, config.levels(), counter=counter)
        estimates[name] = dimension_fit(series, config.window, component=name)
    return DimReport(
        real=estimates["real"],
        imag=estimates["imag"],
        max_slope=max(estimates["real"].slope, estimates["imag"].slope),
    )
