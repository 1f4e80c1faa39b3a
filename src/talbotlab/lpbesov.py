"""Dyadic frequency blocks of zonal spectra and the Holder exponent fit.

A sharp Littlewood-Paley projection restricts a zonal spectrum to a
dyadic shell [N, 2N) of degrees.  Block L^p norms across levels drive
the Holder exponent fit (the B^gamma_{infty,infty} reading of
C^gamma).

Level convention: the probe level j >= 1 is the sharp shell with
N = 2^j, and level 0 absorbs everything below frequency 2, so the
levels partition the whole spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specialfun as sf
from .fitting import fit_line
from .spectra import ZonalSpectrum

__all__ = [
    "probe_edges",
    "BlockNormTable",
    "block_norm_table",
    "holder_exponent_fit",
]

# Grid points per top degree when block_norm_table picks the grid: 8
# keeps the grid-maximum error of trigonometric-type blocks within a
# couple of percent.
_OVERSAMPLE = 8


def probe_edges(j_max: int) -> np.ndarray:
    """Degree breakpoints of the probe levels 0..j_max.

    Level 0 is [0, 2); level j >= 1 is [2^j, 2^{j+1}).  Together the
    levels partition all degrees below 2^{j_max+1}.
    """
    return np.array([0] + [2 ** (j + 1) for j in range(j_max + 1)], dtype=int)


@dataclass(frozen=True)
class BlockNormTable:
    """Per-level block norms ||P_{2^j} u||_{L^p}.

    Attributes
    ----------
    levels : ndarray
        Level indices j.
    norms : ndarray
        Non-negative block norms, aligned with ``levels``.
    """

    levels: np.ndarray
    norms: np.ndarray


def _parse_p(p) -> float:
    if p == "inf":
        return math.inf
    p = float(p)
    if p not in (1.0, 2.0, math.inf):
        raise ValueError("block norms support p in {1, 2, inf}")
    return p


def block_norm_table(spec: ZonalSpectrum, p, j_max: int) -> BlockNormTable:
    """Block norms ||P_{2^j} u||_{L^p} for probe levels j = 0..j_max.

    Parameters
    ----------
    spec : ZonalSpectrum
        Spectrum to decompose (evolved data is passed in already
        propagated).
    p : {1, 2, "inf"}
        L^2 norms come exactly from coefficients; L^1 and L^infinity
        are computed on the uniform theta grid of [0, pi]: each block
        is turned into its Gegenbauer cosine series
        (``specialfun.zonal_cosine_blocks``) and sampled by one FFT
        (``specialfun.cosine_series_fft``), one block at a time.  The
        grid has 8 points per top degree, at least 512 and at most 2^17.
    j_max : int
        Largest probe level.

    Returns
    -------
    BlockNormTable
    """
    if not isinstance(spec, ZonalSpectrum):
        raise TypeError("block norms are implemented for zonal spectra")
    p = _parse_p(p)
    edges = probe_edges(j_max)
    levels = np.arange(j_max + 1)
    if p == 2.0:
        norms = [
            math.sqrt(float(np.sum(np.abs(spec.coef[min(lo, spec.coef.size):hi]) ** 2)))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        return BlockNormTable(levels=levels, norms=np.array(norms))
    grid_points = min(max(512, _OVERSAMPLE * int(edges[-1])), 1 << 17)
    theta = np.linspace(0.0, math.pi, grid_points)
    weight = np.sin(theta) ** (spec.d - 1)
    ratio = sf.weight_ratio(spec.d)
    period = max(2 * (grid_points - 1), 1)
    norms = []
    # Reduce each block's samples before the next FFT: the samples are
    # far larger than the cosine coefficients, and holding every
    # block's at once would set the peak memory.
    for beta in sf.zonal_cosine_blocks(spec.coef, spec.d, edges):
        block = np.abs(sf.cosine_series_fft(beta, period)[:grid_points])
        if p == math.inf:
            norms.append(float(np.max(block)))
        else:
            norms.append(ratio * float(np.trapezoid(block * weight, theta)))
    return BlockNormTable(levels=levels, norms=np.array(norms))


def holder_exponent_fit(sup_norms, window: tuple[int, int]):
    """Holder exponent from sup-norm decay across dyadic levels.

    Parameters
    ----------
    sup_norms : array_like
        ||P_{2^j} u||_{L^infinity} for j = 0, 1, ...; at least five
        levels inside the window.
    window : (int, int)
        Inclusive level range used for the fit.

    Returns
    -------
    gamma_hat : float
        Least-squares slope of -log2 ||P_{2^j} u||_inf against j.
    stderr : float
        Standard error of the slope.
    dropped : list of int
        Levels discarded because their block norm vanished.
    """
    norms = np.asarray(sup_norms, dtype=float)
    levels = np.arange(norms.size)
    lo, hi = window
    keep = (levels >= lo) & (levels <= hi)
    levels, norms = levels[keep], norms[keep]
    dropped = [int(j) for j, v in zip(levels, norms) if v <= 0.0]
    keep = norms > 0.0
    levels, norms = levels[keep], norms[keep]
    if levels.size < 5:
        raise ValueError("need at least five usable dyadic levels")
    fit = fit_line(levels, -np.log2(norms))
    return fit.slope, fit.stderr, dropped
