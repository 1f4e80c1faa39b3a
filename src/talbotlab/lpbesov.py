"""Dyadic frequency blocks of zonal spectra and their sup norms.

A sharp Littlewood-Paley projection restricts a zonal spectrum to a
dyadic shell [N, 2N) of degrees.  The decay of the block sup norms
across levels is the B^gamma_{infty,infty} reading of C^gamma, which
``experiments.run_zonal_holder`` fits.

Level convention: the probe level j >= 1 is the sharp shell with
N = 2^j, and level 0 absorbs everything below frequency 2, so the
levels partition the whole spectrum.

Each block is an even trigonometric polynomial in the polar angle
(``specialfun.zonal_cosine_blocks``), so its samples on the uniform
theta grid come from the T^1 torus transform (``evolve.torus_strips``).
"""

from __future__ import annotations

import numpy as np

from . import specialfun as sf
from .evolve import torus_strips
from .spectra import ZonalSpectrum

__all__ = [
    "probe_edges",
    "block_norm_table",
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


def block_norm_table(spec: ZonalSpectrum, j_max: int) -> np.ndarray:
    """Block sup norms ||P_{2^j} u||_{L^infinity} for probe levels j = 0..j_max.

    Parameters
    ----------
    spec : ZonalSpectrum
        Spectrum to decompose (evolved data is passed in already
        propagated).
    j_max : int
        Largest probe level.

    Returns
    -------
    ndarray
        The sup norm of level j at index j.  Each block is turned into
        its Gegenbauer cosine series, a T^1 spectrum in theta
        (``specialfun.zonal_cosine_blocks``), and sampled by the torus
        transform (``evolve.torus_strips``) on the uniform theta grid of
        [0, pi], one block at a time.  The grid has 8 points per top
        degree, at least 512 and at most 2^17.
    """
    if not isinstance(spec, ZonalSpectrum):
        raise TypeError("block norms are implemented for zonal spectra")
    edges = probe_edges(j_max)
    grid_points = min(max(512, _OVERSAMPLE * int(edges[-1])), 1 << 17)
    # linspace(0, pi, grid_points) is the first grid_points samples of
    # the circle grid of this period.  Each block's samples are reduced
    # before the next block is sampled: they are far larger than its
    # coefficients, and holding every block's at once would set the
    # peak memory.
    period = 2 * (grid_points - 1)

    def sup(samples):
        return float(np.max(np.abs(samples[:grid_points])))

    return np.array([torus_strips(block, period, sup)[0]
                     for block in sf.zonal_cosine_blocks(spec.coef, spec.d, edges)])
