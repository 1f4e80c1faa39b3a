"""Dyadic frequency blocks of zonal spectra and their sup norms.

A sharp Littlewood-Paley projection restricts a zonal spectrum to a
dyadic shell [N, 2N) of degrees.  The decay of the block sup norms
across levels is the B^gamma_{infty,infty} reading of C^gamma, which
``experiments.run_zonal_holder`` fits.

Level convention: the probe level j >= 1 is the sharp shell with
N = 2^j, and level 0 absorbs everything below frequency 2, so the
levels partition the whole spectrum.

Each block is an even trigonometric polynomial in the polar angle
(``specialfun.zonal_cosine_blocks``), so its samples on a uniform
theta grid come from the T^1 torus transform (``evolve.torus_strips``).
A block of top degree L is sampled on its own period P, the smallest
power of two at least max(64, 16 L).  The grid maximum is then
certified: the true sup lies in [grid max, grid max sec(pi L / P)]
(Ehlich and Zeller 1964, applied to Re(e^{-i phi} block) for every
phase phi), and sec(pi L / P) <= sec(pi / 16) < 1.02.
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


def probe_edges(j_max: int) -> np.ndarray:
    """Degree breakpoints of the probe levels 0..j_max.

    Level 0 is [0, 2); level j >= 1 is [2^j, 2^{j+1}).  Together the
    levels partition all degrees below 2^{j_max+1}.
    """
    return np.array([0] + [2 ** (j + 1) for j in range(j_max + 1)], dtype=int)


def block_norm_table(specs, j_max: int) -> np.ndarray:
    """Block sup norms ||P_{2^j} u||_{L^infinity} of each spectrum, j = 0..j_max.

    Parameters
    ----------
    specs : iterable of ZonalSpectrum
        Spectra to decompose, all on one sphere and with one n_max
        (evolved data is passed in already propagated).  Only their
        coefficients are kept, so a generator of spectra is held as one
        stacked array.
    j_max : int
        Largest probe level.

    Returns
    -------
    ndarray
        Shape ``(number of spectra, j_max + 1)``: the grid maximum of
        level j of spectrum i at [i, j].  The blocks of all spectra are turned into
        their Gegenbauer cosine series, T^1 spectra in theta, in one
        pass (``specialfun.zonal_cosine_blocks``).  Each block of top
        degree L is sampled by the torus transform
        (``evolve.torus_strips``) on its own period P, the smallest power
        of two at least max(64, 16 L), and the maximum is taken over the
        first P/2 + 1 samples, the grid of [0, pi], since the block is
        even in theta.  The true sup lies in [entry, entry sec(pi L / P)],
        a factor below 1.02.
    """
    columns, shapes = [], set()
    for spec in specs:
        if not isinstance(spec, ZonalSpectrum):
            raise TypeError("block norms are implemented for zonal spectra")
        columns.append(spec.coef)
        shapes.add((spec.d, spec.n_max))
    if len(shapes) != 1:
        raise ValueError("need one or more spectra with one d and one n_max")
    (d, _), = shapes
    table = np.empty((len(columns), j_max + 1))
    blocks = sf.zonal_cosine_blocks(np.stack(columns, axis=1), d, probe_edges(j_max))
    del columns  # the conversion keeps its own weighted copy
    # Each block's samples are reduced before the next spectrum is
    # built: they are far larger than its coefficients.
    for level, per_spec in enumerate(blocks):
        for i, block in enumerate(per_spec):
            period = 1 << (max(64, 16 * block.m_max) - 1).bit_length()
            table[i, level] = torus_strips(block, period, lambda samples: float(
                np.max(np.abs(samples[:period // 2 + 1]))))[0]
    return table
