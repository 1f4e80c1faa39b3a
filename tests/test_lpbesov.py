"""Dyadic block sup norms of zonal spectra."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre

from conftest import random_phase
from talbotlab.lpbesov import block_norm_table, probe_edges
from talbotlab.evolve import propagate_sphere, time_panel
from talbotlab.specialfun import cosine_series_fft, zonal_cosine_blocks
from talbotlab.spectra import ZonalSpectrum, zonal_decay_family


def test_probe_edges_partition_degrees():
    edges = probe_edges(6)
    assert edges[0] == 0 and edges[-1] == 2**7
    assert all(int(b) == 2 ** (i + 1) for i, b in enumerate(edges[1:]))


def test_block_sup_bounds_the_l2_block_norm():
    """On a probability measure a block's L^2 norm, which Parseval reads
    off its coefficients, is at most its sup norm."""
    spec = random_phase(zonal_decay_family(1.1, 127), seed=9)
    sups = block_norm_table(spec, 6)
    edges = probe_edges(6)
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        l2 = math.sqrt(float(np.sum(np.abs(spec.coef[lo:hi]) ** 2)))
        assert 0.0 < l2 <= sups[j] * (1 + 1e-9), j


def test_block_norm_single_mode_sup():
    """For a single mode the sup block norm is the harmonic's maximum.
    |P_20| peaks at theta = 0, a point of the default grid."""
    coef = np.zeros(33, dtype=complex)
    coef[20] = 2.0
    spec = ZonalSpectrum(d=2, coef=coef)
    norms = block_norm_table(spec, 5)
    theta = np.linspace(0.0, math.pi, 400001)
    exact = 2.0 * np.max(np.abs(math.sqrt(41) * eval_legendre(20, np.cos(theta))))
    assert norms.shape == (6,)
    assert norms[4] == pytest.approx(exact, rel=1e-6, abs=0.0)
    assert all(n == 0 for j, n in enumerate(norms) if j != 4)


def _mpmath_legendre_block(coef, lo, hi, theta):
    """sum_{lo <= n < hi} coef[n] sqrt(2n+1) P_n(cos theta) by the Bonnet
    recurrence in 40-digit arithmetic."""
    x = mpmath.cos(theta)
    p_prev, p_cur = mpmath.mpf(0), mpmath.mpf(1)
    total = mpmath.mpc(0)
    for n in range(hi):
        if n >= lo:
            total += mpmath.mpc(coef[n]) * mpmath.sqrt(2 * n + 1) * p_cur
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
    return complex(total)


def test_zonal_grid_block_matches_mpmath_at_acceptance_scale():
    """Top block (j = 12, degrees 4096..8191) of the criterion-4 data at
    n_max = 8191 on the 65,536-point theta grid, checked at both poles
    and two interior grid points against a 40-digit recurrence."""
    n_max, j_max, grid = 8191, 12, 65536
    spec = propagate_sphere(zonal_decay_family(1.5, n_max), time_panel()[0])
    edges = probe_edges(j_max)
    samples = cosine_series_fft(zonal_cosine_blocks(spec.coef, 2, edges)[j_max],
                                2 * (grid - 1))[:grid]
    block_sup = block_norm_table(spec, j_max)[j_max]
    assert block_sup == pytest.approx(float(np.max(np.abs(samples))), rel=1e-14, abs=0.0)
    with mpmath.workdps(40):
        for k in (0, 1, 21845, grid - 1):
            theta = mpmath.pi * k / (grid - 1)
            exact = _mpmath_legendre_block(spec.coef, edges[j_max], edges[j_max + 1], theta)
            assert abs(samples[k] - exact) < 1e-10 * block_sup
