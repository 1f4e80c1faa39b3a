"""Dyadic block norms of zonal spectra and the Holder exponent fit."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre

from conftest import random_phase
from talbotlab.lpbesov import block_norm_table, holder_exponent_fit, probe_edges
from talbotlab.evolve import propagate_sphere, time_panel
from talbotlab.specialfun import cosine_series_fft, zonal_cosine_blocks
from talbotlab.spectra import ZonalSpectrum, zonal_decay_family


def test_probe_edges_partition_degrees():
    edges = probe_edges(6)
    assert edges[0] == 0 and edges[-1] == 2**7
    assert all(int(b) == 2 ** (i + 1) for i, b in enumerate(edges[1:]))


def test_block_norm_table_l2_matches_parseval():
    spec = zonal_decay_family(1.5, 255)
    table = block_norm_table(spec, 2.0, 7)
    for j, norm in zip(table.levels, table.norms):
        lo = 0 if j == 0 else 2**j
        hi = min(2 ** (j + 1), 256)
        manual = math.sqrt(float(np.sum(np.abs(spec.coef[lo:hi]) ** 2)))
        assert norm == pytest.approx(manual, rel=1e-9, abs=0.0), j


def test_block_norms_are_holder_ordered():
    """On a probability measure, L^p block norms increase with p."""
    spec = random_phase(zonal_decay_family(1.1, 127), seed=9)
    tables = [block_norm_table(spec, p, 6) for p in (1.0, 2.0, np.inf)]
    for lo, hi in zip(tables, tables[1:]):
        assert np.all(np.asarray(lo.norms) <= np.asarray(hi.norms) * (1 + 1e-9))


def test_block_norm_single_mode_sup():
    """For a single mode the sup block norm is the harmonic's maximum.
    |P_20| peaks at theta = 0, a point of the default grid."""
    coef = np.zeros(33, dtype=complex)
    coef[20] = 2.0
    spec = ZonalSpectrum(d=2, coef=coef)
    table = block_norm_table(spec, np.inf, 5)
    theta = np.linspace(0.0, math.pi, 400001)
    exact = 2.0 * np.max(np.abs(math.sqrt(41) * eval_legendre(20, np.cos(theta))))
    assert table.norms[4] == pytest.approx(exact, rel=1e-6, abs=0.0)
    assert all(n == 0 for j, n in zip(table.levels, table.norms) if j != 4)


def test_holder_fit_recovers_synthetic_exponent():
    j = np.arange(13)
    gamma_hat, stderr, dropped = holder_exponent_fit(3.0 * 2.0 ** (-0.62 * j), window=(0, 12))
    assert gamma_hat == pytest.approx(0.62, abs=1e-10)
    assert stderr < 1e-10
    assert dropped == []
    gamma_win, _, _ = holder_exponent_fit(2.0 ** (-0.3 * j), window=(4, 10))
    assert gamma_win == pytest.approx(0.3, abs=1e-10)


def test_holder_fit_drops_vanishing_blocks():
    norms = [1.0, 0.5, 0.0, 0.125, 0.0625, 0.03125, 0.015625]
    gamma_hat, _, dropped = holder_exponent_fit(norms, window=(0, 6))
    assert dropped == [2]
    assert gamma_hat == pytest.approx(1.0, abs=1e-10)


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
    block_sup = block_norm_table(spec, "inf", j_max).norms[j_max]
    assert block_sup == pytest.approx(float(np.max(np.abs(samples))), rel=1e-14, abs=0.0)
    with mpmath.workdps(40):
        for k in (0, 1, 21845, grid - 1):
            theta = mpmath.pi * k / (grid - 1)
            exact = _mpmath_legendre_block(spec.coef, edges[j_max], edges[j_max + 1], theta)
            assert abs(samples[k] - exact) < 1e-10 * block_sup
