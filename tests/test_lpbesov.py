"""Littlewood-Paley blocks, Besov probes, and the averaging operator."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from talbotlab.lpbesov import (
    besov_norm_probe,
    block_norm_table,
    default_bump,
    deliu_jawerth_probe,
    holder_exponent_fit,
    probe_edges,
    sharp_block,
    sharp_low_block,
    shift_operator_s2,
    smooth_block,
    smooth_block_weights,
)
from talbotlab.evolve import propagate_sphere, time_panel
from talbotlab.specialfun import cosine_series_fft, zonal_cosine_blocks
from talbotlab.spectra import ZonalSpectrum, random_phase, zonal_decay_family


def test_bump_support_and_range():
    bump = default_bump()
    t = np.linspace(0.0, 3.0, 601)
    vals = bump(t)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[t < 0.5] == 0.0)
    assert np.all(vals[t > 2.0] == 0.0)
    assert bump(1.0) == pytest.approx(1.0)


@settings(max_examples=60)
@given(t=st.floats(0.51, 100.0))
def test_bump_dyadic_partition_of_unity(t):
    bump = default_bump()
    total = sum(bump(t / 2.0**j) for j in range(-2, 12))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_smooth_block_weights_partition():
    bump = default_bump()
    n_max = 300
    total = np.zeros(n_max + 1)
    for j in range(0, 12):
        w = smooth_block_weights(bump, j, n_max)
        total += w
        nz = np.nonzero(w)[0]
        if j >= 2 and nz.size:
            assert nz.min() > 2 ** (j - 2)
            assert nz.max() < 2**j
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_smooth_blocks_resum_to_the_spectrum():
    spec = zonal_decay_family(1.2, 200)
    total = sum(smooth_block(spec, j).coef for j in range(0, 12))
    np.testing.assert_allclose(total, spec.coef, atol=1e-12)


def test_sharp_blocks_are_a_parseval_partition():
    spec = random_phase(zonal_decay_family(0.9, 127), seed=4)
    pieces = [sharp_low_block(spec)] + [sharp_block(spec, 2**j) for j in range(0, 7)]
    total_sq = sum(p.l2_norm() ** 2 for p in pieces)
    assert total_sq == pytest.approx(spec.l2_norm() ** 2, rel=1e-12)
    recon = sum(p.coef for p in pieces)
    np.testing.assert_array_equal(recon, spec.coef)


def test_block_support_ranges():
    spec = zonal_decay_family(1.0, 63)
    piece = sharp_block(spec, 8)
    nz = np.nonzero(piece.coef)[0]
    assert nz.min() == 8 and nz.max() == 15
    low = sharp_low_block(spec)
    assert np.nonzero(low.coef)[0].max() <= 1


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
        assert norm == pytest.approx(manual, rel=1e-9), j


def test_block_norms_are_holder_ordered():
    """On a probability measure, L^p block norms increase with p."""
    spec = random_phase(zonal_decay_family(1.1, 127), seed=9)
    tables = [block_norm_table(spec, p, 6) for p in (1.0, 2.0, np.inf)]
    for lo, hi in zip(tables, tables[1:]):
        assert np.all(np.asarray(lo.norms) <= np.asarray(hi.norms) * (1 + 1e-9))


def test_block_norm_single_mode_sup():
    """For a single mode the sup block norm is the harmonic's maximum."""
    coef = np.zeros(33, dtype=complex)
    coef[20] = 2.0
    spec = ZonalSpectrum(d=2, coef=coef)
    table = block_norm_table(spec, np.inf, 5, grid_points=20001)
    theta = np.linspace(0.0, math.pi, 400001)
    exact = 2.0 * np.max(np.abs(math.sqrt(41) * eval_legendre(20, np.cos(theta))))
    assert table.norms[4] == pytest.approx(exact, rel=1e-6)
    assert all(n == 0 for j, n in zip(table.levels, table.norms) if j != 4)


def test_holder_fit_recovers_synthetic_exponent():
    j = np.arange(13)
    gamma_hat, stderr, dropped = holder_exponent_fit(3.0 * 2.0 ** (-0.62 * j))
    assert gamma_hat == pytest.approx(0.62, abs=1e-10)
    assert stderr < 1e-10
    assert dropped == []
    gamma_win, _, _ = holder_exponent_fit(2.0 ** (-0.3 * j), window=(4, 10))
    assert gamma_win == pytest.approx(0.3, abs=1e-10)


def test_holder_fit_drops_vanishing_blocks():
    norms = [1.0, 0.5, 0.0, 0.125, 0.0625, 0.03125, 0.015625]
    gamma_hat, _, dropped = holder_exponent_fit(norms)
    assert dropped == [2]
    assert gamma_hat == pytest.approx(1.0, abs=1e-10)


def test_besov_probe_flags_the_critical_level():
    spec = zonal_decay_family(1.5, 511)
    value, argmax = besov_norm_probe(spec, 0.4, 2.0, 8)
    table = block_norm_table(spec, 2.0, 8)
    weighted = 2.0 ** (0.4 * np.asarray(table.levels)) * np.asarray(table.norms)
    assert value == pytest.approx(float(np.max(weighted)), rel=1e-9)
    assert argmax == int(np.argmax(weighted))


def test_deliu_jawerth_probe_growth_sign():
    """The weighted L1 probe grows above the critical weight, decays below."""
    spec = zonal_decay_family(1.5, 1023)
    above = deliu_jawerth_probe(spec, 1.8, 9)
    below = deliu_jawerth_probe(spec, 1.0, 9)
    assert set(above) >= {"levels", "weighted_norms", "growth"}
    assert above["growth"].slope > 0.1
    assert below["growth"].slope < -0.1


def test_shift_operator_multiplier():
    spec = random_phase(zonal_decay_family(1.0, 24), seed=6)
    theta = 0.8
    out = shift_operator_s2(spec, theta)
    mult = out.coef / spec.coef
    ref = eval_legendre(np.arange(25), math.cos(theta))
    np.testing.assert_allclose(mult.real, ref, atol=1e-12)
    np.testing.assert_allclose(mult.imag, 0.0, atol=1e-12)
    ident = shift_operator_s2(spec, 0.0)
    np.testing.assert_allclose(ident.coef, spec.coef, atol=1e-14)


@settings(max_examples=25)
@given(theta=st.floats(0.0, math.pi))
def test_shift_operator_is_a_contraction(theta):
    spec = zonal_decay_family(0.8, 16)
    out = shift_operator_s2(spec, theta)
    assert out.l2_norm() <= spec.l2_norm() * (1 + 1e-12)


def test_shift_operator_input_validation():
    with pytest.raises(ValueError):
        shift_operator_s2(zonal_decay_family(1.0, 4, d=3), 0.5)
    with pytest.raises(ValueError):
        shift_operator_s2(zonal_decay_family(1.0, 4), -0.1)


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
    assert block_sup == pytest.approx(float(np.max(np.abs(samples))), rel=1e-14)
    with mpmath.workdps(40):
        for k in (0, 1, 21845, grid - 1):
            theta = mpmath.pi * k / (grid - 1)
            exact = _mpmath_legendre_block(spec.coef, edges[j_max], edges[j_max + 1], theta)
            assert abs(samples[k] - exact) < 1e-10 * block_sup
