"""Dyadic block sup norms of zonal spectra."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre

from conftest import cosine_series_fft, random_phase
from talbotlab.lpbesov import block_norm_table, probe_edges
from talbotlab.evolve import evaluate_torus, propagate_sphere, time_panel
from talbotlab.specialfun import zonal_cosine_blocks
from talbotlab.spectra import ZonalSpectrum, zonal_decay_family


def test_probe_edges_partition_degrees():
    edges = probe_edges(6)
    assert edges[0] == 0 and edges[-1] == 2**7
    assert all(int(b) == 2 ** (i + 1) for i, b in enumerate(edges[1:]))


def test_block_sup_bounds_the_l2_block_norm():
    """On a probability measure a block's L^2 norm, which Parseval reads
    off its coefficients, is at most its sup norm."""
    spec = random_phase(zonal_decay_family(1.1, 127), seed=9)
    sups = block_norm_table([spec], 6)[0]
    edges = probe_edges(6)
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        l2 = math.sqrt(float(np.sum(np.abs(spec.coef[lo:hi]) ** 2)))
        assert 0.0 < l2 <= sups[j] * (1 + 1e-9), j


def test_block_norm_single_mode_sup():
    """For a single mode the sup block norm is the harmonic's maximum.
    |P_20| peaks at theta = 0, a point of every block's grid."""
    coef = np.zeros(33, dtype=complex)
    coef[20] = 2.0
    spec = ZonalSpectrum(d=2, coef=coef)
    norms = block_norm_table([spec], 5)[0]
    theta = np.linspace(0.0, math.pi, 400001)
    exact = 2.0 * np.max(np.abs(math.sqrt(41) * eval_legendre(20, np.cos(theta))))
    assert norms.shape == (6,)
    assert norms[4] == pytest.approx(exact, rel=1e-6, abs=0.0)
    assert all(n == 0 for j, n in enumerate(norms) if j != 4)


def test_blocks_past_n_max_have_sup_zero():
    """At n_max = 10 the levels 4 and 5 hold no degree: their blocks are
    one-coefficient zero spectra and read exactly 0, the others do not."""
    spec = random_phase(zonal_decay_family(1.1, 10), seed=3)
    blocks = [block for block, in zonal_cosine_blocks(spec.coef[:, None], spec.d,
                                                       probe_edges(5))]
    assert [block.m_max for block in blocks] == [1, 3, 7, 10, 0, 0]
    assert np.all(blocks[4].coef == 0.0) and np.all(blocks[5].coef == 0.0)
    norms = block_norm_table([spec], 5)[0]
    assert np.all(norms[:4] > 0.0) and np.all(norms[4:] == 0.0)


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


def _period(m_max):
    """A block's sampling period: the first power of two from 64 up that
    holds 16 points per unit of its top degree."""
    period = 64
    while period < 16 * m_max:
        period *= 2
    return period


def _criterion_4_blocks(times):
    """The criterion-4 data at n_max = 8191 propagated to ``times``, and
    its blocks of the levels 0..12, level by level."""
    specs = [propagate_sphere(zonal_decay_family(1.5, 8191), t) for t in times]
    coef = np.stack([spec.coef for spec in specs], axis=1)
    return specs, [list(per_spec) for per_spec in zonal_cosine_blocks(coef, 2, probe_edges(12))]


def test_zonal_grid_block_matches_mpmath_at_acceptance_scale():
    """Criterion-4 data at n_max = 8191 and the first panel time, each
    block on its own period: every block sup agrees to 1e-15 relative
    with the one FFT of the block's cosine series at that period (the
    sampling path before the torus transform), over the grid of
    [0, pi], and the top block (j = 12, degrees 4096..8191, period
    131,072) of both paths is checked at both poles and two interior
    grid points against a 40-digit recurrence."""
    j_max = 12
    (spec,), levels = _criterion_4_blocks(time_panel()[:1])
    blocks = [block for block, in levels]
    edges = probe_edges(j_max)
    half = [_period(block.m_max) // 2 for block in blocks]
    cosine = [cosine_series_fft(block, 2 * h)[:h + 1] for block, h in zip(blocks, half)]
    sups = block_norm_table([spec], j_max)[0]
    np.testing.assert_allclose(sups, [np.max(np.abs(c)) for c in cosine], rtol=1e-15, atol=0.0)
    top = half[j_max]
    assert top == 65536
    paths = {"torus": evaluate_torus(blocks[j_max], 2 * top)[:top + 1], "cosine": cosine[j_max]}
    assert float(np.max(np.abs(paths["torus"]))) == sups[j_max]
    points = (0, 1, 21845, top)
    errors = {name: [] for name in paths}
    with mpmath.workdps(40):
        for k in points:
            theta = mpmath.pi * k / top
            exact = _mpmath_legendre_block(spec.coef, edges[j_max], edges[j_max + 1], theta)
            for name, samples in paths.items():
                errors[name].append(abs(samples[k] - exact) / sups[j_max])
    for name, errs in errors.items():
        assert max(errs) < 1e-10, name
    closer = ["tie" if t == c else ("torus" if t < c else "cosine")
              for t, c in zip(errors["torus"], errors["cosine"])]
    print("top block against 40 digits, error relative to its sup at k =", points)
    for name, errs in errors.items():
        print(f"  {name}: " + ", ".join(f"{e:.3e}" for e in errs))
    print("  closer:", ", ".join(closer))


def test_block_sup_lies_in_its_certified_envelope():
    """Criterion-4 data at n_max = 8191 at all 8 panel times: for every
    block of top degree L on its period P, the sup over a grid 8 times
    finer (the cosine-series FFT oracle at period 8P) lies in
    [grid max, grid max sec(pi L / P)] (Ehlich-Zeller).  The fine grid
    holds every point of the coarse one, so the lower end holds to
    roundoff."""
    specs, levels = _criterion_4_blocks(time_panel())
    table = block_norm_table(specs, 12)
    gains, margins = [], []
    for j, per_spec in enumerate(levels):
        period = _period(per_spec[0].m_max)
        secant = 1.0 / math.cos(math.pi * per_spec[0].m_max / period)
        for i, block in enumerate(per_spec):
            fine = float(np.max(np.abs(cosine_series_fft(block, 8 * period)[:4 * period + 1])))
            grid = table[i, j]
            assert grid * (1.0 - 1e-15) <= fine <= grid * secant, (i, j)
            gains.append(fine / grid - 1.0)
            margins.append(grid * secant / fine - 1.0)
    print(f"fine / grid - 1 <= {max(gains):.2e}; upper end / fine - 1 >= {min(margins):.2e}")


def test_panel_table_rows_equal_one_spectrum_tables():
    """Each row of the table of several spectra is, bit for bit, the
    table of that spectrum alone; spectra of two degrees are refused."""
    data = random_phase(zonal_decay_family(1.1, 200), seed=4)
    specs = [propagate_sphere(data, t) for t in time_panel()[:3]]
    table = block_norm_table(specs, 7)
    assert table.shape == (3, 8)
    for i, spec in enumerate(specs):
        assert np.array_equal(table[i], block_norm_table([spec], 7)[0])
    with pytest.raises(ValueError):
        block_norm_table([specs[0], zonal_decay_family(1.1, 100)], 7)
