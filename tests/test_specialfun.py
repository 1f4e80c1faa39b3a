"""Zonal harmonics, the Gaussian-beam oracle and asymptotics against scipy closed forms."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, roots_jacobi, roots_legendre, sph_harm_y

from conftest import gaussian_beam, sphere_rule, zonal_oracle
from talbotlab.evolve import evaluate_torus
from talbotlab.specialfun import (
    SZEGO_REMAINDER_C,
    eigenspace_dimension,
    gauss_rule,
    jacobi_asymptotic,
    jacobi_symmetric,
    zonal_cosine_blocks,
    zonal_harmonic_table,
    zonal_series_blocks,
)

X_GRID = np.linspace(-1.0, 1.0, 201)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_jacobi_symmetric_matches_scipy(d):
    alpha = (d - 2) / 2
    for n in range(0, 25):
        ours = jacobi_symmetric(n, d, X_GRID)
        ref = eval_jacobi(n, alpha, alpha, X_GRID)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_zonal_harmonic_closed_forms(d):
    table = zonal_harmonic_table(29, d, X_GRID)
    for n in range(0, 30):
        np.testing.assert_allclose(table[n], zonal_oracle(n, d, X_GRID), rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orthonormality_gauss_jacobi(d):
    """Gram matrix of normalized zonal harmonics is the identity."""
    n_max = 24
    nodes, w = sphere_rule(d, 2 * n_max + 12)
    table = zonal_harmonic_table(n_max, d, nodes)
    gram = table @ (w[:, None] * table.T)
    defect = np.max(np.abs(gram - np.eye(n_max + 1)))
    assert defect < 1e-10


def test_table_matches_scalar_calls():
    x = np.linspace(-0.99, 0.99, 7)
    table = zonal_harmonic_table(12, 3, x)
    for n in range(13):
        np.testing.assert_allclose(table[n], zonal_oracle(n, 3, x), rtol=1e-12, atol=1e-12)


# Node rounding (about 1e-16) times the relative slope of the
# Christoffel function at the end nodes, which grows like N^2, bounds the
# weights.  scipy's roots_jacobi weights on S^3 miss this bound by 8x
# (N = 32) to 240x (N = 1032).
def _weight_bound(count):
    return 5e-17 * count**2


@pytest.mark.parametrize("count", [32, 136, 528, 1032])
def test_gauss_rule_closed_forms(count):
    """S^1: Gauss-Chebyshev, nodes cos((2k-1) pi / 2N) and equal weights.
    S^3: nodes cos(k pi / (N+1)) and weights proportional to
    sin^2(k pi / (N+1)).  S^2: the nodes of scipy's roots_legendre."""
    k = np.arange(1, count + 1)
    nodes, weights = gauss_rule(count, 1)
    np.testing.assert_allclose(nodes, np.cos((2 * k[::-1] - 1) * np.pi / (2 * count)),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights, 1.0 / count, rtol=_weight_bound(count), atol=0.0)
    theta = k[::-1] * np.pi / (count + 1)
    nodes, weights = gauss_rule(count, 3)
    np.testing.assert_allclose(nodes, np.cos(theta), rtol=0.0, atol=1e-15)
    exact = np.sin(theta) ** 2
    np.testing.assert_allclose(weights, exact / exact.sum(), rtol=_weight_bound(count), atol=0.0)
    nodes, _ = gauss_rule(count, 2)
    np.testing.assert_allclose(nodes, roots_jacobi(count, 0.0, 0.0)[0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_gauss_rule_against_scipy_nodes(d):
    """Newton converges from the asymptotic guesses in every dimension,
    including the one-node rule; nodes ascend, the rule is exactly
    symmetric about 0, weights sum to one."""
    alpha = (d - 2) / 2
    for count in (1, 2, 3, 17, 100):
        nodes, weights = gauss_rule(count, d)
        np.testing.assert_allclose(nodes, roots_jacobi(count, alpha, alpha)[0],
                                   rtol=0.0, atol=1e-15)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)


def test_recurrence_walks_keep_a_few_rows():
    """gauss_rule keeps only the last two rows of each Newton walk and a
    running sum of squares for its weights, and jacobi_symmetric only
    row n.  Walks that store the whole row table peak at 8.2 MiB for the
    1032-node rule of strichartz.l4_norm_beam(512) on S^2 and at 2.1 MB
    for specfun-check's largest degree (n = 512 at 512 points); these
    peak at 0.07 MiB and 29 kB."""
    x = np.cos(np.linspace(0.1, 3.0, 512))
    tracemalloc.start()
    try:
        gauss_rule(1032, 2)
        rule_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        jacobi_symmetric(512, 2, x)
        row_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rule_peak < 2**20
    assert row_peak < 2**16


def test_dimension_checks():
    """The rule needs d >= 1 (S^1 is the meridian average); harmonic
    tables, like kappa, need a sphere of dimension at least 2."""
    for d in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            gauss_rule(8, d)
    with pytest.raises(ValueError, match="at least one node"):
        gauss_rule(0, 2)
    for d in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            zonal_harmonic_table(4, d, [0.5])


@pytest.mark.parametrize("d,expected", [(2, 5), (3, 9), (4, 14), (5, 20)])
def test_eigenspace_dimension_degree_two(d, expected):
    assert eigenspace_dimension(2, d) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kernel_value_at_one_is_dimension(d):
    """The reproducing kernel at the pole, Z_n(1) = Y_n(1)^2, is dim_n."""
    table = zonal_harmonic_table(14, d, [1.0])
    for n in range(0, 15):
        assert table[n, 0] ** 2 == pytest.approx(eigenspace_dimension(n, d), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_reproduces_projection(d):
    """Pairing a zonal series with Z_n = sqrt(dim_n) Y_n recovers the
    degree-n term at the pole."""
    n_max = 10
    coef = np.linspace(1.0, 0.2, n_max + 1) * np.exp(1j * np.arange(n_max + 1))
    nodes, w = sphere_rule(d, 3 * n_max + 12)
    series = zonal_series_blocks(coef, d, nodes, [0, n_max + 1])[0]
    for n in (0, 3, 7, 10):
        kern = math.sqrt(eigenspace_dimension(n, d)) * zonal_oracle(n, d, nodes)
        proj = np.sum(w * kern * series)
        expected = coef[n] * math.sqrt(eigenspace_dimension(n, d))
        assert proj == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_zonal_case_of_spherical_harmonic():
    theta = np.linspace(0.0, np.pi, 11)
    table = zonal_harmonic_table(7, 2, np.cos(theta))
    for n in (0, 2, 7):
        np.testing.assert_allclose(
            math.sqrt(4 * math.pi) * sph_harm_y(n, 0, theta, 0.0),
            table[n].astype(complex),
            rtol=1e-11,
            atol=1e-12,
        )


def test_gaussian_beam_is_extreme_harmonic():
    """The test oracle conftest.gaussian_beam is scipy's Y_n^n, rescaled."""
    theta = np.linspace(0.05, np.pi - 0.05, 13)
    phi = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
    for n in (1, 4, 9):
        np.testing.assert_allclose(
            gaussian_beam(n, theta, phi),
            math.sqrt(4 * math.pi) * sph_harm_y(n, n, theta, phi),
            rtol=1e-10,
        )


def test_gaussian_beam_unit_mass():
    """The beam has unit L2 norm in the probability measure."""
    nodes, weights = roots_legendre(80)
    for n in (1, 5, 20):
        vals = np.abs(gaussian_beam(n, np.arccos(nodes), 0.0)) ** 2
        mass = 0.5 * np.sum(weights * vals)
        assert mass == pytest.approx(1.0, rel=1e-12, abs=0.0)


# |Y_n(theta)| <= 2 n^{(d-1)/2} / <n theta>^{(d-1)/2} on [0, pi/2]; the
# sup of the ratio over n <= 1024 is about sqrt(2), attained at the pole.
ENVELOPE_C = 2.0


@pytest.mark.parametrize("d", [2, 3])
def test_supremum_envelope(d):
    theta = np.linspace(1e-3, np.pi / 2, 400)
    table = zonal_harmonic_table(200, d, np.cos(theta))
    for n in (4, 16, 64, 200):
        vals = np.abs(table[n])
        bound = ENVELOPE_C * (n / np.sqrt(1.0 + (n * theta) ** 2)) ** ((d - 1) / 2.0)
        assert np.all(vals <= bound * (1 + 1e-12))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_asymptotic_error_within_stated_remainder(n, d):
    lo, hi = 8.0 / n, np.pi - 8.0 / n
    theta = np.linspace(lo * 1.01, hi * 0.99, 300)
    approx = jacobi_asymptotic(n, d, theta)
    exact = jacobi_symmetric(n, d, np.cos(theta))
    remainder = SZEGO_REMAINDER_C[d] * n**-1.5 / np.sin(theta)
    assert np.all(np.abs(approx - exact) <= remainder)


def test_asymptotic_outside_window_rejected():
    with pytest.raises(ValueError):
        jacobi_asymptotic(64, 2, np.array([0.05]))
    with pytest.raises(ValueError):
        jacobi_asymptotic(64, 2, np.array([np.pi - 0.05]))


@settings(max_examples=40)
@given(n=st.integers(0, 40), d=st.integers(2, 5), x=st.floats(-1.0, 1.0))
def test_parity_property(n, d, x):
    left, right = zonal_harmonic_table(n, d, [-x, x])[n]
    right *= (-1) ** n
    assert abs(left - right) <= 1e-9 * (1 + abs(left))


@st.composite
def _zonal_blocks_case(draw):
    d = draw(st.sampled_from([2, 3, 4, 5, 6]))
    n_max = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    cuts = draw(st.sets(st.integers(0, 2 * n_max + 8), min_size=2, max_size=8))
    n_points = draw(st.integers(1, 2 * n_max + 40))
    return d, n_max, seed, sorted(cuts), n_points


def _table_block_sums(coef, d, x, edges):
    """Block sums straight from the rows of zonal_harmonic_table."""
    table = zonal_harmonic_table(coef.size - 1, d, x)
    return np.array([coef[lo:hi] @ table[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])])


ALIAS_WARNING = r"grid smaller than 2\*m_max\+1 aliases"


def _block_samples(block, grid_size):
    """evaluate_torus of a block, which must warn exactly when the grid
    folds its frequencies."""
    if grid_size < 2 * block.m_max + 1:
        with pytest.warns(UserWarning, match=ALIAS_WARNING):
            return evaluate_torus(block, grid_size)
    return evaluate_torus(block, grid_size)


@settings(max_examples=60)
@given(case=_zonal_blocks_case())
def test_torus_sampled_blocks_match_recurrence_table(case):
    """Torus-transform samples of each block agree with the recurrence
    rows, on the polar grid [0, pi] and on the great circle, for any
    grid length (short grids fold high frequencies)."""
    d, n_max, seed, edges, n_points = case
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    scale = 1.0 + np.sum(np.abs(coef) * np.sqrt(
        [eigenspace_dimension(n, d) for n in range(n_max + 1)]))
    blocks = zonal_cosine_blocks(coef, d, edges)
    assert len(blocks) == len(edges) - 1

    theta = np.linspace(0.0, math.pi, n_points)
    polar = np.array([_block_samples(b, max(2 * (n_points - 1), 1))[:n_points]
                      for b in blocks])
    ref = _table_block_sums(coef, d, np.cos(theta), edges)
    np.testing.assert_allclose(polar, ref, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(zonal_series_blocks(coef, d, np.cos(theta), edges),
                               ref, rtol=0, atol=1e-12 * scale)

    s = 2.0 * math.pi * np.arange(n_points) / n_points
    circle = np.array([_block_samples(b, n_points) for b in blocks])
    ref = _table_block_sums(coef, d, np.cos(s), edges)
    np.testing.assert_allclose(circle, ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("d", [2, 3])
def test_single_degree_cosine_block_matches_mpmath(d):
    """The block of coef = e_n at n = 8191 is the Gegenbauer cosine
    expansion itself: the even spectrum with beta_{+-(n-2j)} =
    sqrt(dim_n) / C_n^lambda(1) g_j g_{n-j}, g_k = (lambda)_k / k!,
    here against 40-digit values to 1e-14 relative in every entry."""
    n = 8191
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    block = zonal_cosine_blocks(coef, d, [n, n + 1])[0]
    assert block.d == 1 and block.m_max == n
    beta = block.coef
    assert np.array_equal(beta, beta[::-1])
    assert np.all(beta.imag == 0.0) and np.all(beta[1::2] == 0.0)
    with mpmath.workdps(40):
        lam = mpmath.mpf(d - 1) / 2
        g = [mpmath.rf(lam, k) / mpmath.factorial(k) for k in range(n + 1)]
        at_one = mpmath.rf(2 * lam, n) / mpmath.factorial(n)  # C_n^lambda(1)
        norm = mpmath.sqrt(eigenspace_dimension(n, d)) / at_one
        exact = np.array([float(norm * g[j] * g[n - j]) for j in range(n // 2 + 1)])
    got = beta.real[2 * n::-2][:n // 2 + 1]
    assert np.max(np.abs(got - exact) / exact) < 1e-14


def test_zonal_block_folds_past_its_period():
    """Grids shorter than a block's 2 m_max + 1 frequencies fold them by
    summation, so the samples stay exact: a six-degree block on circles
    of 1 to 12 points against the recurrence rows at cos(s_k)."""
    coef = np.array([0.5, 1.0, -2.0, 0.25j, 3.0, 1.5])
    block = zonal_cosine_blocks(coef, 2, [0, coef.size])[0]
    for period in (1, 2, 3, 4, 5, 7, 12):
        s = 2.0 * math.pi * np.arange(period) / period
        direct = coef @ zonal_harmonic_table(coef.size - 1, 2, np.cos(s))
        np.testing.assert_allclose(_block_samples(block, period), direct,
                                   rtol=0, atol=1e-13)


def test_zonal_blocks_reject_bad_edges():
    coef = np.ones(5)
    for edges in ([0], [0, 3, 3], [4, 2]):
        with pytest.raises(ValueError):
            zonal_cosine_blocks(coef, 2, edges)
        with pytest.raises(ValueError):
            zonal_series_blocks(coef, 2, [0.5], edges)
