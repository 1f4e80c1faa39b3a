"""Space-time norms of linear flows and the pair-frequency decomposition."""

import math
import tracemalloc

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_legendre

from conftest import (
    bilinear_l2_by_class,
    gaussian_beam,
    kappa,
    pair_frequency_classes,
    random_phase,
)
from talbotlab.evolve import propagate_sphere
from talbotlab.gaunt import QuadratureRule
from talbotlab.specialfun import zonal_harmonic_table
from talbotlab.spectra import ZonalSpectrum, zonal_decay_family
from talbotlab.strichartz import bilinear_l2, l4_norm_beam


def beam_l4_closed(n):
    """Closed form of ||Y_n^n||^4_{L^4(S^2)} via Wallis integrals (oracle).

    The highest-weight harmonic has |Y_n^n|^2 = c_n^2 sin^{2n}(theta)
    with c_n^2 = (2n+1)! / (4^n (n!)^2); the quartic integral is a
    Beta function, giving exactly 6/5 at n = 1.
    """
    log_c2 = math.log(2 * n + 1) + gammaln(2 * n + 1) - 2 * gammaln(n + 1) - n * math.log(4)
    log_int = 0.5 * math.log(math.pi) + gammaln(2 * n + 1) - gammaln(2 * n + 1.5)
    return math.exp(2 * log_c2 + log_int - math.log(2))


def beam_l4_quadrature(n):
    """||Y_n^n||^4_{L^4(S^2)} by exact quadrature (oracle of the closed
    form of ``strichartz.l4_norm_beam``): c_n^4 (1 - x^2)^{2n}, with
    c_n^2 in log-gamma form, summed on the library's rule of degree 4n."""
    rule = QuadratureRule.for_degree(4 * n, 2)
    log_c2 = (
        math.log(2 * n + 1)
        + math.lgamma(2 * n + 1)
        - 2.0 * math.lgamma(n + 1)
        - n * math.log(4.0)
    )
    values = np.exp(2.0 * log_c2 + 2.0 * n * np.log1p(-rule.nodes**2))
    return rule.integrate(values)


def l4_norm_spacetime(f, block_n):
    """||P_N e^{it Delta} f||_{L^4(S^d x [0, 2 pi])} = ||u^2||_{L^2}^{1/2}."""
    return math.sqrt(bilinear_l2(f, f, block_n, [block_n])[0])


def alpha_count(block_n, block_m, tau, d=2):
    """Number of pairs n in [N, 2N), m in [M, 2M) with lambda_n + lambda_m = tau
    (oracle): scan n and solve m (m + d - 1) = tau - lambda_n for an integer m."""
    if block_m > block_n:
        raise ValueError("expects N >= M")
    count = 0
    shift = d - 1
    for n in range(block_n, 2 * block_n):
        rest = tau - n * (n + shift)
        if rest < 0:
            continue
        disc = shift * shift + 4 * rest
        root = math.isqrt(disc)
        if root * root != disc or (root - shift) % 2 != 0:
            continue
        if block_m <= (root - shift) // 2 < 2 * block_m:
            count += 1
    return count


def l4_spacetime_grid(f, block_n, t_points=None):
    """Dense t-grid evaluation of the space-time L^4 norm (oracle).

    Exact for band-limited data when the uniform t grid exceeds the
    bandwidth of |u|^4 (a trig polynomial), but the required grid
    grows like N^2; intended for small truncations only.
    """
    d = f.d
    degrees = np.arange(block_n, min(2 * block_n, f.n_max + 1))
    if degrees.size == 0:
        return 0.0
    coef = f.coef[degrees]
    lam = degrees * (degrees + d - 1)
    if t_points is None:
        band = 2 * (int(lam.max()) - int(lam.min()))
        t_points = 2 * band + 8
    rule = QuadratureRule.for_degree(4 * (2 * block_n - 1), d)
    table = zonal_harmonic_table(int(degrees.max()), d, rule.nodes)[degrees]
    t = 2.0 * math.pi * np.arange(t_points) / t_points
    phases = np.exp(1j * np.outer(t, lam))
    fields = (phases * coef[None, :]) @ table
    quartic = np.abs(fields) ** 4
    per_t = quartic @ rule.weights
    return float(np.mean(per_t) ** 0.25)


def block_data(p, block_n, d=2, seed=17):
    """Power-law data supported on the dyadic block [N, 2N)."""
    coef = np.zeros(2 * block_n, dtype=complex)
    n = np.arange(block_n, 2 * block_n, dtype=float)
    coef[block_n:] = n**-p
    spec = ZonalSpectrum(d=d, coef=coef)
    return random_phase(spec, seed=seed)


@pytest.mark.parametrize("d", [2, 3])
def test_decomposition_partitions_all_pairs(d):
    classes = pair_frequency_classes(8, 4, d=d)
    assert sum(len(v) for v in classes.values()) == 8 * 4
    seen = set()
    for tau, pairs in classes.items():
        for n, m in pairs:
            assert n * (n + d - 1) + m * (m + d - 1) == tau
            assert (n, m) not in seen
            seen.add((n, m))
    assert len(seen) == 8 * 4


@pytest.mark.parametrize("d", [2, 3])
def test_alpha_count_matches_enumeration(d):
    for tau, pairs in pair_frequency_classes(16, 8, d=d).items():
        assert alpha_count(16, 8, tau, d=d) == len(pairs), tau
    missing_tau = 3  # far below every attainable class
    assert alpha_count(16, 8, missing_tau, d=d) == 0
    with pytest.raises(ValueError):
        alpha_count(4, 8, 100)


def test_alpha_count_stays_divisor_small():
    """Class sizes stay tiny while the pair count grows into the hundreds
    of thousands: the signature of the divisor-bound degeneracy count."""
    for block_m in (32, 64, 128, 256):
        classes = pair_frequency_classes(1024, block_m)
        worst = max(len(v) for v in classes.values())
        mean = sum(len(v) for v in classes.values()) / len(classes)
        assert worst <= 6
        assert worst < math.isqrt(block_m) + 2
        assert mean < 1.25


def test_bilinear_single_modes_reduce_to_kappa():
    for n, m in [(8, 4), (16, 5), (9, 9)]:
        f = ZonalSpectrum(d=2, coef=np.eye(1, 2 * n, n).ravel().astype(complex))
        g = ZonalSpectrum(d=2, coef=np.eye(1, 2 * m, m).ravel().astype(complex))
        ours = bilinear_l2(f, g, n, [m])[0]
        assert ours == pytest.approx(math.sqrt(kappa((n, n, m, m))), rel=1e-10, abs=0.0)


def test_bilinear_vanishes_for_zero_factor():
    f = block_data(1.5, 8)
    g = ZonalSpectrum(d=2, coef=np.zeros(8, dtype=complex))
    assert bilinear_l2(f, g, 8, [4])[0] == 0.0
    # N = M: every off-diagonal class {(n, m), (m, n)} has a cross term.
    zero = ZonalSpectrum(d=2, coef=np.zeros(16, dtype=complex))
    np.testing.assert_array_equal(bilinear_l2(f, zero, 8, [8, 2]), 0.0)
    np.testing.assert_array_equal(bilinear_l2(zero, f, 8, [8, 2]), 0.0)


CRITERION_8_BLOCKS = (4, 8, 16, 32, 64)


@pytest.mark.parametrize("block_m", CRITERION_8_BLOCKS)
def test_bilinear_matches_class_sum_at_criterion_8(block_m):
    """Criterion-8 data (p = 1.5, n_max 256, N = 128): moments plus
    cross terms on the one rule of M = 64 agree with the class-by-class
    sum on a rule sized for M alone."""
    data = zonal_decay_family(1.5, 256, d=2)
    expected = bilinear_l2_by_class(data, data, 128, block_m)
    ours = bilinear_l2(data, data, 128, CRITERION_8_BLOCKS)[CRITERION_8_BLOCKS.index(block_m)]
    assert ours == pytest.approx(expected, rel=1e-13, abs=0.0)


@st.composite
def bilinear_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    block_m = draw(st.integers(1, 12))
    block_n = draw(st.integers(block_m, 24))
    # Data that may stop inside, or short of, its block.
    f_top = draw(st.integers(block_n - 1, 2 * block_n + 2))
    g_top = draw(st.integers(block_m - 1, 2 * block_m + 2))
    return d, block_n, block_m, f_top, g_top, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60)
@given(bilinear_cases())
@example((2, 8, 8, 15, 15, 5))
@example((3, 6, 6, 9, 13, 7))
def test_bilinear_matches_class_sum_on_random_data(case):
    d, block_n, block_m, f_top, g_top, seed = case
    rng = np.random.default_rng(seed)

    def spectrum(top):
        return ZonalSpectrum(d=d, coef=rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1))

    f, g = spectrum(f_top), spectrum(g_top)
    expected = bilinear_l2_by_class(f, g, block_n, block_m)
    assert bilinear_l2(f, g, block_n, [block_m])[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g_d, block_ms, message", [
    (2, (), "at least one block start"),
    (2, (4, 16), "N >= M"),
    (2, (16,), "N >= M"),
    (3, (4,), "sphere dimension"),
    # M below 1 leaves an empty block: a zero norm the study divides by.
    (2, (0, 4), "at least 1"),
    (2, (-2, 4), "at least 1"),
])
def test_bilinear_rejects_bad_blocks(g_d, block_ms, message):
    f = block_data(1.5, 8)
    g = ZonalSpectrum(d=g_d, coef=np.ones(32, dtype=complex))
    with pytest.raises(ValueError, match=message):
        bilinear_l2(f, g, 8, block_ms)


def test_bilinear_peak_memory_at_criterion_8():
    """tracemalloc peak of the widest criterion-8 pairing (N = 128,
    M = 64, 1,885 cross pairs): the table, the moments and 64-pair
    chunks of cross terms.  Measured 1.84 MiB; the class-by-class
    loop took 2.25 MiB."""
    data = zonal_decay_family(1.5, 256, d=2)
    tracemalloc.start()
    try:
        bilinear_l2(data, data, 128, CRITERION_8_BLOCKS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_l4_spacetime_is_bilinear_self_pairing():
    f = block_data(1.5, 16)
    l4 = l4_spacetime_grid(f, 16)
    assert l4**2 == pytest.approx(bilinear_l2(f, f, 16, [16])[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("block_n", [4, 8])
def test_l4_spacetime_matches_dense_time_grid(block_n):
    f = block_data(1.2, block_n, seed=3)
    fast = l4_norm_spacetime(f, block_n)
    slow = l4_spacetime_grid(f, block_n)
    assert fast == pytest.approx(slow, rel=1e-10, abs=0.0)


def test_l4_spacetime_brute_force_oracle():
    """Average the spatial L4 norm over an explicit uniform time grid."""
    from scipy.special import eval_legendre

    block_n = 4
    f = block_data(1.0, block_n, seed=9)
    lam = [n * (n + 1) for n in range(block_n, 2 * block_n)]
    band = max(lam) - min(lam)
    t_count = 2 * band + 9
    nodes, weights = roots_legendre(120)
    table = np.array(
        [math.sqrt(2 * n + 1) * eval_legendre(n, nodes) for n in range(2 * block_n)]
    )
    total = 0.0
    for k in range(t_count):
        t = 2 * math.pi * k / t_count
        ut = propagate_sphere(f, t)
        vals = ut.coef @ table
        total += 0.5 * float(weights @ np.abs(vals) ** 4) / t_count
    assert l4_norm_spacetime(f, block_n) == pytest.approx(total**0.25, rel=1e-9, abs=0.0)


def test_beam_l4_closed_form_values():
    """I_0 = 1 and I_1 = 6/5 exactly; the running products match the
    log-gamma form and the exact quadrature of the integrand."""
    assert l4_norm_beam(0) == 1.0
    assert beam_l4_closed(1) == pytest.approx(6.0 / 5.0, rel=1e-12, abs=0.0)
    assert l4_norm_beam(1) == pytest.approx(6.0 / 5.0, rel=1e-15, abs=0.0)
    for n in (1, 2, 5, 16, 64, 256):
        assert l4_norm_beam(n) == pytest.approx(beam_l4_closed(n), rel=1e-10, abs=0.0)
        assert l4_norm_beam(n) == pytest.approx(beam_l4_quadrature(n), rel=1e-11, abs=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        l4_norm_beam(-1)


def test_beam_l4_at_criterion_8_degrees_against_mpmath():
    """Criterion 8's beam degrees n = 8 .. 512 against 40 digits of
    c_n^4 B(1/2, 2n + 1) / 2, c_n^2 = (2n + 1) binom(2n, n) / 4^n.
    Measured within 2.9e-15; the quadrature route was 8.6e-13 off and
    the log-gamma form 1.75e-12."""
    degrees = [2**k for k in range(3, 10)]
    with mpmath.workdps(40):
        exact = [float(((2 * n + 1) * mpmath.binomial(2 * n, n) / mpmath.mpf(4) ** n) ** 2
                       * mpmath.beta(0.5, 2 * n + 1) / 2) for n in degrees]
    np.testing.assert_allclose([l4_norm_beam(n) for n in degrees], exact, rtol=1e-14, atol=0.0)


def test_beam_l4_closed_form_oracle():
    """The Wallis closed form against Gauss-Legendre quadrature of |Y_n^n|^4."""
    for n in (2, 7, 31):
        x, w = roots_legendre(2 * n + 2)
        quartic = np.abs(gaussian_beam(n, np.arccos(x), 0.0)) ** 4
        expected = 0.5 * float(w @ quartic)
        assert beam_l4_closed(n) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_beam_l4_growth_exponent():
    """The quartic integral grows like sqrt(n), i.e. the L4 norm like n^{1/8}."""
    n = np.array([64, 128, 256, 512, 1024])
    vals = np.array([l4_norm_beam(int(k)) for k in n])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(n))
    assert np.all(slopes > 0.4) and np.all(slopes < 0.5)


def test_bilinear_contrast_between_close_and_separated_blocks():
    """Separated blocks pair more weakly than equal blocks."""
    f = block_data(1.5, 64, seed=13)
    g_far = block_data(1.5, 4, seed=14)
    g_near = block_data(1.5, 64, seed=14)
    far = bilinear_l2(f, g_far, 64, [4])[0] / (f.l2_norm() * g_far.l2_norm())
    near = bilinear_l2(f, g_near, 64, [64])[0] / (f.l2_norm() * g_near.l2_norm())
    assert far < near
