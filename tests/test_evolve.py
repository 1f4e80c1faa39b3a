"""Linear propagators, field evaluation, and rational-time quantization."""

import math

import mpmath
import numpy as np
import pytest

from conftest import random_phase, torus_coefficient
from talbotlab.evolve import (
    _unit_phases_rational,
    evaluate_torus,
    propagate_sphere,
    propagate_torus,
    quantization_check,
    quantization_weights,
    time_panel,
)
from talbotlab.experiments import DEFAULT_STEP_JUMPS, DEFAULT_TRIANGLE
from talbotlab.spectra import (
    TorusSpectrum,
    torus_polygon_indicator,
    torus_step,
    zonal_decay_family,
)

SQUARE_WAVE = ((0.0, 1.0), (math.pi, -1.0))


def torus_decay_family_2d(s, m_max):
    """T^2 data with f_hat(m) = <m>^{-1-s}."""
    m = np.arange(-m_max, m_max + 1, dtype=float)
    box = (1.0 + m[:, None] ** 2 + m[None, :] ** 2) ** (-(1.0 + s) / 2.0)
    return TorusSpectrum(d=2, m_max=m_max, coef=box.astype(complex))


def evaluate_torus_direct(spec, sizes):
    """sum f_hat(m) e^{i m.x} on the grid, one axis at a time (oracle)."""
    m = spec.frequencies()
    out = spec.coef
    for size in sizes:
        x = 2.0 * math.pi * np.arange(size) / size
        out = np.tensordot(out, np.exp(1j * np.outer(m, x)), axes=([0], [0]))
    return out


def evaluate_torus_ifftn(spec, t, grid_size):
    """u(t) by the full-box path (reference): phases e^{i t |m|^2} from the
    rounded product t |m|^2, coefficients scattered into a zero-padded
    grid box, one ``ifftn`` and a rescale by the grid volume."""
    m = spec.frequencies()
    eigs = sum(a * a for a in np.meshgrid(*([m] * spec.d), indexing="ij"))
    sizes = (grid_size,) * spec.d
    placed = np.zeros(sizes, dtype=complex)
    placed[np.ix_(*[np.mod(m, grid_size)] * spec.d)] = spec.coef * np.exp(1j * t * eigs)
    return np.fft.ifftn(placed) * float(np.prod(sizes))


def exact_quadratic_phase(t, n):
    """e^{i t n} for integers 0 <= n < 2^52: n split at bit 26 and t into a
    26-bit Veltkamp head and its tail, so both big products are exact."""
    scaled = 134217729.0 * t
    t_hi = scaled - (scaled - t)
    n_lo = n & ((1 << 26) - 1)
    return (np.exp(1j * ((n - n_lo) * t_hi)) * np.exp(1j * (n_lo * t_hi))
            * np.exp(1j * (n * (t - t_hi))))


def fsum_last_axis(terms):
    """math.fsum over the last axis of a complex array, real and imaginary
    parts apart."""
    rows = terms.reshape(-1, terms.shape[-1])
    sums = [complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())) for row in rows]
    return np.array(sums).reshape(terms.shape[:-1])


def field_direct_sums(spec, t, grid_size, indices):
    """sum_m f_hat(m) e^{i t |m|^2} e^{i m.x_j} on the sub-grid of the
    index lists ``indices`` (one per axis), summed over one frequency axis
    at a time with math.fsum; each grid phase is a table root at the exact
    integer index (m_k j_k) mod grid_size."""
    m = spec.frequencies()
    axes = np.meshgrid(*([m] * spec.d), indexing="ij")
    values = spec.coef * exact_quadratic_phase(t, sum(a * a for a in axes))
    roots = np.exp(2j * math.pi * np.arange(grid_size) / grid_size)
    for axis in reversed(range(spec.d)):
        moved = np.moveaxis(values, axis, -1)
        values = np.stack([fsum_last_axis(moved * roots[(m * j) % grid_size])
                           for j in indices[axis]], axis=-1)
    return values.transpose()  # the sums leave the axes in reverse order


def test_torus_propagator_is_unitary_and_additive():
    spec = random_phase(torus_decay_family_2d(0.5, 10), seed=5)
    once = propagate_torus(spec, 0.37)
    np.testing.assert_allclose(np.abs(once.coef), np.abs(spec.coef), rtol=1e-14)
    twice = propagate_torus(once, 0.21)
    direct = propagate_torus(spec, 0.58)
    np.testing.assert_allclose(twice.coef, direct.coef, atol=1e-13)


def test_torus_propagator_phase_convention():
    spec = TorusSpectrum(d=1, m_max=3, coef=np.ones(7, dtype=complex))
    t = 0.7
    out = propagate_torus(spec, t)
    for m in range(-3, 4):
        assert torus_coefficient(out, m) == pytest.approx(np.exp(1j * m * m * t), abs=1e-14)


def test_sphere_propagator_eigenvalues():
    for d in (2, 3):
        spec = zonal_decay_family(1.0, 6, d=d)
        t = 0.31
        out = propagate_sphere(spec, t)
        n = np.arange(7, dtype=float)
        expected = spec.coef * np.exp(1j * n * (n + d - 1) * t)
        np.testing.assert_allclose(out.coef, expected, atol=1e-14)
    with pytest.raises(TypeError, match="ZonalSpectrum"):
        propagate_sphere(torus_step(SQUARE_WAVE, 4), 0.11)


def test_sphere_phases_match_mpmath_at_criterion_4_scale():
    """The phases e^{i t n (n + 1)} of zonal_decay_family(1.5, 8191) at
    the eight panel times, against mpmath at 40 digits: every one is
    within 1e-15 (measured 4.0e-16).  exp(i t lambda) of the rounded
    product t lambda was up to 3.0e-8 off."""
    spec = zonal_decay_family(1.5, 8191)
    n = spec.degrees().astype(np.int64)
    eigs = (n * (n + 1)).tolist()
    worst = 0.0
    with mpmath.workdps(40):
        for t in time_panel():
            phases = propagate_sphere(spec, t).coef / spec.coef
            exact = np.array([complex(mpmath.expj(mpmath.mpf(t) * lam)) for lam in eigs])
            worst = max(worst, float(np.max(np.abs(phases - exact))))
    assert worst < 1e-15


def test_time_panel_is_seeded_and_distinct():
    panel = time_panel(seed=1729)
    assert panel == time_panel(seed=1729)
    assert panel[4:] != time_panel(seed=1730)[4:]
    assert all(isinstance(t, float) and 0.0 < t < 2 * math.pi for t in panel)
    assert len(panel) >= 5
    assert len({round(t, 12) for t in panel}) == len(panel)


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 5), (3, 7), (5, 12)])
def test_quantization_weights_structure(p, q):
    w = quantization_weights(p, q)
    assert w.shape == (q,)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    m = np.arange(-2 * q, 2 * q + 1)
    l = np.arange(q)
    rec = np.array([np.sum(w * np.exp(2j * np.pi * l * mm / q)) for mm in m])
    np.testing.assert_allclose(rec, np.exp(2j * np.pi * p * m**2 / q), atol=1e-12)
    if q % 2 == 1:
        np.testing.assert_allclose(np.abs(w), q**-0.5, rtol=1e-12)


def test_quantization_residual_small_at_rationals():
    spec = torus_step(SQUARE_WAVE, 256)
    for p, q in [(1, 2), (1, 3), (3, 8), (5, 11)]:
        if math.gcd(p, q) == 1:
            res = quantization_check(spec, p, q)
            assert res.residual < 1e-10, (p, q)


def test_quantization_identity_from_translated_fields():
    """The propagated field equals the weighted translates, grid-checked.

    Reconstructs u(t) at t = 2 pi p / q directly from rolled copies of
    the initial field, independent of quantization_check internals; the
    wrong numerator's weights must not reconstruct it.
    """
    p, q, grid = 2, 5, 250
    spec = torus_step(SQUARE_WAVE, 64)
    u0 = evaluate_torus(spec, grid)
    ut = evaluate_torus(propagate_torus(spec, 2 * math.pi * p / q), grid)
    w_good = quantization_weights(p, q)
    w_bad = quantization_weights(1, q)
    shift = grid // q
    rec_good = sum(w_good[l] * np.roll(u0, l * shift) for l in range(q))
    rec_bad = sum(w_bad[l] * np.roll(u0, l * shift) for l in range(q))
    scale = np.max(np.abs(ut))
    assert np.max(np.abs(ut - rec_good)) < 1e-10 * scale
    assert np.max(np.abs(ut - rec_bad)) > 0.05 * scale


def test_quantization_sides_match_mpmath_at_acceptance_scale():
    """Both sides of the t = 2 pi 3/7 identity at m_max = 4096 against mpmath.

    On the check's own grid (G = 8197 points, the smallest alias-free
    multiple of q), five samples of the propagated field and of the
    Gauss-sum translate combination are summed at 30 digits from the
    library's initial coefficients, with exact rational phases
    e^{2 pi i (p m^2 mod q) / q} and exact grid indices (m k) mod G.
    Each library side must agree to 1e-12 of the field's sup, and the
    identity must hold in mpmath far below the library's residual.
    """
    p, q, m_max = 3, 7, 4096
    spec = torus_step(SQUARE_WAVE, m_max)
    grid = q * math.ceil((2 * m_max + 1) / q)
    lhs = evaluate_torus(spec.scaled(_unit_phases_rational(spec.frequencies() ** 2, p, q)), grid)
    base = evaluate_torus(spec, grid)
    weights = quantization_weights(p, q)
    rhs = sum(weights[l] * np.roll(base, -l * (grid // q)) for l in range(q))
    points = [0, 1, grid // 4, grid // 2 - 1, (3 * grid) // 5]
    m = spec.frequencies()
    with mpmath.workdps(30):
        coef = [mpmath.mpc(complex(c)) for c in spec.coef]
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / grid) for k in range(grid)]
        gauss = [mpmath.expjpi(mpmath.mpf(2 * ((p * n * n) % q)) / q) for n in range(q)]
        mp_weights = [mpmath.fsum(gauss[n] * mpmath.expjpi(mpmath.mpf(-2 * n * l) / q)
                                  for n in range(q)) / q for l in range(q)]

        def field(k, phased):
            return mpmath.fsum(c * roots[(int(mm) * k) % grid]
                               * (gauss[int(mm) % q] if phased else 1)
                               for mm, c in zip(m, coef))

        mp_lhs = [field(k, True) for k in points]
        mp_rhs = [mpmath.fsum(mp_weights[l] * field((k + l * grid // q) % grid, False)
                              for l in range(q)) for k in points]
        mp_residual = max(float(abs(a - b)) for a, b in zip(mp_lhs, mp_rhs))
        lhs_err = max(float(abs(mpmath.mpc(complex(lhs[k])) - v)) for k, v in zip(points, mp_lhs))
        rhs_err = max(float(abs(mpmath.mpc(complex(rhs[k])) - v)) for k, v in zip(points, mp_rhs))
    scale = float(np.max(np.abs(lhs)))
    assert lhs_err <= 1e-12 * scale
    assert rhs_err <= 1e-12 * scale
    library_residual = quantization_check(spec, p, q).residual
    assert 0.0 < library_residual < 1e-10
    assert mp_residual < 1e-6 * library_residual


def test_evaluate_torus_methods_agree():
    spec = random_phase(torus_decay_family_2d(0.5, 6), seed=11)
    np.testing.assert_allclose(evaluate_torus(spec, 32), evaluate_torus_direct(spec, (32, 32)),
                               atol=1e-12)


def test_evaluate_torus_parseval():
    spec = random_phase(torus_decay_family_2d(0.5, 8), seed=2)
    grid_mass = float(np.mean(np.abs(evaluate_torus(spec, 64)) ** 2))
    assert grid_mass == pytest.approx(float(np.sum(np.abs(spec.coef) ** 2)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_evaluate_torus_folds_aliased_frequencies(d):
    """Below 2 m_max + 1 points the frequencies sharing a bin are summed,
    so the samples stay exact (a scatter that overwrote them was 0.18 off
    at d = 1 and 0.94 at d = 2)."""
    m = np.arange(-5, 6, dtype=float)
    box = 1.0 / (1.0 + sum(a * a for a in np.meshgrid(*([m] * d), indexing="ij")))
    spec = random_phase(TorusSpectrum(d=d, m_max=5, coef=box.astype(complex)), seed=d)
    with pytest.warns(UserWarning, match=r"grid smaller than 2\*m_max\+1 aliases"):
        samples = evaluate_torus(spec, 8)
    np.testing.assert_allclose(samples, evaluate_torus_direct(spec, (8,) * d),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("case", ["polygon", "step"])
def test_field_at_acceptance_scale_against_direct_sums(case):
    """u(t) at the first panel time on the criterion-3 triangle (m_max
    512, grid 2048^2) and the criterion-2 step data (m_max 2^14, grid
    2^16), at 64 seeded grid points (an 8 x 8 sub-grid on T^2), against
    direct sums with exact phases.  Measured errors: 2.8e-16 and 6.7e-16
    for evaluate_torus after propagate_torus; 1.1e-12 and 2.8e-10 for the
    full-box path, which rounds t |m|^2 before the exponential."""
    if case == "polygon":
        spec, grid = torus_polygon_indicator(DEFAULT_TRIANGLE, 512), 2048
    else:
        spec, grid = torus_step(DEFAULT_STEP_JUMPS, 2**14), 2**16
    t = time_panel()[0]
    rng = np.random.default_rng(64)
    indices = [rng.integers(0, grid, round(64 ** (1 / spec.d))) for _ in range(spec.d)]
    exact = field_direct_sums(spec, t, grid, indices)
    new = evaluate_torus(propagate_torus(spec, t), grid)[np.ix_(*indices)]
    old = evaluate_torus_ifftn(spec, t, grid)[np.ix_(*indices)]
    new_err, old_err = np.max(np.abs(new - exact)), np.max(np.abs(old - exact))
    assert new_err < 1e-13
    assert old_err < 1e-9


def test_evaluate_torus_warns_on_aliasing():
    spec = torus_step(SQUARE_WAVE, 40)
    with pytest.warns(UserWarning):
        evaluate_torus(spec, 32)
