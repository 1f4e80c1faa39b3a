"""Spectrum constructors against closed forms and adaptive quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import quad_triangle_coefficient
from talbotlab.spectra import (
    beam_decay_family,
    random_phase,
    spectrum_from_json,
    torus_decay_family_2d,
    torus_polygon_indicator,
    torus_step,
    triangle_indicator,
    zonal_decay_family,
)

SQUARE_WAVE = ((0.0, 1.0), (math.pi, -1.0))
TRIANGLE = ((0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi))


def test_square_wave_closed_form():
    spec = torus_step(SQUARE_WAVE, 32)
    assert spec.coefficient(0) == 0
    for m in range(1, 33):
        expected = 0.0 if m % 2 == 0 else 2.0 / (1j * math.pi * m)
        assert spec.coefficient(m) == pytest.approx(expected, abs=1e-14)
        assert spec.coefficient(-m) == pytest.approx(np.conj(expected), abs=1e-14)
    assert spec.hermitian_defect() == 0.0
    assert spec.real_valued


def test_step_matches_adaptive_quadrature():
    jumps = ((0.5, 1.0 + 2.0j), (2.0, -0.5j), (5.0, 0.25))
    spec = torus_step(jumps, 6)

    def value_at(x):
        pos = [0.5, 2.0, 5.0]
        val = [1.0 + 2.0j, -0.5j, 0.25]
        x = x % (2 * math.pi)
        k = max(i for i, p in enumerate(pos) if p <= x) if x >= pos[0] else 2
        return val[k]

    for m in range(-6, 7):
        re, _ = integrate.quad(
            lambda x: (value_at(x) * np.exp(-1j * m * x)).real, 0, 2 * math.pi, limit=200
        )
        im, _ = integrate.quad(
            lambda x: (value_at(x) * np.exp(-1j * m * x)).imag, 0, 2 * math.pi, limit=200
        )
        assert spec.coefficient(m) == pytest.approx((re + 1j * im) / (2 * math.pi), abs=1e-9)


def test_step_jump_bound():
    spec = torus_step(SQUARE_WAVE, 64)
    total_jump = 4.0
    for m, value in spec.items():
        if m[0] != 0:
            assert abs(value) <= total_jump / (2 * math.pi * abs(m[0])) + 1e-15


def test_step_input_validation():
    with pytest.raises(ValueError):
        torus_step((), 4)
    with pytest.raises(ValueError):
        torus_step(((0.0, 1.0), (0.0, 2.0)), 4)
    with pytest.raises(ValueError):
        torus_step(((-1.0, 1.0),), 4)


def test_triangle_coefficients_against_quadrature():
    spec = triangle_indicator(*TRIANGLE, 8)
    assert spec.coefficient((0, 0)) == pytest.approx(0.125, abs=1e-13)
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            assert spec.coefficient((m1, m2)) == pytest.approx(
                quad_triangle_coefficient(m1, m2), abs=1e-10
            ), (m1, m2)


def test_polygon_methods_and_orientation_agree():
    spec = torus_polygon_indicator(TRIANGLE, 6)
    fan = torus_polygon_indicator(TRIANGLE, 6, method="fan")
    rev = torus_polygon_indicator(TRIANGLE[::-1], 6)
    shifted = torus_polygon_indicator((TRIANGLE[1], TRIANGLE[2], TRIANGLE[0]), 6)
    np.testing.assert_allclose(fan.coef, spec.coef, atol=1e-12)
    np.testing.assert_allclose(rev.coef, spec.coef, atol=1e-12)
    np.testing.assert_allclose(shifted.coef, spec.coef, atol=1e-12)


def test_polygon_quadrilateral_additivity():
    """A split quadrilateral has the same spectrum as the union of parts."""
    quad = ((0.2, 0.3), (2.8, 0.5), (3.0, 2.9), (0.4, 2.5))
    whole = torus_polygon_indicator(quad, 5)
    part1 = torus_polygon_indicator((quad[0], quad[1], quad[2]), 5)
    part2 = torus_polygon_indicator((quad[0], quad[2], quad[3]), 5)
    np.testing.assert_allclose(part1.coef + part2.coef, whole.coef, atol=1e-11)


def test_degenerate_polygon_rejected():
    with pytest.raises(ValueError):
        torus_polygon_indicator(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), 4)
    with pytest.raises(ValueError):
        torus_polygon_indicator(((0.0, 0.0), (1.0, 1.0)), 4)


def test_decay_families():
    zon = zonal_decay_family(1.5, 10)
    assert zon.coef[0] == 1.0
    np.testing.assert_allclose(zon.coef[1:].real, np.arange(1, 11, dtype=float) ** -1.5)
    tor = torus_decay_family_2d(0.5, 8)
    assert tor.coefficient((0, 0)) == 1.0
    assert tor.coefficient((3, 4)) == pytest.approx(26.0**-0.75)
    beam = beam_decay_family(2.0, 6, sign=-1)
    assert beam.sign == -1 and beam.coef[3] == pytest.approx(3.0**-2)
    with pytest.raises(ValueError):
        torus_decay_family_2d(1.5, 8)
    with pytest.raises(ValueError):
        zonal_decay_family(-1.0, 8)


def test_zonal_difference_bound():
    """The stated coefficient difference bound holds for the decay family."""
    p = 1.5
    zon = zonal_decay_family(p, 4096)
    n = np.arange(3, 4097, dtype=float)
    diffs = np.abs(np.diff(zon.coef.real))[2:]
    assert np.all(diffs <= 2 * p * n ** (-p - 1))


def test_random_phase_preserves_magnitude(rng):
    spec = torus_decay_family_2d(0.4, 12)
    out1 = random_phase(spec, seed=7)
    out2 = random_phase(spec, seed=7)
    out3 = random_phase(spec, seed=8)
    np.testing.assert_allclose(np.abs(out1.coef), np.abs(spec.coef), rtol=1e-14)
    np.testing.assert_array_equal(out1.coef, out2.coef)
    assert np.max(np.abs(out1.coef - out3.coef)) > 1e-3
    assert not out1.real_valued


def test_norms_and_scaling():
    spec = zonal_decay_family(1.25, 32)
    manual_l2 = math.sqrt(float(np.sum(np.abs(spec.coef) ** 2)))
    assert spec.l2_norm() == pytest.approx(manual_l2, rel=1e-14)
    n = np.arange(33, dtype=float)
    manual_hs = math.sqrt(float(np.sum((1 + n**2) ** 0.5 * np.abs(spec.coef) ** 2)))
    assert spec.hs_norm(0.5) == pytest.approx(manual_hs, rel=1e-14)
    doubled = spec.scaled(2.0)
    assert doubled.l2_norm() == pytest.approx(2 * manual_l2, rel=1e-14)


def test_json_round_trip():
    specs = [
        torus_step(SQUARE_WAVE, 4),
        triangle_indicator(*TRIANGLE, 3),
        zonal_decay_family(1.5, 5, d=3),
        beam_decay_family(1.0, 4, sign=-1),
    ]
    for spec in specs:
        back = spectrum_from_json(spec.to_json())
        assert type(back) is type(spec)
        np.testing.assert_array_equal(back.coef, spec.coef)
        for attr in ("d", "m_max", "sign"):
            if hasattr(spec, attr):
                assert getattr(back, attr) == getattr(spec, attr)
