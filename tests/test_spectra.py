"""Spectrum constructors against closed forms and adaptive quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import quad_triangle_coefficient, random_phase, torus_coefficient
from talbotlab.spectra import (
    torus_polygon_indicator,
    torus_step,
    zonal_decay_family,
)

SQUARE_WAVE = ((0.0, 1.0), (math.pi, -1.0))
TRIANGLE = ((0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi))
# Non-convex: the fourth vertex is a reflex corner.
DENTED = ((0.5, 0.5), (5.0, 0.5), (5.0, 5.0), (2.8, 2.0), (0.5, 5.0))


def signed_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def fan_polygon_coefficients(vertices, m_max, base):
    """Polygon coefficients as a signed sum of triangle spectra (oracle).

    Fans out from vertex ``base``; a triangle counts with the sign of
    its orientation relative to the polygon's, so a reflex corner
    subtracts the part it covers twice.
    """
    verts = np.asarray(vertices, dtype=float)
    n = len(verts)
    orientation = np.sign(signed_area(verts))
    box = np.zeros((2 * m_max + 1,) * 2, dtype=complex)
    for j in range(1, n - 1):
        tri = verts[[base, (base + j) % n, (base + j + 1) % n]]
        area = signed_area(tri)
        if abs(area) > 1e-12:
            box += orientation * np.sign(area) * torus_polygon_indicator(tri, m_max).coef
    return box


def test_square_wave_closed_form():
    spec = torus_step(SQUARE_WAVE, 32)
    assert torus_coefficient(spec, 0) == 0
    for m in range(1, 33):
        expected = 0.0 if m % 2 == 0 else 2.0 / (1j * math.pi * m)
        assert torus_coefficient(spec, m) == pytest.approx(expected, abs=1e-14)
        assert torus_coefficient(spec, -m) == pytest.approx(np.conj(expected), abs=1e-14)
    assert np.array_equal(spec.coef[::-1], np.conj(spec.coef))


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
        assert torus_coefficient(spec, m) == pytest.approx((re + 1j * im) / (2 * math.pi), abs=1e-9)


def test_step_jump_bound():
    spec = torus_step(SQUARE_WAVE, 64)
    total_jump = 4.0
    for m, value in zip(spec.frequencies(), spec.coef):
        if m != 0:
            assert abs(value) <= total_jump / (2 * math.pi * abs(m)) + 1e-15


def test_step_input_validation():
    with pytest.raises(ValueError):
        torus_step((), 4)
    with pytest.raises(ValueError):
        torus_step(((0.0, 1.0), (0.0, 2.0)), 4)
    with pytest.raises(ValueError):
        torus_step(((-1.0, 1.0),), 4)


def test_triangle_coefficients_against_quadrature():
    spec = torus_polygon_indicator(TRIANGLE, 8)
    assert torus_coefficient(spec, (0, 0)) == pytest.approx(0.125, abs=1e-13)
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            assert torus_coefficient(spec, (m1, m2)) == pytest.approx(
                quad_triangle_coefficient(m1, m2), abs=1e-10
            ), (m1, m2)


def test_polygon_methods_and_orientation_agree():
    """The edge sum agrees with signed fan triangulations from several
    base vertices, and with reversed and rotated vertex orders."""
    spec = torus_polygon_indicator(TRIANGLE, 6)
    rev = torus_polygon_indicator(TRIANGLE[::-1], 6)
    shifted = torus_polygon_indicator((TRIANGLE[1], TRIANGLE[2], TRIANGLE[0]), 6)
    np.testing.assert_allclose(fan_polygon_coefficients(TRIANGLE, 6, 0), spec.coef, atol=1e-12)
    np.testing.assert_allclose(rev.coef, spec.coef, atol=1e-12)
    np.testing.assert_allclose(shifted.coef, spec.coef, atol=1e-12)
    dented = torus_polygon_indicator(DENTED, 6)
    assert torus_coefficient(dented, (0, 0)) == pytest.approx(
        signed_area(np.array(DENTED)) / (2 * math.pi) ** 2, rel=1e-14, abs=0.0)
    for base in range(len(DENTED)):
        np.testing.assert_allclose(fan_polygon_coefficients(DENTED, 6, base),
                                   dented.coef, atol=1e-12)
        np.testing.assert_allclose(fan_polygon_coefficients(DENTED[::-1], 6, base),
                                   dented.coef, atol=1e-12)


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
    with pytest.raises(ValueError):
        zonal_decay_family(-1.0, 8)


def test_zonal_difference_bound():
    """The stated coefficient difference bound holds for the decay family."""
    p = 1.5
    zon = zonal_decay_family(p, 4096)
    n = np.arange(3, 4097, dtype=float)
    diffs = np.abs(np.diff(zon.coef.real))[2:]
    assert np.all(diffs <= 2 * p * n ** (-p - 1))


def test_random_phase_preserves_magnitude():
    spec = torus_polygon_indicator(TRIANGLE, 12)
    out1 = random_phase(spec, seed=7)
    out2 = random_phase(spec, seed=7)
    out3 = random_phase(spec, seed=8)
    np.testing.assert_allclose(np.abs(out1.coef), np.abs(spec.coef), rtol=1e-14)
    np.testing.assert_array_equal(out1.coef, out2.coef)
    assert np.max(np.abs(out1.coef - out3.coef)) > 1e-3


def test_norms_and_scaling():
    spec = zonal_decay_family(1.25, 32)
    manual_l2 = math.sqrt(float(np.sum(np.abs(spec.coef) ** 2)))
    assert spec.l2_norm() == pytest.approx(manual_l2, rel=1e-14, abs=0.0)
    doubled = spec.scaled(2.0)
    assert doubled.l2_norm() == pytest.approx(2 * manual_l2, rel=1e-14, abs=0.0)
