"""Spectrum constructors against closed forms and adaptive quadrature."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate

from conftest import (
    quad_triangle_coefficient,
    random_phase,
    signed_polygon_box_whole,
    torus_coefficient,
)
from talbotlab.spectra import (
    TorusSpectrum,
    _signed_polygon_box,
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


def phi1(z):
    """(e^z - 1)/z with the removable singularity filled by series."""
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, (np.exp(safe) - 1.0) / safe)


def polygon_box_phi1(vertices, m_max):
    """Polygon spectrum with one phi1 evaluation per edge over the whole
    box (reference): edge a -> a + u adds phi1(-i m.u) e^{-i m.a}."""
    verts = np.asarray(vertices, dtype=float)
    if signed_area(verts) < 0.0:
        verts = verts[::-1]
    m = np.arange(-m_max, m_max + 1, dtype=float)
    m1, m2 = m[:, None], m[None, :]
    sum_x = np.zeros((m.size, m.size), dtype=complex)
    sum_y = np.zeros_like(sum_x)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        u = b - a
        edge = phi1(-1j * (m1 * u[0] + m2 * u[1])) * np.exp(-1j * (m1 * a[0] + m2 * a[1]))
        sum_x += u[1] * edge
        sum_y += -u[0] * edge
    out = np.zeros_like(sum_x)
    np.divide(sum_x, -1j * m1, out=out, where=m1 != 0.0)
    np.divide(sum_y, -1j * m2, out=out, where=(m1 == 0.0) & (m2 != 0.0))
    out[m_max, m_max] = signed_area(verts)
    return out / (2.0 * math.pi) ** 2


def triangle_coefficient_mpmath(m1, m2):
    """f_hat(m) of the indicator of {0 <= y <= x <= pi} in closed form:
    (4 pi^2)^{-1} int_0^pi e^{-i m1 x} int_0^x e^{-i m2 y} dy dx."""
    def arc(k):  # int_0^pi e^{-i k x} dx
        return mpmath.pi if k == 0 else (1 - (-1) ** k) / mpmath.mpc(0, k)

    if m2 != 0:
        value = (arc(m1) - arc(m1 + m2)) / mpmath.mpc(0, m2)
    elif m1 == 0:
        value = mpmath.pi ** 2 / 2
    else:  # int_0^pi x e^{-i m1 x} dx
        value = mpmath.pi * (-1) ** m1 / mpmath.mpc(0, -m1) + arc(m1) / mpmath.mpc(0, m1)
    return complex(value / (4 * mpmath.pi ** 2))


@pytest.mark.parametrize("shape", [(7,), (5, 5)])
def test_torus_box_fixes_dimension_and_radius(shape):
    spec = TorusSpectrum(np.ones(shape))
    assert (spec.d, spec.m_max) == (len(shape), shape[0] // 2)
    assert spec.coef.dtype == complex and not spec.coef.flags.writeable
    assert np.array_equal(spec.frequencies(), np.arange(-(shape[0] // 2), shape[0] // 2 + 1))


@pytest.mark.parametrize("box", [np.ones(6), np.ones((4, 4)), np.ones((5, 3)),
                                 np.ones((5, 5, 3)), np.array(1.0), np.ones(0)],
                         ids=["even", "even-square", "not-square", "not-cube", "0-d", "empty"])
def test_torus_box_must_be_an_odd_cube(box):
    with pytest.raises(ValueError, match="cube of odd side"):
        TorusSpectrum(box)


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


def test_triangle_spectrum_at_acceptance_scale():
    """The criterion-3 box, m_max 512, against the per-edge phi1 build over
    the whole box, and both against the closed form at 40 seeded and 14
    chosen frequencies: the axes m_1 = 0 and m_2 = 0, the antidiagonal
    m_1 = -m_2 (where m.u = 0 on the diagonal edge) and the box edge
    |m_i| = 512.  Measured: 8.2e-18 apart, and each 1.0e-17 from the
    closed form."""
    m_max = 512
    box = torus_polygon_indicator(TRIANGLE, m_max).coef
    reference = polygon_box_phi1(TRIANGLE, m_max)
    assert np.max(np.abs(box - reference)) < 1e-16
    rng = np.random.default_rng(512)
    freqs = [tuple(int(v) for v in rng.integers(-m_max, m_max + 1, 2)) for _ in range(40)]
    freqs += [(0, 0), (0, 7), (0, -512), (5, 0), (512, 0), (1, -1), (300, -300),
              (-511, 511), (512, 512), (-512, -512), (512, -512), (-512, 3), (17, 512),
              (-512, 0)]
    with mpmath.workdps(30):
        exact = np.array([triangle_coefficient_mpmath(*m) for m in freqs])
    at = tuple(np.array(freqs).T + m_max)
    assert np.max(np.abs(box[at] - exact)) < 1e-16
    assert np.max(np.abs(reference[at] - exact)) < 1e-16


def test_polygon_spectrum_peak_memory():
    """One build at m_max 512 peaks below 32 MiB.  Measured 24.4 MiB: the
    16 MiB box and the per-edge temporaries of one 128-row chunk.  The
    whole-box build peaked at 81.4 MiB, and the per-edge phi1 build
    before it at 145 MiB."""
    tracemalloc.start()
    try:
        torus_polygon_indicator(TRIANGLE, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("m_max", [512, 128, 64])
def test_chunked_polygon_box_equals_whole_box(m_max):
    """The box built in 128-row chunks is the whole-box build bit for
    bit, in both orientations and for the dented polygon: at m_max 128
    the row m_1 = 0 opens the second chunk, and at m_max 64 the last
    chunk is one row."""
    for vertices in (TRIANGLE, TRIANGLE[::-1], DENTED, DENTED[::-1]):
        verts = np.array(vertices)
        area = signed_area(verts)
        assert np.array_equal(_signed_polygon_box(verts, m_max, area),
                              signed_polygon_box_whole(verts, m_max, area))


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
