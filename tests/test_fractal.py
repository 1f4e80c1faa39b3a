"""Box-counting dimension estimates on graphs of known fractal dimension."""

import math

import numpy as np
import pytest

from talbotlab.evolve import TimePoint
from talbotlab.fractal import (
    BoxCountSeries,
    DomainConfig,
    box_count_curve,
    box_count_series,
    box_count_surface,
    dim_t,
    dimension_fit,
)
from talbotlab.spectra import torus_step

SQUARE_WAVE = ((0.0, 1.0), (math.pi, -1.0))


def weierstrass(x, a=0.5, b=3, terms=40):
    """W(x) = sum a^k cos(b^k pi x), graph dimension 2 + log_b a."""
    return sum(a**k * np.cos(b**k * np.pi * x) for k in range(terms))


def test_constant_counts_one_box_per_column():
    samples = np.full(4096, 0.37)
    for k in (2, 4, 6):
        assert box_count_curve(samples, k) == 2**k


def test_linear_graph_has_dimension_one():
    x = np.linspace(0.0, 1.0, 2**14, endpoint=False)
    series = box_count_series(2.0 * x, range(3, 10))
    est = dimension_fit(series, (3, 9))
    assert est.slope == pytest.approx(1.0, abs=0.05)


def test_smooth_graph_has_dimension_one():
    x = np.linspace(0.0, 2 * np.pi, 2**14, endpoint=False)
    series = box_count_series(np.sin(x), range(3, 10))
    est = dimension_fit(series, (4, 9))
    assert est.slope == pytest.approx(1.0, abs=0.07)


def test_weierstrass_dimension():
    """W with a=1/2, b=3 has graph dimension 2 - log 2 / log 3 ~ 1.369."""
    x = np.linspace(0.0, 1.0, 2**16, endpoint=False)
    series = box_count_series(weierstrass(x), range(3, 12))
    est = dimension_fit(series, (5, 10))
    expected = 2.0 - math.log(2) / math.log(3)
    assert est.slope == pytest.approx(expected, abs=0.1)


def test_count_is_monotone_and_bounded():
    x = np.linspace(0.0, 1.0, 2**13, endpoint=False)
    y = weierstrass(x)
    spread = float(np.max(y) - np.min(y))
    counts = [box_count_curve(y, k) for k in range(2, 10)]
    for a, b in zip(counts, counts[1:]):
        assert b >= a
    for k, c in zip(range(2, 10), counts):
        eps = 2.0**-k
        assert 2**k <= c <= 2**k * (spread / eps + 1)


def test_grid_requirements_enforced():
    with pytest.raises(ValueError):
        box_count_curve(np.zeros(100), 5)  # not divisible by 32
    with pytest.raises(ValueError):
        box_count_curve(np.zeros(64), 5)  # fewer than 4 samples per column


def test_surface_of_smooth_function_has_dimension_two():
    n = 2**9
    x = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    z = np.sin(x)[:, None] * np.cos(x)[None, :]
    counts = [box_count_surface(z, k) for k in range(2, 7)]
    series = BoxCountSeries(k_values=tuple(range(2, 7)), counts=tuple(counts))
    est = dimension_fit(series, (2, 6))
    assert est.slope == pytest.approx(2.0, abs=0.1)


def test_tensor_product_surface_identity():
    """For u(x) tensor constant(y), N_surface = 2^k N_curve exactly."""
    n = 2**10
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    curve = weierstrass(x)
    sheet = np.tile(curve[:, None], (1, n))
    for k in (3, 5, 7):
        assert box_count_surface(sheet, k) == 2**k * box_count_curve(curve, k)


def test_refinement_stability():
    """Doubling the sampling grid moves fitted slopes only slightly."""
    expected = 2.0 - math.log(2) / math.log(3)
    slopes = []
    for size in (2**14, 2**15):
        x = np.linspace(0.0, 1.0, size, endpoint=False)
        series = box_count_series(weierstrass(x), range(4, 11))
        slopes.append(dimension_fit(series, (5, 10)).slope)
    assert abs(slopes[0] - slopes[1]) < 0.05 * expected


def test_series_round_trip_and_validation(tmp_path):
    series = BoxCountSeries(k_values=(2, 3), counts=(7, 19))
    np.testing.assert_allclose(series.epsilons(), [0.25, 0.125])
    path = tmp_path / "counts.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,epsilon,count"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        BoxCountSeries(k_values=(2, 3), counts=(7,))
    with pytest.raises(ValueError):
        BoxCountSeries(k_values=(2,), counts=(0,))


def test_dimension_fit_window_validation():
    series = BoxCountSeries(k_values=(2, 3, 4), counts=(10, 30, 90))
    with pytest.raises(ValueError):
        dimension_fit(series, (2, 4))  # only three levels in window


def test_dim_t_torus_step_at_irrational_time():
    spec = torus_step(SQUARE_WAVE, 1024)
    config = DomainConfig(grid_size=2**13, window=(4, 8))
    report = dim_t(spec, TimePoint.irrational(2 * math.pi * 0.6180339887), config)
    assert 1.2 <= report.real.slope <= 1.8
    assert 1.2 <= report.imag.slope <= 1.8
    assert report.max_slope == max(report.real.slope, report.imag.slope)


def test_dim_t_torus_step_at_rational_time_is_piecewise():
    """At rational times the profile is a step function again: dimension 1."""
    spec = torus_step(SQUARE_WAVE, 4096)
    config = DomainConfig(grid_size=2**14, window=(4, 9))
    report = dim_t(spec, TimePoint.rational(1, 4), config)
    assert report.max_slope <= 1.25


def test_dimension_estimate_json():
    series = BoxCountSeries(k_values=(2, 3, 4, 5), counts=(12, 50, 210, 800))
    est = dimension_fit(series, (2, 5))
    text = est.to_json()
    assert '"slope"' in text and '"window"' in text
