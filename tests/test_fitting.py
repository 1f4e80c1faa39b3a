"""Least-squares fitting helpers against numpy.polyfit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotlab.fitting import fit_line, fit_loglog


def test_exact_line_recovered():
    x = np.linspace(0.0, 5.0, 17)
    fit = fit_line(x, 2.5 * x - 1.25)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.25, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_matches_polyfit_on_noisy_data(rng):
    x = np.linspace(1.0, 3.0, 40)
    y = 0.7 * x + 0.1 + 0.05 * rng.standard_normal(40)
    fit = fit_line(x, y)
    slope_ref, intercept_ref = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope_ref, rel=1e-10, abs=0.0)
    assert fit.intercept == pytest.approx(intercept_ref, rel=1e-10, abs=0.0)


def test_stderr_matches_covariance(rng):
    x = np.linspace(0.0, 1.0, 25)
    y = x + 0.1 * rng.standard_normal(25)
    fit = fit_line(x, y)
    _, cov = np.polyfit(x, y, 1, cov="unscaled")
    resid = y - (fit.slope * x + fit.intercept)
    scale = np.sum(resid**2) / (len(x) - 2)
    assert fit.stderr == pytest.approx(np.sqrt(cov[0, 0] * scale), rel=1e-8, abs=0.0)


def test_loglog_recovers_power_law():
    x = 2.0 ** np.arange(3, 12)
    fit = fit_loglog(x, 5.0 * x**-1.5)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert 2.0**fit.intercept == pytest.approx(5.0, rel=1e-10, abs=0.0)


def test_short_input_rejected():
    with pytest.raises(ValueError):
        fit_line(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        fit_loglog(np.array([1.0, -2.0, 3.0]), np.array([1.0, 1.0, 1.0]))


@settings(max_examples=30)
@given(
    slope=st.floats(-10, 10, allow_nan=False),
    intercept=st.floats(-10, 10, allow_nan=False),
)
def test_line_fit_is_exact_on_lines(slope, intercept):
    x = np.linspace(-1.0, 1.0, 9)
    fit = fit_line(x, slope * x + intercept)
    assert abs(fit.slope - slope) < 1e-9
    assert abs(fit.intercept - intercept) < 1e-9


def coordinates_with(axis, bad):
    data = [np.array([1.0, 2.0, 4.0, 8.0]), np.array([3.0, 5.0, 7.0, 11.0])]
    data[axis][2] = bad
    return data


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_input_gives_nan_slope(axis, bad):
    """A NaN slope fails every verdict, so non-finite data cannot pass."""
    data = coordinates_with(axis, bad)
    with np.errstate(invalid="ignore"):
        assert np.isnan(fit_line(*data).slope)
        assert np.isnan(fit_loglog(*data).slope)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_negative_infinity_gives_nan_line_and_rejected_loglog(axis):
    data = coordinates_with(axis, -np.inf)
    with np.errstate(invalid="ignore"):
        assert np.isnan(fit_line(*data).slope)
    with pytest.raises(ValueError, match="strictly positive"):
        fit_loglog(*data)
