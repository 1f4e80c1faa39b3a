"""Least-squares helpers shared by the dimension, decay, and norm fits.

Every experiment in the package reduces at some point to fitting a line
through a handful of points in log-log coordinates.  This module keeps
that step in one place so each caller reports slopes and uncertainties
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LineFit", "fit_line", "fit_loglog"]


@dataclass(frozen=True)
class LineFit:
    """Result of an ordinary least-squares line fit.

    Attributes
    ----------
    slope : float
        Fitted slope.
    intercept : float
        Fitted intercept.
    stderr : float
        Standard error of the slope.  Zero when the fit uses two points
        or is exact.
    """

    slope: float
    intercept: float
    stderr: float


def fit_line(x, y) -> LineFit:
    """Fit ``y = slope * x + intercept`` by least squares.

    Parameters
    ----------
    x, y : array_like
        Coordinate sequences of equal length, at least two points.

    Returns
    -------
    LineFit
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("x values are all identical")
    slope = float(xm @ ym) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    if n > 2:
        sigma2 = float(resid @ resid) / (n - 2)
        stderr = float(np.sqrt(sigma2 / sxx))
    else:
        stderr = 0.0
    return LineFit(slope=slope, intercept=intercept, stderr=stderr)


def fit_loglog(sizes, values) -> LineFit:
    """Fit ``log2(values)`` against ``log2(sizes)``.

    Parameters
    ----------
    sizes, values : array_like
        Positive sequences of equal length.

    Returns
    -------
    LineFit
        The slope is the fitted power-law exponent.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(sizes <= 0) or np.any(values <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    # Not np.log2: dividing by log(2) is the arithmetic every fitted
    # slope in the recorded outputs was computed with.
    lb = np.log(2.0)
    return fit_line(np.log(sizes) / lb, np.log(values) / lb)
