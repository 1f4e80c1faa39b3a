"""Linear propagators, grid evaluation, and rational-time quantization.

The free flows are diagonal on the spectrum containers: multiplication
by e^{i t |m|^2} on T^d and by e^{i t n (n + d - 1)} on S^d.  At
rational times t = 2 pi p / q the torus flow collapses to a finite
combination of translates of the initial data with discrete-Fourier
weights of the quadratic phase sequence; ``quantization_check``
measures how exactly the implementation realizes that collapse, with
the phases e^{2 pi i p lambda / q} reduced mod q so they stay exact.

Grid evaluation on T^d (``evaluate_torus``) runs an inverse FFT one
axis at a time: each axis is zero-padded to the grid, or folded onto it
by summation when the grid is too small to hold every frequency, and
transformed in place, so the first pass touches only the nonzero rows.

Almost-every-time statements are operationalized by a fixed panel of
eight float times: four explicit irrationals and four seeded uniform
draws.  Experiments report the median over the panel.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectra import TorusSpectrum, ZonalSpectrum

__all__ = [
    "TIME_PANEL_BASE",
    "DEFAULT_PANEL_SEED",
    "time_panel",
    "propagate_torus",
    "propagate_sphere",
    "evaluate_torus",
    "QuantizationResult",
    "quantization_weights",
    "quantization_check",
]

# The four explicit irrational panel members, as multiples of 2 pi.
TIME_PANEL_BASE = (
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    math.e - 2.0,
)

DEFAULT_PANEL_SEED = 1729


def time_panel(seed: int = DEFAULT_PANEL_SEED) -> list[float]:
    """The shared time panel: fixed irrationals plus four seeded draws.

    Parameters
    ----------
    seed : int
        Seed of the uniform draws on [0, 2pi); the default is the
        panel used by every experiment in the package.

    Returns
    -------
    list of float
    """
    panel = [2.0 * math.pi * b for b in TIME_PANEL_BASE]
    rng = np.random.default_rng(seed)
    panel.extend(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=4))
    return panel


def _unit_phases_rational(eigs: np.ndarray, p: int, q: int) -> np.ndarray:
    """e^{2 pi i p lambda / q} for integer eigenvalues, computed mod q.

    Keeps the trigonometric argument small so the phases stay exact to
    roundoff even when lambda is of order 10^7.
    """
    residues = (p * (np.asarray(eigs, dtype=np.int64) % q)) % q
    return np.exp(2.0j * math.pi * residues / q)


def _phases(eigs: np.ndarray, t: float) -> np.ndarray:
    return np.exp(1j * float(t) * np.asarray(eigs, dtype=float))


def _quadratic_phases(t: float, n_values: np.ndarray) -> np.ndarray:
    """exp(i n^2 t); n^2 (split at bit 26) times t_hi (26-bit Veltkamp) is exact."""
    scaled = 134217729.0 * t  # (2^27 + 1) t
    t_hi = scaled - (scaled - t)
    m = n_values.astype(np.int64) ** 2
    m_lo = m & ((1 << 26) - 1)
    exact = np.exp(1j * ((m - m_lo) * t_hi)) * np.exp(1j * (m_lo * t_hi))
    return exact * np.exp(1j * (m * (t - t_hi)))


def propagate_torus(spec: TorusSpectrum, t: float) -> TorusSpectrum:
    """Free evolution on T^d: coefficients gain e^{i t |m|^2}.

    The multiplier is the outer product of the 1-d phases e^{i t m^2},
    so exponentials are taken at 2 m_max + 1 points only; each phase is
    accurate to roundoff, since t m^2 is split into exact products
    before the exponential (``_quadratic_phases``).

    Parameters
    ----------
    spec : TorusSpectrum
    t : float

    Returns
    -------
    TorusSpectrum
        Same support.
    """
    phases = _quadratic_phases(float(t), spec.frequencies())
    return spec.scaled(functools.reduce(np.multiply.outer, [phases] * spec.d))


def propagate_sphere(spec: ZonalSpectrum, t: float) -> ZonalSpectrum:
    """Free evolution on S^d: a_n gains e^{i t n (n + d - 1)}."""
    if not isinstance(spec, ZonalSpectrum):
        raise TypeError("propagate_sphere expects a ZonalSpectrum")
    n = spec.degrees().astype(np.int64)
    eigs = n * (n + spec.d - 1)
    return spec.scaled(_phases(eigs, t))


def _place_axis(values: np.ndarray, axis: int, grid_size: int) -> np.ndarray:
    """Frequencies -m_max .. m_max of one axis put in FFT bins m mod grid_size.

    Zero-padding is two slice copies; below 2 m_max + 1 bins the
    wrapped coefficients are folded by summation.
    """
    m_max = values.shape[axis] // 2
    lead = (slice(None),) * axis
    placed = np.zeros(values.shape[:axis] + (grid_size,) + values.shape[axis + 1:],
                      dtype=complex)
    if grid_size < 2 * m_max + 1:
        np.add.at(placed, lead + (np.arange(-m_max, m_max + 1) % grid_size,), values)
    else:
        placed[lead + (slice(0, m_max + 1),)] = values[lead + (slice(m_max, None),)]
        placed[lead + (slice(grid_size - m_max, grid_size),)] = values[lead + (slice(0, m_max),)]
    return placed


def evaluate_torus(spec: TorusSpectrum, grid_size: int) -> np.ndarray:
    """Sample sum f_hat(m) e^{i m.x} on the uniform grid.

    The transform runs one axis at a time, last axis first: each axis
    is placed on the grid and inverse-transformed in place, unscaled
    (``norm="forward"``), so the first pass touches only the
    2 m_max + 1 nonzero rows and no pass allocates a second field.

    Parameters
    ----------
    spec : TorusSpectrum
    grid_size : int
        Points per axis, at x_j = 2 pi j / grid_size; alias-free
        evaluation needs >= 2 * m_max + 1.  On a smaller grid a
        warning is emitted and the coefficients that share a bin are
        summed, so the samples are still exact.

    Returns
    -------
    ndarray
        Complex samples of shape (grid_size,) * d.
    """
    if grid_size < 2 * spec.m_max + 1:
        warnings.warn(
            "grid smaller than 2*m_max+1 aliases high frequencies", stacklevel=2
        )
    values = spec.coef
    for axis in reversed(range(spec.d)):
        values = _place_axis(values, axis, int(grid_size))
        np.fft.ifft(values, axis=axis, norm="forward", out=values)
    return values


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of a rational-time quantization check.

    Attributes
    ----------
    residual : float
        Sup-norm gap between the propagated field and the weighted
        translate combination.
    grid_size : int
        Grid used for the comparison.
    """

    residual: float
    grid_size: int


def quantization_weights(p: int, q: int) -> np.ndarray:
    """Translate weights c_l with e^{2 pi i p n^2 / q} = sum_l c_l e^{2 pi i n l / q}.

    The weights are the normalized discrete Fourier transform of the
    q-periodic quadratic phase sequence; their values are normalized
    Gauss sums.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    n = np.arange(q, dtype=np.int64)
    g = np.exp(2.0j * math.pi * ((p * (n * n % q)) % q) / q)
    return np.fft.fft(g) / q


def quantization_check(spec: TorusSpectrum, p: int, q: int) -> QuantizationResult:
    """Verify the finite-translate form of the T^1 flow at t = 2 pi p/q.

    The propagated solution u(x, t) is compared in sup norm against
    sum_l c_l f(x + 2 pi l / q) with the DFT weights of the quadratic
    phase; both sides are evaluated with exact modular phases on the
    smallest alias-free grid (>= 2 m_max + 1 points) divisible by q.

    Parameters
    ----------
    spec : TorusSpectrum
        1-d initial data.
    p, q : int
        Coprime integers, q >= 1.

    Returns
    -------
    QuantizationResult
    """
    if spec.d != 1:
        raise ValueError("quantization check is stated on T^1")
    weights = quantization_weights(p, q)
    grid_size = q * math.ceil((2 * spec.m_max + 1) / q)
    evolved = spec.scaled(_unit_phases_rational(spec.frequencies() ** 2, p, q))
    lhs = evaluate_torus(evolved, grid_size)
    base = evaluate_torus(spec, grid_size)
    shift = grid_size // q
    rhs = np.zeros_like(base)
    for l in range(q):
        rhs += weights[l] * np.roll(base, -l * shift)
    residual = float(np.max(np.abs(lhs - rhs)))
    return QuantizationResult(residual=residual, grid_size=grid_size)
