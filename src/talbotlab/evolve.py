"""Linear propagators, grid evaluation, and rational-time quantization.

The free flows are diagonal on the spectrum containers: multiplication
by e^{i t |m|^2} on T^d and by e^{i t n (n + d - 1)} on S^d.  At
rational times t = 2 pi p / q the torus flow collapses to a finite
combination of translates of the initial data with discrete-Fourier
weights of the quadratic phase sequence; ``quantization_check``
measures how exactly the implementation realizes that collapse.

Almost-every-time statements are operationalized by a fixed panel of
eight times: four explicit irrationals and four seeded uniform draws.
Experiments report the median over the panel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specialfun as sf
from .spectra import BeamSpectrum, TorusSpectrum, ZonalSpectrum

__all__ = [
    "TimePoint",
    "TIME_PANEL_BASE",
    "DEFAULT_PANEL_SEED",
    "time_panel",
    "SampledField",
    "propagate_torus",
    "propagate_sphere",
    "evaluate_torus",
    "evaluate_zonal",
    "evaluate_zonal_circle",
    "evaluate_beam_equator",
    "QuantizationResult",
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


@dataclass(frozen=True)
class TimePoint:
    """A time value tagged by how it was chosen.

    Attributes
    ----------
    t : float
        The time.
    kind : str
        "rational" (t = 2 pi p / q with coprime p, q stored),
        "sampled-irrational", or "arbitrary".
    p, q : int or None
        Numerator and denominator for the rational kind.
    """

    t: float
    kind: str
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rational", "sampled-irrational", "arbitrary"):
            raise ValueError(f"unknown time kind {self.kind!r}")
        if self.kind == "rational":
            if self.p is None or self.q is None or self.q < 1:
                raise ValueError("rational times need p and q >= 1")
            if math.gcd(self.p, self.q) != 1:
                raise ValueError("rational times store coprime p, q")

    @classmethod
    def rational(cls, p: int, q: int) -> "TimePoint":
        """t = 2 pi p / q, reduced to lowest terms."""
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        if g == 0:
            p, q = 0, 1
        return cls(t=2.0 * math.pi * p / q, kind="rational", p=p, q=q)

    @classmethod
    def irrational(cls, t: float) -> "TimePoint":
        return cls(t=float(t), kind="sampled-irrational")

    @classmethod
    def arbitrary(cls, t: float) -> "TimePoint":
        return cls(t=float(t), kind="arbitrary")


def time_panel(seed: int = DEFAULT_PANEL_SEED, n_random: int = 4) -> list[TimePoint]:
    """The shared time panel: fixed irrationals plus seeded draws.

    Parameters
    ----------
    seed : int
        Seed of the uniform draws on [0, 2pi); the default is the
        panel used by every experiment in the package.
    n_random : int
        Number of random panel members.

    Returns
    -------
    list of TimePoint
    """
    panel = [TimePoint.irrational(2.0 * math.pi * b) for b in TIME_PANEL_BASE]
    rng = np.random.default_rng(seed)
    for t in rng.uniform(0.0, 2.0 * math.pi, size=n_random):
        panel.append(TimePoint.irrational(float(t)))
    return panel


def _unit_phases_rational(eigs: np.ndarray, p: int, q: int) -> np.ndarray:
    """e^{2 pi i p lambda / q} for integer eigenvalues, computed mod q.

    Keeps the trigonometric argument small so the phases stay exact to
    roundoff even when lambda is of order 10^7.
    """
    residues = (p * (np.asarray(eigs, dtype=np.int64) % q)) % q
    return np.exp(2.0j * math.pi * residues / q)


def _phases(eigs: np.ndarray, t) -> np.ndarray:
    if isinstance(t, TimePoint):
        if t.kind == "rational":
            return _unit_phases_rational(eigs, t.p, t.q)
        t = t.t
    return np.exp(1j * float(t) * np.asarray(eigs, dtype=float))


def _torus_eigs(spec: TorusSpectrum) -> np.ndarray:
    m = spec.frequencies().astype(np.int64)
    axes = np.meshgrid(*([m] * spec.d), indexing="ij")
    return sum(a * a for a in axes)


def propagate_torus(spec: TorusSpectrum, t) -> TorusSpectrum:
    """Free evolution on T^d: coefficients gain e^{i t |m|^2}.

    Parameters
    ----------
    spec : TorusSpectrum
    t : float or TimePoint
        Rational TimePoints are applied through modular arithmetic,
        keeping the unimodular phases exact for large frequency boxes.

    Returns
    -------
    TorusSpectrum
        Same support; no longer flagged real-valued for t != 0.
    """
    phases = _phases(_torus_eigs(spec), t)
    t_val = t.t if isinstance(t, TimePoint) else float(t)
    return spec.scaled(phases, real_valued=spec.real_valued and t_val == 0.0)


def propagate_sphere(spec, t):
    """Free evolution on S^d: a_n gains e^{i t n (n + d - 1)}.

    Accepts ZonalSpectrum or BeamSpectrum and returns the same kind.
    """
    if not isinstance(spec, (ZonalSpectrum, BeamSpectrum)):
        raise TypeError("propagate_sphere expects a sphere spectrum")
    n = spec.degrees().astype(np.int64)
    eigs = n * (n + spec.d - 1)
    return spec.scaled(_phases(eigs, t))


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on a uniform grid.

    Attributes
    ----------
    domain : str
        One of "torus-1d", "torus-2d", "sphere-greatcircle",
        "sphere-polar-section".
    t : float
        Evolution time the samples belong to.
    axes : tuple of ndarray
        Coordinate vector per grid axis.
    values : ndarray
        Complex samples, shape = tuple of axis lengths.
    """

    domain: str
    t: float
    axes: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != shape:
            raise ValueError("value count must equal the product of grid sizes")

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape

    def meta(self) -> dict:
        return {
            "domain": self.domain,
            "t": self.t,
            "grid_shape": list(self.grid_shape),
        }

    def to_csv(self, path) -> None:
        """Write samples as CSV rows of grid coordinates, re, im."""
        names = {
            "torus-1d": ["x"],
            "torus-2d": ["x", "y"],
            "sphere-greatcircle": ["s"],
            "sphere-polar-section": ["theta"],
        }[self.domain]
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(names + ["re", "im"]) + "\n")
            grids = np.meshgrid(*self.axes, indexing="ij")
            flat = [g.ravel() for g in grids]
            vals = self.values.ravel()
            for row in range(vals.size):
                coords = [repr(float(g[row])) for g in flat]
                fh.write(",".join(coords + [repr(vals[row].real), repr(vals[row].imag)]) + "\n")


def _evaluate_torus_fft(spec: TorusSpectrum, sizes) -> np.ndarray:
    placed = np.zeros(sizes, dtype=complex)
    m = spec.frequencies()
    idx = [np.mod(m, g) for g in sizes]
    placed[np.ix_(*idx)] += spec.coef
    return np.fft.ifftn(placed) * float(np.prod(sizes))


def _evaluate_torus_direct(spec: TorusSpectrum, sizes) -> np.ndarray:
    m = spec.frequencies()
    out = spec.coef
    for axis in range(spec.d):
        x = 2.0 * math.pi * np.arange(sizes[axis]) / sizes[axis]
        basis = np.exp(1j * np.outer(m, x))
        out = np.tensordot(out, basis, axes=([0], [0]))
    return out


def evaluate_torus(spec: TorusSpectrum, grid_sizes, method: str = "fft") -> SampledField:
    """Sample sum f_hat(m) e^{i m.x} on the uniform grid.

    Parameters
    ----------
    spec : TorusSpectrum
    grid_sizes : int or sequence of int
        Points per axis; alias-free evaluation needs
        >= 2 * m_max + 1 per axis (a warning is emitted otherwise).
    method : {"fft", "direct"}
        Zero-padded inverse FFT (reference-identical within roundoff)
        or direct summation.

    Returns
    -------
    SampledField
    """
    if np.isscalar(grid_sizes):
        sizes = (int(grid_sizes),) * spec.d
    else:
        sizes = tuple(int(g) for g in grid_sizes)
    if len(sizes) != spec.d:
        raise ValueError("one grid size per axis required")
    if any(g < 2 * spec.m_max + 1 for g in sizes):
        warnings.warn(
            "grid smaller than 2*m_max+1 aliases high frequencies", stacklevel=2
        )
    if method == "fft":
        values = _evaluate_torus_fft(spec, sizes)
    elif method == "direct":
        values = _evaluate_torus_direct(spec, sizes)
    else:
        raise ValueError("method must be 'fft' or 'direct'")
    axes = tuple(2.0 * math.pi * np.arange(g) / g for g in sizes)
    domain = "torus-1d" if spec.d == 1 else "torus-2d"
    return SampledField(domain=domain, t=0.0, axes=axes, values=values)


def _zonal_cosine_series(spec: ZonalSpectrum) -> np.ndarray:
    return sf.zonal_cosine_blocks(spec.coef, spec.d, [0, spec.coef.size])[0]


def evaluate_zonal(spec: ZonalSpectrum, n_theta: int) -> SampledField:
    """Sample sum a_n Y_n(theta) on a uniform theta-grid of [0, pi].

    The grid is the first half of a circle of 2 (n_theta - 1) points,
    so the expansion is summed as a cosine series by one FFT.
    """
    theta = np.linspace(0.0, math.pi, n_theta)
    period = max(2 * (n_theta - 1), 1)
    values = sf.cosine_series_fft(_zonal_cosine_series(spec), period)[:n_theta]
    return SampledField(
        domain="sphere-polar-section", t=0.0, axes=(theta,), values=values
    )


def evaluate_zonal_circle(spec: ZonalSpectrum, n_points: int) -> SampledField:
    """Sample a zonal expansion along a great circle through the poles.

    The circle is parameterized by arclength s in [0, 2 pi); the polar
    angle along it satisfies cos(theta(s)) = cos(s), so the samples are
    the cosine series of the expansion, summed by one FFT.
    """
    s = 2.0 * math.pi * np.arange(n_points) / n_points
    values = sf.cosine_series_fft(_zonal_cosine_series(spec), n_points)
    return SampledField(domain="sphere-greatcircle", t=0.0, axes=(s,), values=values)


def evaluate_beam_equator(spec: BeamSpectrum, n_points: int) -> SampledField:
    """Sample sum a_n Y_n^{sign*n} along the equator circle theta = pi/2."""
    phi = 2.0 * math.pi * np.arange(n_points) / n_points
    amps = np.array(
        [sf.gaussian_beam(int(n), math.pi / 2.0, 0.0, spec.sign) for n in spec.degrees()],
        dtype=complex,
    )
    modes = np.exp(1j * spec.sign * np.outer(spec.degrees(), phi))
    values = (spec.coef * amps) @ modes
    return SampledField(domain="sphere-greatcircle", t=0.0, axes=(phi,), values=values)


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of a rational-time quantization check.

    Attributes
    ----------
    p, q : int
        The rational time t = 2 pi p / q.
    residual : float
        Sup-norm gap between the propagated field and the weighted
        translate combination.
    weights : ndarray
        The q translate weights c_l.
    grid_size : int
        Grid used for the comparison.
    """

    p: int
    q: int
    residual: float
    weights: np.ndarray
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


def quantization_check(
    spec: TorusSpectrum, p: int, q: int, grid_size: int | None = None
) -> QuantizationResult:
    """Verify the finite-translate form of the T^1 flow at t = 2 pi p/q.

    The propagated solution u(x, t) is compared in sup norm against
    sum_l c_l f(x + 2 pi l / q) with the DFT weights of the quadratic
    phase; both sides are evaluated with exact modular phases on a
    common grid divisible by q.

    Parameters
    ----------
    spec : TorusSpectrum
        1-d initial data.
    p, q : int
        Coprime integers, q >= 1.
    grid_size : int, optional
        Grid length; defaults to the smallest multiple of q that is
        alias-free (>= 2 m_max + 1).

    Returns
    -------
    QuantizationResult
    """
    if spec.d != 1:
        raise ValueError("quantization check is stated on T^1")
    weights = quantization_weights(p, q)
    if grid_size is None:
        grid_size = q * math.ceil((2 * spec.m_max + 1) / q)
    if grid_size % q != 0:
        raise ValueError("grid size must be divisible by q")
    evolved = propagate_torus(spec, TimePoint.rational(p, q))
    lhs = _evaluate_torus_fft(evolved, (grid_size,))
    base = _evaluate_torus_fft(spec, (grid_size,))
    shift = grid_size // q
    rhs = np.zeros_like(base)
    for l in range(q):
        rhs += weights[l] * np.roll(base, -l * shift)
    residual = float(np.max(np.abs(lhs - rhs)))
    return QuantizationResult(
        p=p, q=q, residual=residual, weights=weights, grid_size=grid_size
    )
