"""Dyadic frequency blocks and Besov/Holder norm probes.

Sharp Littlewood-Paley projections restrict a spectrum to a dyadic
shell ([N, 2N) in sphere degree, (N, 2N] in torus max-norm frequency);
smooth blocks multiply by dilates of a C^infinity bump whose dyadic
dilates sum to one.  Block L^p norms across levels drive the Holder
exponent fit (B^gamma_{infty,infty} reading of C^gamma) and the
growth-trend probes.

Level convention: the probe level j >= 1 is the sharp shell with
N = 2^j, and level 0 absorbs everything below frequency 2, so the
levels partition the whole spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specialfun as sf
from .fitting import LineFit, fit_line
from .spectra import FiberSpectrum, TorusSpectrum, ZonalSpectrum

__all__ = [
    "BumpProfile",
    "default_bump",
    "smooth_block_weights",
    "smooth_block",
    "sharp_block",
    "sharp_low_block",
    "probe_edges",
    "BlockNormTable",
    "block_norm_table",
    "besov_norm_probe",
    "holder_exponent_fit",
    "deliu_jawerth_probe",
    "shift_operator_s2",
]


def _mollifier(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) on x > 0, zero elsewhere; the standard C^inf cutoff seed."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    x = np.asarray(x, dtype=float)
    num = _mollifier(x)
    return num / (num + _mollifier(1.0 - x))


class BumpProfile:
    """C^infinity bump a with supp a = [1/2, 2] and a(t) + a(2t) = 1.

    The partition identity holds exactly by construction: on [1/2, 1]
    the profile is a smooth step r(2t - 1), and on [1, 2] it is
    1 - r(t - 1), so a(t) + a(2t) evaluates both branches at the same
    step argument.

    Parameters
    ----------
    resolution : int
        Number of samples of the stored table on [0, 2].

    Attributes
    ----------
    resolution : int
    grid : ndarray
        Table abscissae on [0, 2].
    table : ndarray
        Profile values at ``grid``.
    """

    def __init__(self, resolution: int = 4096) -> None:
        if resolution < 16:
            raise ValueError("resolution too small to represent the bump")
        self.resolution = int(resolution)
        self.grid = np.linspace(0.0, 2.0, self.resolution)
        self.table = self(self.grid)

    def __call__(self, t):
        scalar = np.isscalar(t)
        x = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(x)
        rising = (x >= 0.5) & (x <= 1.0)
        falling = (x > 1.0) & (x <= 2.0)
        out[rising] = _smooth_step(2.0 * x[rising] - 1.0)
        out[falling] = 1.0 - _smooth_step(x[falling] - 1.0)
        return float(out[0]) if scalar else out


def default_bump() -> BumpProfile:
    """The package-default bump profile."""
    return BumpProfile()


def smooth_block_weights(bump: BumpProfile, j: int, n_max: int) -> np.ndarray:
    """Multiplier weights of the smooth block Phi_j on degrees 0..n_max.

    Parameters
    ----------
    bump : BumpProfile
    j : int
        Level; j >= 1 gives a(2^{-j+1} n), supported in
        2^{j-2} < n < 2^j, and j = 0 gives the single weight on n = 0.
    n_max : int
        Largest degree of the weight vector.

    Returns
    -------
    ndarray
        Length n_max + 1.
    """
    if j < 0:
        raise ValueError("level must be non-negative")
    n = np.arange(n_max + 1, dtype=float)
    if j == 0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
        return weights
    return bump(2.0 ** (-j + 1) * n)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def smooth_block(spec, j: int, bump: BumpProfile | None = None):
    """Apply the smooth multiplier Phi_j to a sphere spectrum."""
    if isinstance(spec, TorusSpectrum):
        raise TypeError("smooth blocks are defined on sphere spectra")
    if bump is None:
        bump = default_bump()
    weights = smooth_block_weights(bump, j, int(spec.degrees().max()))
    if isinstance(spec, FiberSpectrum):
        weights = weights[spec.n_min :]
    return spec.scaled(weights[: spec.coef.size])


def sharp_block(spec, n_block: int):
    """Sharp dyadic projection P_N.

    Keeps degrees N <= n < 2N for sphere spectra and frequencies
    N < max_i |m_i| <= 2N for torus spectra; N must be a power of two.
    """
    if not _is_power_of_two(n_block):
        raise ValueError("block frequency must be a power of two")
    if isinstance(spec, TorusSpectrum):
        m = np.abs(spec.frequencies())
        axes = np.meshgrid(*([m] * spec.d), indexing="ij")
        level = np.maximum.reduce(axes)
        mask = (level > n_block) & (level <= 2 * n_block)
        return spec.scaled(mask.astype(float))
    n = spec.degrees()
    mask = (n >= n_block) & (n < 2 * n_block)
    return spec.scaled(mask.astype(float))


def sharp_low_block(spec):
    """Complement of the dyadic shells: degree 0 (sphere) or
    max-norm frequency <= 1 (torus)."""
    if isinstance(spec, TorusSpectrum):
        m = np.abs(spec.frequencies())
        axes = np.meshgrid(*([m] * spec.d), indexing="ij")
        level = np.maximum.reduce(axes)
        return spec.scaled((level <= 1).astype(float))
    mask = spec.degrees() == 0
    return spec.scaled(mask.astype(float))


def probe_edges(j_max: int) -> np.ndarray:
    """Degree breakpoints of the probe levels 0..j_max.

    Level 0 is [0, 2); level j >= 1 is [2^j, 2^{j+1}).  Together the
    levels partition all degrees below 2^{j_max+1}.
    """
    return np.array([0] + [2 ** (j + 1) for j in range(j_max + 1)], dtype=int)


@dataclass(frozen=True)
class BlockNormTable:
    """Per-level block norms ||P_{2^j} u||_{L^p}.

    Attributes
    ----------
    p : float
        Lebesgue exponent (1, 2, or inf).
    levels : ndarray
        Level indices j.
    norms : ndarray
        Non-negative block norms, aligned with ``levels``.
    """

    p: float
    levels: np.ndarray
    norms: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("j,p,value\n")
            for j, v in zip(self.levels, self.norms):
                fh.write(f"{int(j)},{repr(float(self.p))},{repr(float(v))}\n")


def _parse_p(p) -> float:
    if p in ("inf", "Inf", "INF"):
        return math.inf
    p = float(p)
    if p not in (1.0, 2.0, math.inf):
        raise ValueError("block norms support p in {1, 2, inf}")
    return p


def _zonal_block_norms(
    spec: ZonalSpectrum, edges: np.ndarray, p: float, grid_points: int | None, oversample: int
) -> np.ndarray:
    if p == 2.0:
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo_i = min(lo, spec.coef.size)
            hi_i = min(hi, spec.coef.size)
            out.append(math.sqrt(float(np.sum(np.abs(spec.coef[lo_i:hi_i]) ** 2))))
        return np.array(out)
    if grid_points is None:
        grid_points = min(max(512, oversample * int(edges[-1])), 1 << 17)
    theta = np.linspace(0.0, math.pi, grid_points)
    weight = np.sin(theta) ** (spec.d - 1)
    ratio = sf.SphereConstants.for_dimension(spec.d).weight_ratio
    period = max(2 * (grid_points - 1), 1)
    norms = []
    # Reduce each block's samples before the next FFT: the samples are
    # far larger than the cosine coefficients, and holding every
    # block's at once would set the peak memory.
    for beta in sf.zonal_cosine_blocks(spec.coef, spec.d, edges):
        block = np.abs(sf.cosine_series_fft(beta, period)[:grid_points])
        if p == math.inf:
            norms.append(float(np.max(block)))
        else:
            norms.append(ratio * float(np.trapezoid(block * weight, theta)))
    return np.array(norms)


def _torus_block_norms(
    spec: TorusSpectrum, edges: np.ndarray, p: float, grid_points: int | None, oversample: int
) -> np.ndarray:
    from .evolve import evaluate_torus

    m = np.abs(spec.frequencies())
    axes = np.meshgrid(*([m] * spec.d), indexing="ij")
    level = np.maximum.reduce(axes)
    norms = []
    if grid_points is None:
        grid_points = min(max(512, oversample * 2 * int(edges[-1])), 1 << 19)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # Torus shells are half-open on the left: lo < max|m| <= hi,
        # with the level-0 shell absorbing max|m| <= 1.
        if lo == 0:
            mask = level <= max(1, hi - 1)
        else:
            mask = (level > lo) & (level <= hi)
        block = spec.scaled(mask.astype(float))
        if p == 2.0:
            norms.append(block.l2_norm())
            continue
        values = evaluate_torus(block, grid_points).values
        if p == math.inf:
            norms.append(float(np.max(np.abs(values))))
        else:
            norms.append(float(np.mean(np.abs(values))))
    return np.array(norms)


def block_norm_table(
    spec,
    p,
    j_max: int,
    grid_points: int | None = None,
    oversample: int = 8,
) -> BlockNormTable:
    """Block norms ||P_{2^j} u||_{L^p} for probe levels j = 0..j_max.

    Parameters
    ----------
    spec : ZonalSpectrum or TorusSpectrum
        Spectrum to decompose (evolved data is passed in already
        propagated).
    p : {1, 2, "inf"}
        L^2 norms come exactly from coefficients; L^1 and L^infinity
        are computed on an alias-free physical grid.  Torus blocks are
        sampled by inverse FFT; a zonal block is turned into its
        Gegenbauer cosine series (``specialfun.zonal_cosine_blocks``)
        and sampled on the uniform theta grid of [0, pi] by one FFT
        (``specialfun.cosine_series_fft``), one block at a time.
    j_max : int
        Largest probe level.
    grid_points : int, optional
        Physical grid size override.
    oversample : int
        Grid points per top frequency when ``grid_points`` is not
        given; 8 keeps the grid-maximum error of trigonometric-type
        blocks within a couple of percent.

    Returns
    -------
    BlockNormTable
    """
    p = _parse_p(p)
    edges = probe_edges(j_max)
    if isinstance(spec, ZonalSpectrum):
        norms = _zonal_block_norms(spec, edges, p, grid_points, oversample)
    elif isinstance(spec, TorusSpectrum):
        norms = _torus_block_norms(spec, edges, p, grid_points, oversample)
    else:
        raise TypeError("block norms are implemented for zonal and torus spectra")
    return BlockNormTable(p=p, levels=np.arange(j_max + 1), norms=norms)


def besov_norm_probe(
    spec,
    gamma: float,
    p,
    j_max: int,
    grid_points: int | None = None,
    oversample: int = 8,
):
    """sup_j 2^{j gamma} ||P_{2^j} u||_{L^p} over levels j <= j_max.

    Returns
    -------
    value : float
        The maximum weighted block norm.
    argmax_j : int
        The level attaining it.
    """
    table = block_norm_table(spec, p, j_max, grid_points, oversample)
    weighted = 2.0 ** (gamma * table.levels) * table.norms
    arg = int(np.argmax(weighted))
    return float(weighted[arg]), arg


def holder_exponent_fit(sup_norms, window: tuple[int, int] | None = None):
    """Holder exponent from sup-norm decay across dyadic levels.

    Parameters
    ----------
    sup_norms : array_like
        ||P_{2^j} u||_{L^infinity} for j = 0, 1, ...; at least five
        levels inside the window.
    window : (int, int), optional
        Inclusive level range used for the fit; defaults to all levels.

    Returns
    -------
    gamma_hat : float
        Least-squares slope of -log2 ||P_{2^j} u||_inf against j.
    stderr : float
        Standard error of the slope.
    dropped : list of int
        Levels discarded because their block norm vanished.
    """
    norms = np.asarray(sup_norms, dtype=float)
    levels = np.arange(norms.size)
    if window is not None:
        lo, hi = window
        keep = (levels >= lo) & (levels <= hi)
        levels, norms = levels[keep], norms[keep]
    dropped = [int(j) for j, v in zip(levels, norms) if v <= 0.0]
    keep = norms > 0.0
    levels, norms = levels[keep], norms[keep]
    if levels.size < 5:
        raise ValueError("need at least five usable dyadic levels")
    fit = fit_line(levels, -np.log2(norms))
    return fit.slope, fit.stderr, dropped


def deliu_jawerth_probe(
    spec,
    s: float,
    j_max: int,
    grid_points: int | None = None,
    oversample: int = 8,
) -> dict:
    """Growth trend of 2^{js} ||P_{2^j} u||_{L^1} across levels.

    Finite data cannot certify that a function fails to belong to a
    smoothness class, so this probe only reports the fitted growth
    exponent of the weighted L^1 block norms (positive growth is the
    signature the lower-bound route looks for).

    Returns
    -------
    dict
        Keys "levels", "weighted_norms", "growth" (a LineFit of
        log2 weighted norms against j over the levels with nonzero
        norms).
    """
    table = block_norm_table(spec, 1, j_max, grid_points, oversample)
    weighted = 2.0 ** (s * table.levels) * table.norms
    keep = weighted > 0.0
    fit: LineFit | None = None
    if np.count_nonzero(keep) >= 2:
        fit = fit_line(table.levels[keep], np.log2(weighted[keep]))
    return {"levels": table.levels, "weighted_norms": weighted, "growth": fit}


def shift_operator_s2(spec: ZonalSpectrum, theta: float) -> ZonalSpectrum:
    """Average shift operator T_theta on S^2, as a multiplier.

    Averaging over the geodesic circle at distance theta acts
    diagonally on zonal expansions with multiplier P_n(cos theta).
    """
    if spec.d != 2:
        raise ValueError("the shift operator multiplier form is stated on S^2")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    table = sf.jacobi_symmetric_table(spec.n_max, 2, np.array([math.cos(theta)]))
    return spec.scaled(table[:, 0])
