"""Linear propagators, grid evaluation, and rational-time quantization.

The free flows are diagonal on the spectrum containers: multiplication
by e^{i t |m|^2} on T^d and by e^{i t n (n + d - 1)} on S^d.  At
rational times t = 2 pi p / q the torus flow collapses to a finite
combination of translates of the initial data with discrete-Fourier
weights of the quadratic phase sequence; ``quantization_check``
measures how exactly the implementation realizes that collapse, with
the phases e^{2 pi i p lambda / q} reduced mod q so they stay exact.

Grid evaluation on T^d (``torus_strips``) runs an inverse FFT one
axis at a time: each axis is zero-padded to the grid, which must hold
all 2 m_max + 1 frequencies, and transformed in place.  Every pass but
the last runs on the 2 m_max + 1 nonzero rows; the last pass makes the field one column strip at a time,
and a caller reduces each strip as it comes, so a consumer such as box
counting never holds the whole field (``evaluate_torus`` assembles the
strips).  Given a time t, the first pass multiplies each row chunk by
its torus phases as it places it, so the propagated box is never built.
Row chunks and strips run on a thread pool with one worker per CPU the
process may use, at most four, so peak memory is the row-pass slab plus
about one strip per worker; each 1-d transform is the same arithmetic
on any worker, so the samples do not depend on the worker count.

Almost-every-time statements are operationalized by a fixed panel of
eight float times: four explicit irrationals and four seeded uniform
draws.  Experiments report the median over the panel.
"""

from __future__ import annotations

import functools
import math
import os
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
    "torus_strips",
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


def _exact_phases(t: float, eigs: np.ndarray) -> np.ndarray:
    """exp(i lambda t) for integer eigenvalues |lambda| < 2^53, to roundoff.

    lambda splits at bit 26 and t into a 26-bit Veltkamp head t_hi and
    its tail; the head products (27 by 26 and 26 by 26 significant bits)
    are exact, so only lambda (t - t_hi), about 2^-27 of lambda t, is
    rounded before an exponential.
    """
    lam = np.asarray(eigs, dtype=np.int64)
    if lam.size and int(np.max(np.abs(lam))) >= 2**53:
        raise ValueError("exact phases need |eigenvalue| < 2^53")
    scaled = 134217729.0 * t  # (2^27 + 1) t
    t_hi = scaled - (scaled - t)
    lam_lo = lam & ((1 << 26) - 1)
    exact = np.exp(1j * ((lam - lam_lo) * t_hi)) * np.exp(1j * (lam_lo * t_hi))
    return exact * np.exp(1j * (lam * (t - t_hi)))


def _torus_phases(spec: TorusSpectrum, t: float) -> np.ndarray:
    """The 1-d phases e^{i t m^2}, m = -m_max .. m_max, of the T^d flow."""
    return _exact_phases(float(t), spec.frequencies().astype(np.int64) ** 2)


def propagate_torus(spec: TorusSpectrum, t: float) -> TorusSpectrum:
    """Free evolution on T^d: coefficients gain e^{i t |m|^2}.

    The multiplier is the outer product of the 1-d phases e^{i t m^2},
    so exponentials are taken at 2 m_max + 1 points only; each phase is
    accurate to roundoff, since t m^2 is split into exact products
    before the exponential (``_exact_phases``).

    Parameters
    ----------
    spec : TorusSpectrum
    t : float

    Returns
    -------
    TorusSpectrum
        Same support.
    """
    phases = _torus_phases(spec, t)
    return spec.scaled(functools.reduce(np.multiply.outer, [phases] * spec.d))


def propagate_sphere(spec: ZonalSpectrum, t: float) -> ZonalSpectrum:
    """Free evolution on S^d: a_n gains e^{i t n (n + d - 1)}, each phase
    accurate to roundoff (``_exact_phases``)."""
    if not isinstance(spec, ZonalSpectrum):
        raise TypeError("propagate_sphere expects a ZonalSpectrum")
    n = spec.degrees().astype(np.int64)
    eigs = n * (n + spec.d - 1)
    return spec.scaled(_exact_phases(float(t), eigs))


# Columns per strip of the last transform pass and rows per chunk of
# the others: 128 columns of a 2048-point axis are 4 MiB of samples.
_STRIP_WIDTH = 128

# Most pool workers.  Each live worker holds one strip and its
# reduction, about 4 MiB at criterion 3 on top of the 32 MiB row-pass
# slab, or one Weyl block's scratch, about 16 MiB at criterion 5, so
# the cap keeps either study near 55 MiB on any machine.
_MAX_WORKERS = 4


def _worker_count() -> int:
    """CPUs the process may run on (its affinity mask where the platform
    has one, else all of them), at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _map_pool(fn, items: list) -> list:
    """[fn(item) for item in items] on a thread pool of ``_worker_count()``
    workers, at most one per item."""
    workers = min(_worker_count(), len(items))
    if workers < 2:
        return [fn(item) for item in items]
    # Imported here, so that the studies that never pool (all but the
    # T^d dimension ones and weyl) pay neither its import time nor its
    # memory.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _slices(size: int, width: int) -> list:
    return [slice(lo, min(lo + width, size)) for lo in range(0, size, width)]


def _place_axis(values: np.ndarray, axis: int, grid_size: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Frequencies -m_max .. m_max of one axis zero-padded into FFT bins
    m mod grid_size, grid_size >= 2 m_max + 1: two slice copies.  Fills
    ``out`` if given."""
    m_max = values.shape[axis] // 2
    lead = (slice(None),) * axis
    if out is None:
        out = np.empty(values.shape[:axis] + (grid_size,) + values.shape[axis + 1:],
                       dtype=complex)
    out[lead + (slice(0, m_max + 1),)] = values[lead + (slice(m_max, None),)]
    out[lead + (slice(m_max + 1, grid_size - m_max),)] = 0.0
    out[lead + (slice(grid_size - m_max, grid_size),)] = values[lead + (slice(0, m_max),)]
    return out


def _transform(values: np.ndarray, axes, grid_size: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Place ``values`` on the grid and inverse-transform it in place,
    unscaled (``norm="forward"``), along each of ``axes`` in turn; the
    last pass fills ``out`` if given."""
    axes = list(axes)
    for axis in axes:
        values = _place_axis(values, axis, grid_size, out if axis == axes[-1] else None)
        np.fft.ifft(values, axis=axis, norm="forward", out=values)
    return values


def torus_strips(spec: TorusSpectrum, grid_size: int, reduce, cell: int = 1,
                 t: float | None = None) -> list:
    """``reduce(strip)`` of each column strip of the sampled field, in order.

    The strips split the last axis into runs of about 128 grid columns,
    a whole number of ``cell`` columns (the last may be shorter); on
    T^1 the field is one strip.  Every
    transform pass but the last (axis 0) runs on the 2 m_max + 1
    nonzero axis-0 rows, in chunks; the last pass places and transforms
    one strip at a time, and ``reduce`` sees it before the next is made.
    Given ``t``, each row chunk is multiplied by its phases e^{i t |m|^2}
    as it is placed, the same products ``propagate_torus`` forms, so the
    strips are those of the propagated spectrum bit for bit.  Row chunks
    and strips run on a thread pool of one worker per CPU the process
    may run on, at most four and at most one per strip, so ``reduce``
    must be thread-safe; the strips are the same whatever the worker
    count.  Each live worker holds one row chunk and its phases, then
    one strip and its reduction, so peak memory is the row-pass slab
    (32 MiB at criterion 3) plus about 4 MiB per worker.

    Parameters
    ----------
    spec : TorusSpectrum
    grid_size : int
        Points per axis, as in ``evaluate_torus``.  A grid below
        2 m_max + 1, which would sample another field, is a ValueError.
    reduce : callable
        Maps a complex strip of shape (grid_size,) * (d - 1) + (w,) to
        the value reported for it.
    cell : int
        Every strip but the last holds a multiple of ``cell`` columns.
    t : float, optional
        Time of the free flow to apply; the field of ``spec`` itself if
        omitted.

    Returns
    -------
    list
        The ``reduce`` values, strip by strip along the last axis.
    """
    size = int(grid_size)
    if size < 2 * spec.m_max + 1:
        raise ValueError(f"grid {size} is smaller than 2*m_max+1 = "
                         f"{2 * spec.m_max + 1}: it cannot hold every frequency")
    coef = spec.coef
    phases = None if t is None else _torus_phases(spec, t)

    def evolved(chunk):
        if phases is None:
            return coef[chunk]
        # np.multiply, not "*": numpy may compute "a * temporary" in the
        # temporary's buffer with the operands swapped, and the complex
        # product rounds differently then; this keeps the order of
        # propagate_torus, so the samples match it bit for bit.
        return np.multiply(coef[chunk], functools.reduce(
            np.multiply.outer, [phases[chunk]] + [phases] * (spec.d - 1)))

    if spec.d == 1:
        return [reduce(_transform(evolved(slice(None)), (0,), size))]
    rows = np.empty((coef.shape[0],) + (size,) * (spec.d - 1), dtype=complex)
    inner = range(spec.d - 1, 0, -1)
    _map_pool(lambda chunk: _transform(evolved(chunk), inner, size, rows[chunk]),
              _slices(coef.shape[0], _STRIP_WIDTH))
    width = cell * max(1, _STRIP_WIDTH // cell)
    return _map_pool(lambda cols: reduce(_transform(rows[..., cols], (0,), size)),
                     _slices(size, width))


def evaluate_torus(spec: TorusSpectrum, grid_size: int) -> np.ndarray:
    """Sample sum f_hat(m) e^{i m.x} on the uniform grid.

    The field is assembled from the column strips of ``torus_strips``:
    one axis at a time, last axis first, each axis is placed on the grid
    and inverse-transformed in place, unscaled, so the first pass
    touches only the 2 m_max + 1 nonzero rows.  ``torus_strips`` gives
    the pool policy; the samples do not depend on the worker count.

    Parameters
    ----------
    spec : TorusSpectrum
    grid_size : int
        Points per axis, at x_j = 2 pi j / grid_size, at least 2 m_max + 1.

    Returns
    -------
    ndarray
        Complex samples of shape (grid_size,) * d.
    """
    return np.concatenate(torus_strips(spec, grid_size, lambda strip: strip),
                          axis=-1)


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
    return np.fft.fft(_unit_phases_rational(n * n, p, q)) / q


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
