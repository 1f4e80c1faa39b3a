"""Spectrum containers and initial-data families.

Frequency-side representations of functions on the torus and the
sphere: a dense-box container for T^d Fourier coefficients and a
coefficient sequence for zonal expansions on S^d, plus the
constructors used throughout the experiments (step functions, polygon
indicators, the zonal power-law family).

Conventions
-----------
The torus is T^d = [0, 2pi)^d with basis e^{i m.x} and
f_hat(m) = (2pi)^{-d} * integral of f(x) e^{-i m.x} dx, so f_hat(0) is
the mean value.  Sphere sequences index unit-norm zonal harmonics Y_n.
All containers are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusSpectrum",
    "ZonalSpectrum",
    "torus_step",
    "torus_polygon_indicator",
    "zonal_decay_family",
]


@dataclass(frozen=True)
class TorusSpectrum:
    """Finitely supported Fourier coefficients on T^d.

    Attributes
    ----------
    d : int
        Torus dimension (1 and 2 are exercised; the container is
        generic).
    m_max : int
        Box radius: support lies in max_i |m_i| <= m_max.
    coef : ndarray
        Dense complex box of shape (2*m_max+1,)*d; entry for frequency
        m sits at index tuple m + m_max.
    """

    d: int
    m_max: int
    coef: np.ndarray

    def __post_init__(self) -> None:
        expected = (2 * self.m_max + 1,) * self.d
        if self.coef.shape != expected:
            raise ValueError(f"coefficient box must have shape {expected}")
        object.__setattr__(self, "coef", np.ascontiguousarray(self.coef, dtype=complex))
        self.coef.setflags(write=False)

    def frequencies(self) -> np.ndarray:
        """The 1-D frequency axis -m_max .. m_max."""
        return np.arange(-self.m_max, self.m_max + 1)

    def scaled(self, multiplier: np.ndarray) -> "TorusSpectrum":
        """New spectrum with coefficients multiplied entrywise."""
        return TorusSpectrum(d=self.d, m_max=self.m_max, coef=self.coef * multiplier)


@dataclass(frozen=True)
class ZonalSpectrum:
    """Coefficient sequence a_n of a zonal expansion on S^d.

    Attributes
    ----------
    d : int
        Sphere dimension, at least 2.
    coef : ndarray
        Complex a_0 .. a_{n_max} on unit-norm zonal harmonics.
    """

    d: int
    coef: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("sphere dimension must be at least 2")
        arr = np.ascontiguousarray(np.atleast_1d(self.coef), dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        object.__setattr__(self, "coef", arr)
        self.coef.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.coef.size - 1

    def degrees(self) -> np.ndarray:
        return np.arange(self.coef.size)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coef) ** 2)))

    def scaled(self, multiplier) -> "ZonalSpectrum":
        return ZonalSpectrum(d=self.d, coef=self.coef * multiplier)


def torus_step(jumps, m_max: int) -> TorusSpectrum:
    """Fourier coefficients of a piecewise-constant function on T^1.

    Parameters
    ----------
    jumps : sequence of (position, value)
        The function equals ``value`` on the arc from its position to
        the next one (cyclically); positions lie in [0, 2pi) and must
        be distinct.
    m_max : int
        Box radius of the returned spectrum.

    Returns
    -------
    TorusSpectrum
        d=1 spectrum; the coefficients obey
        |f_hat(m)| <= V / (2 pi |m|) with V the total jump mass.
    """
    if len(jumps) == 0:
        raise ValueError("need at least one jump")
    pos = np.array([p for p, _ in jumps], dtype=float)
    val = np.array([h for _, h in jumps], dtype=complex)
    if np.any(pos < 0.0) or np.any(pos >= 2.0 * math.pi):
        raise ValueError("positions must lie in [0, 2pi)")
    order = np.argsort(pos)
    pos, val = pos[order], val[order]
    if np.any(np.diff(pos) == 0.0):
        raise ValueError("positions must be distinct")
    widths = np.diff(np.append(pos, pos[0] + 2.0 * math.pi))
    m = np.arange(-m_max, m_max + 1)
    box = np.zeros(2 * m_max + 1, dtype=complex)
    box[m_max] = np.sum(val * widths) / (2.0 * math.pi)
    # Jump form: f_hat(m) = (2 pi i m)^{-1} sum_j (h_j - h_{j-1}) e^{-i m x_j}.
    jump_mass = val - np.roll(val, 1)
    nz = m != 0
    phases = np.exp(-1j * np.outer(m[nz], pos))
    box[nz] = (phases @ jump_mass) / (2.0j * math.pi * m[nz])
    return TorusSpectrum(d=1, m_max=m_max, coef=box)


# m_1 rows per chunk of the polygon box: 128 rows of a 1025-wide box
# are 2 MiB of complex entries.
_ROW_CHUNK = 128


def _signed_polygon_box(verts: np.ndarray, m_max: int, area: float) -> np.ndarray:
    """Fourier box of the signed indicator of a polygonal chain.

    Traversal order fixes the sign: counterclockwise gives +indicator.
    ``area``, the chain's signed shoelace area, is (2 pi)^2 times entry (0, 0).
    Uses the divergence-theorem edge reduction: the edge from a to b,
    u = b - a, contributes (e^{-i m.b} - e^{-i m.a}) / (-i m.u), built
    from outer products of the 1-d exponentials at the vertices, or
    e^{-i m.a} (1 + z/2 + z^2/6), z = -i m.u, where |m.u| < 1e-6.  The
    sum weighted by u_2 is divided by -i m_1; on the row m_1 = 0 the
    sum weighted by -u_1 is divided by -i m_2 instead.  The box is built
    ``_ROW_CHUNK`` m_1 rows at a time, so each per-edge temporary covers
    one chunk; every entry gets the same float operations either way.
    """
    m = np.arange(-m_max, m_max + 1)
    waves = np.exp(-1j * np.multiply.outer(verts, m))
    box = np.zeros((m.size, m.size), dtype=complex)
    row = np.zeros(m.size, dtype=complex)
    nverts = verts.shape[0]
    for lo in range(0, m.size, _ROW_CHUNK):
        rows = slice(lo, min(lo + _ROW_CHUNK, m.size))
        chunk = box[rows]
        axis_row = m_max - lo if lo <= m_max < rows.stop else None
        for j in range(nverts):
            k = (j + 1) % nverts
            u = verts[k] - verts[j]
            start = np.multiply.outer(waves[j, 0, rows], waves[j, 1])
            edge = np.multiply.outer(waves[k, 0, rows], waves[k, 1])
            edge -= start
            mu = np.add.outer(m[rows] * u[0], m * u[1])
            small = np.abs(mu) < 1e-6
            edge /= -1j * np.where(small, 1.0, mu)
            z = -1j * mu[small]
            edge[small] = start[small] * (1.0 + z / 2.0 + z * z / 6.0)
            chunk += u[1] * edge
            if axis_row is not None:
                row -= u[0] * edge[axis_row]
        nonzero = m[rows] != 0
        chunk[nonzero] /= -1j * m[rows][nonzero, None]
        if axis_row is not None:
            chunk[axis_row, :m_max] = row[:m_max] / (-1j * m[:m_max])
            chunk[axis_row, m_max + 1:] = row[m_max + 1:] / (-1j * m[m_max + 1:])
            chunk[axis_row, m_max] = area
        chunk /= (2.0 * math.pi) ** 2
    return box


def torus_polygon_indicator(vertices, m_max: int) -> TorusSpectrum:
    """Exact Fourier coefficients of a simple-polygon indicator on T^2.

    Parameters
    ----------
    vertices : sequence of (x, y)
        Polygon vertices in [0, 2pi)^2, in boundary order (either
        orientation), nonzero area.
    m_max : int
        Box radius.

    Returns
    -------
    TorusSpectrum
        d=2 spectrum with f_hat(0,0) = area / (2 pi)^2.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise ValueError("need at least three 2-d vertices")
    cross = verts[:, 0] * np.roll(verts[:, 1], -1) - np.roll(verts[:, 0], -1) * verts[:, 1]
    area = 0.5 * float(np.sum(cross))
    if abs(area) < 1e-12:
        raise ValueError("polygon is degenerate (zero area)")
    if area < 0.0:
        verts = verts[::-1]
    box = _signed_polygon_box(verts, m_max, abs(area))
    return TorusSpectrum(d=2, m_max=m_max, coef=box)


def zonal_decay_family(p: float, n_max: int, d: int = 2) -> ZonalSpectrum:
    """Power-law zonal data a_0 = 1, a_n = n^{-p}.

    Satisfies |a_n| <= n^{-p} and the difference bound
    |a_n - a_{n-1}| <= p 2^{p+1} n^{-p-1} (with constant 2p from n = 3
    on); lies in H^s exactly when s < p - 1/2.
    """
    if p <= 0:
        raise ValueError("exponent must be positive")
    coef = np.ones(n_max + 1, dtype=complex)
    n = np.arange(1, n_max + 1, dtype=float)
    coef[1:] = n ** (-p)
    return ZonalSpectrum(d=d, coef=coef)
