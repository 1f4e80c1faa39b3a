"""Spectrum containers and initial-data families.

Frequency-side representations of functions on the torus and the
sphere: a dense-box container for T^d Fourier coefficients, coefficient
sequences for zonal expansions and for the Gaussian-beam sector of S^2,
plus the constructors used throughout the experiments (step functions,
polygon indicators, power-law decay families).

Conventions
-----------
The torus is T^d = [0, 2pi)^d with basis e^{i m.x} and
f_hat(m) = (2pi)^{-d} * integral of f(x) e^{-i m.x} dx, so f_hat(0) is
the mean value.  Sphere sequences index unit-norm zonal harmonics Y_n
(or Y_n^{+-n} on S^2).  All containers are immutable after
construction and serialize to a JSON document
{convention, kind, d, entries: [{m or n, re, im}]}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONVENTION",
    "TorusSpectrum",
    "ZonalSpectrum",
    "BeamSpectrum",
    "torus_step",
    "triangle_indicator",
    "torus_polygon_indicator",
    "zonal_decay_family",
    "torus_decay_family_2d",
    "beam_decay_family",
    "random_phase",
    "spectrum_from_json",
]

CONVENTION = "torus-2pi"


def _bracket(values: np.ndarray) -> np.ndarray:
    """Japanese bracket <x> = sqrt(1 + x^2), elementwise."""
    return np.sqrt(1.0 + np.asarray(values, dtype=float) ** 2)


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
    real_valued : bool
        Whether the represented function is real, i.e. the coefficients
        satisfy f_hat(-m) = conj(f_hat(m)).
    """

    d: int
    m_max: int
    coef: np.ndarray
    real_valued: bool = False

    def __post_init__(self) -> None:
        expected = (2 * self.m_max + 1,) * self.d
        if self.coef.shape != expected:
            raise ValueError(f"coefficient box must have shape {expected}")
        object.__setattr__(self, "coef", np.ascontiguousarray(self.coef, dtype=complex))
        self.coef.setflags(write=False)

    @classmethod
    def from_entries(cls, d: int, m_max: int, entries, real_valued: bool = False) -> "TorusSpectrum":
        """Build from an iterable of (m tuple, complex value) pairs."""
        box = np.zeros((2 * m_max + 1,) * d, dtype=complex)
        for m, value in entries:
            m = tuple(int(c) for c in np.atleast_1d(m))
            if len(m) != d or max(abs(c) for c in m) > m_max:
                raise ValueError(f"frequency {m} outside the coefficient box")
            box[tuple(c + m_max for c in m)] = value
        return cls(d=d, m_max=m_max, coef=box, real_valued=real_valued)

    def coefficient(self, m) -> complex:
        """f_hat(m); zero outside the stored box."""
        m = tuple(int(c) for c in np.atleast_1d(m))
        if len(m) != self.d:
            raise ValueError("frequency has wrong dimension")
        if max(abs(c) for c in m) > self.m_max:
            return 0.0 + 0.0j
        return complex(self.coef[tuple(c + self.m_max for c in m)])

    def frequencies(self) -> np.ndarray:
        """The 1-D frequency axis -m_max .. m_max."""
        return np.arange(-self.m_max, self.m_max + 1)

    def items(self):
        """Iterate over (m tuple, value) pairs of nonzero entries."""
        for idx in np.argwhere(self.coef != 0):
            m = tuple(int(c) - self.m_max for c in idx)
            yield m, complex(self.coef[tuple(idx)])

    def hermitian_defect(self) -> float:
        """max_m |f_hat(-m) - conj(f_hat(m))| over the box."""
        flipped = self.coef[(slice(None, None, -1),) * self.d]
        return float(np.max(np.abs(flipped - np.conj(self.coef))))

    def l2_norm(self) -> float:
        """sqrt(sum |f_hat(m)|^2), the L^2 norm under the mean-value convention."""
        return float(np.sqrt(np.sum(np.abs(self.coef) ** 2)))

    def hs_norm(self, s: float) -> float:
        """Sobolev norm sqrt(sum <m>^{2s} |f_hat(m)|^2)."""
        axes = np.meshgrid(*([self.frequencies()] * self.d), indexing="ij")
        msq = sum(a.astype(float) ** 2 for a in axes)
        return float(np.sqrt(np.sum((1.0 + msq) ** s * np.abs(self.coef) ** 2)))

    def scaled(self, multiplier: np.ndarray, real_valued: bool | None = None) -> "TorusSpectrum":
        """New spectrum with coefficients multiplied entrywise."""
        if real_valued is None:
            real_valued = self.real_valued and bool(
                np.all(multiplier == np.conj(multiplier[(slice(None, None, -1),) * self.d]))
            )
        return TorusSpectrum(
            d=self.d, m_max=self.m_max, coef=self.coef * multiplier, real_valued=real_valued
        )

    def to_json(self) -> str:
        entries = [
            {"m": list(m), "re": v.real, "im": v.imag} for m, v in self.items()
        ]
        return json.dumps(
            {
                "convention": CONVENTION,
                "kind": "torus",
                "d": self.d,
                "m_max": self.m_max,
                "real_valued": self.real_valued,
                "entries": entries,
            }
        )


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

    def hs_norm(self, s: float) -> float:
        """sqrt(sum <n>^{2s} |a_n|^2)."""
        return float(
            np.sqrt(np.sum(_bracket(self.degrees()) ** (2.0 * s) * np.abs(self.coef) ** 2))
        )

    def scaled(self, multiplier) -> "ZonalSpectrum":
        return ZonalSpectrum(d=self.d, coef=self.coef * multiplier)

    def to_json(self) -> str:
        entries = [
            {"n": int(n), "re": float(v.real), "im": float(v.imag)}
            for n, v in enumerate(self.coef)
            if v != 0
        ]
        return json.dumps(
            {
                "convention": CONVENTION,
                "kind": "zonal",
                "d": self.d,
                "n_max": self.n_max,
                "entries": entries,
            }
        )


@dataclass(frozen=True)
class BeamSpectrum:
    """Coefficients a_n on the Gaussian beams Y_n^{sign*n} of S^2.

    Attributes
    ----------
    sign : int
        +1 or -1, selecting the beam family.
    coef : ndarray
        Complex a_0 .. a_{n_max}.
    """

    sign: int
    coef: np.ndarray

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        arr = np.ascontiguousarray(np.atleast_1d(self.coef), dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        object.__setattr__(self, "coef", arr)
        self.coef.setflags(write=False)

    @property
    def d(self) -> int:
        return 2

    @property
    def n_max(self) -> int:
        return self.coef.size - 1

    def degrees(self) -> np.ndarray:
        return np.arange(self.coef.size)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coef) ** 2)))

    def scaled(self, multiplier) -> "BeamSpectrum":
        return BeamSpectrum(sign=self.sign, coef=self.coef * multiplier)

    def to_json(self) -> str:
        entries = [
            {"n": int(n), "re": float(v.real), "im": float(v.imag)}
            for n, v in enumerate(self.coef)
            if v != 0
        ]
        return json.dumps(
            {
                "convention": CONVENTION,
                "kind": "beam",
                "d": 2,
                "sign": self.sign,
                "n_max": self.n_max,
                "entries": entries,
            }
        )


def spectrum_from_json(text: str):
    """Rebuild any spectrum container from its JSON document."""
    doc = json.loads(text)
    kind = doc["kind"]
    if kind == "torus":
        ts = TorusSpectrum.from_entries(
            d=doc["d"],
            m_max=doc["m_max"],
            entries=[(e["m"], e["re"] + 1j * e["im"]) for e in doc["entries"]],
            real_valued=doc.get("real_valued", False),
        )
        return ts
    values = {e["n"]: e["re"] + 1j * e["im"] for e in doc["entries"]}
    n_max = doc["n_max"]
    if kind == "zonal":
        coef = np.array([values.get(n, 0.0) for n in range(n_max + 1)], dtype=complex)
        return ZonalSpectrum(d=doc["d"], coef=coef)
    if kind == "beam":
        coef = np.array([values.get(n, 0.0) for n in range(n_max + 1)], dtype=complex)
        return BeamSpectrum(sign=doc["sign"], coef=coef)
    raise ValueError(f"unknown spectrum kind {kind!r}")


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
    real_valued = bool(np.all(val.imag == 0.0))
    return TorusSpectrum(d=1, m_max=m_max, coef=box, real_valued=real_valued)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the removable singularity filled by series."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    out = (np.exp(safe) - 1.0) / safe
    series = 1.0 + z / 2.0 + z * z / 6.0
    return np.where(small, series, out)


def _signed_polygon_box(verts: np.ndarray, m_max: int) -> np.ndarray:
    """Fourier box of the signed indicator of a polygonal chain.

    Traversal order fixes the sign: counterclockwise gives +indicator.
    Uses the divergence-theorem edge reduction; each edge contributes a
    phi1 term, and frequencies with m_1 = 0 take the companion form in
    the second coordinate.
    """
    m = np.arange(-m_max, m_max + 1)
    m1 = m[:, None].astype(float)
    m2 = m[None, :].astype(float)
    sum_x = np.zeros((m.size, m.size), dtype=complex)
    sum_y = np.zeros_like(sum_x)
    nverts = verts.shape[0]
    for j in range(nverts):
        a = verts[j]
        u = verts[(j + 1) % nverts] - verts[j]
        base = np.exp(-1j * (m1 * a[0] + m2 * a[1]))
        edge = _phi1(-1j * (m1 * u[0] + m2 * u[1])) * base
        sum_x += u[1] * edge
        sum_y += -u[0] * edge
    out = np.zeros_like(sum_x)
    mask_x = m1 != 0.0
    np.divide(sum_x, -1j * m1, out=out, where=mask_x)
    mask_y = (m1 == 0.0) & (m2 != 0.0)
    np.divide(sum_y, -1j * m2, out=out, where=mask_y)
    cross = verts[:, 0] * np.roll(verts[:, 1], -1) - np.roll(verts[:, 0], -1) * verts[:, 1]
    out[m_max, m_max] = 0.5 * np.sum(cross)
    return out / (2.0 * math.pi) ** 2


def triangle_indicator(v0, v1, v2, m_max: int) -> TorusSpectrum:
    """Exact Fourier coefficients of a triangle indicator on T^2."""
    verts = np.array([v0, v1, v2], dtype=float)
    return torus_polygon_indicator(verts, m_max)


def torus_polygon_indicator(
    vertices, m_max: int, method: str = "edges", fan_base: int = 0
) -> TorusSpectrum:
    """Exact Fourier coefficients of a simple-polygon indicator on T^2.

    Parameters
    ----------
    vertices : sequence of (x, y)
        Polygon vertices in [0, 2pi)^2, in boundary order (either
        orientation), nonzero area.
    m_max : int
        Box radius.
    method : {"edges", "fan"}
        "edges" evaluates the closed-form edge sum on the polygon
        directly; "fan" triangulates from ``fan_base`` and sums signed
        triangle coefficients.  Both are exact and agree to roundoff.
    fan_base : int
        Vertex index anchoring the fan triangulation.

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
    if method == "edges":
        box = _signed_polygon_box(verts, m_max)
    elif method == "fan":
        nverts = verts.shape[0]
        base = verts[fan_base % nverts]
        box = np.zeros((2 * m_max + 1, 2 * m_max + 1), dtype=complex)
        for j in range(nverts):
            jn = (j + 1) % nverts
            if j == fan_base % nverts or jn == fan_base % nverts:
                continue
            box += _signed_polygon_box(np.array([base, verts[j], verts[jn]]), m_max)
    else:
        raise ValueError("method must be 'edges' or 'fan'")
    return TorusSpectrum(d=2, m_max=m_max, coef=box, real_valued=True)


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


def torus_decay_family_2d(s: float, m_max: int) -> TorusSpectrum:
    """T^2 data with f_hat(m) = <m>^{-1-s}, s in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ValueError("exponent must lie in (0, 1)")
    m = np.arange(-m_max, m_max + 1, dtype=float)
    msq = m[:, None] ** 2 + m[None, :] ** 2
    box = (1.0 + msq) ** (-(1.0 + s) / 2.0)
    return TorusSpectrum(d=2, m_max=m_max, coef=box.astype(complex), real_valued=True)


def beam_decay_family(p: float, n_max: int, sign: int = 1) -> BeamSpectrum:
    """Beam data a_0 = 1, a_n = n^{-p} on Y_n^{sign*n}."""
    if p <= 0:
        raise ValueError("exponent must be positive")
    coef = np.ones(n_max + 1, dtype=complex)
    n = np.arange(1, n_max + 1, dtype=float)
    coef[1:] = n ** (-p)
    return BeamSpectrum(sign=sign, coef=coef)


def random_phase(spec, seed: int):
    """Same spectrum with i.i.d. uniform unimodular phases on each entry.

    A seeded robustness variant of the deterministic families; the
    result is generally no longer real-valued in physical space.
    """
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * math.pi * rng.random(np.shape(spec.coef)))
    if isinstance(spec, TorusSpectrum):
        return TorusSpectrum(d=spec.d, m_max=spec.m_max, coef=spec.coef * phases, real_valued=False)
    return spec.scaled(phases)
