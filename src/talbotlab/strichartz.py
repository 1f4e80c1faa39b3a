"""Exact space-time norms for zonal evolutions and beam saturation.

For band-limited data the Schrodinger flow on the sphere is a trig
polynomial in time with integer frequencies lambda_n = n(n + d - 1),
so space-time L^2 norms over one period reduce exactly, by Parseval
in t, to a sum over tau-classes of pairs (n, m) with
lambda_n + lambda_m = tau.  No time grid is involved (the test suite
keeps a dense-grid quadrature as a small-truncation oracle).

Norms use probability measures on both factors
(dsigma / omega_d, the measure ``QuadratureRule`` integrates, and
dt / 2 pi), so a single mode has unit L^2 norm and Holder comparisons
are scale-free.
"""

from __future__ import annotations

import math

import numpy as np

from .gaunt import QuadratureRule
from .specialfun import zonal_harmonic_table
from .spectra import ZonalSpectrum

__all__ = [
    "pair_frequency_classes",
    "bilinear_l2",
    "l4_norm_beam",
]


def _eigenvalue(n: int, d: int) -> int:
    return n * (n + d - 1)


def pair_frequency_classes(block_n: int, block_m: int, d: int = 2) -> dict:
    """Pairs (n, m) in [N, 2N) x [M, 2M) grouped by lambda_n + lambda_m.

    Returns
    -------
    dict
        tau -> list of (n, m); every pair appears under exactly one
        tau by construction.
    """
    classes: dict = {}
    for n in range(block_n, 2 * block_n):
        lam_n = _eigenvalue(n, d)
        for m in range(block_m, 2 * block_m):
            tau = lam_n + _eigenvalue(m, d)
            classes.setdefault(tau, []).append((n, m))
    return classes


def bilinear_l2(
    f: ZonalSpectrum, g: ZonalSpectrum, block_n: int, block_m: int
) -> float:
    """||P_N (e^{it Delta} f) P_M (e^{it Delta} g)||_{L^2(S^d x [0, 2 pi])}.

    Exact in time: the product is a trig polynomial with integer
    frequencies tau = lambda_n + lambda_m, so Parseval in
    L^2(dt / 2 pi) turns the space-time norm into a Pythagorean sum
    over tau-classes of spatial L^2 norms, each computed by the exact
    normalized rule ``QuadratureRule`` of S^d.

    Parameters
    ----------
    f, g : ZonalSpectrum
        Same dimension d; blocks cover [N, 2N) and [M, 2M).
    block_n, block_m : int
        Dyadic block starts with N >= M.

    Returns
    -------
    float
    """
    if f.d != g.d:
        raise ValueError("spectra must share the sphere dimension")
    if block_m > block_n:
        raise ValueError("expects N >= M")
    d = f.d
    top = 2 * block_n - 1 + 2 * block_m - 1
    rule = QuadratureRule.for_degree(2 * top, d)
    table = zonal_harmonic_table(min(2 * block_n - 1, max(f.n_max, g.n_max)), d, rule.nodes)

    def coef_at(spec: ZonalSpectrum, n: int) -> complex:
        return complex(spec.coef[n]) if n <= spec.n_max else 0.0

    total = 0.0
    for pairs in pair_frequency_classes(block_n, block_m, d).values():
        h = np.zeros(rule.nodes.size, dtype=complex)
        nonzero = False
        for n, m in pairs:
            w = coef_at(f, n) * coef_at(g, m)
            if w == 0.0:
                continue
            h += w * (table[n] * table[m])
            nonzero = True
        if nonzero:
            total += rule.integrate(np.abs(h) ** 2)
    return math.sqrt(total)


def l4_norm_beam(n: int) -> float:
    """||Y_n^n||^4_{L^4(S^2)} by exact quadrature.

    Single-mode beams make the time factor unimodular, so the
    space-time quartic norm equals the spatial one; the integrand
    c_n^4 (1 - x^2)^{2n} is a polynomial covered exactly by the rule.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    rule = QuadratureRule.for_degree(4 * n, 2)
    log_c2 = (
        math.log(2 * n + 1)
        + math.lgamma(2 * n + 1)
        - 2.0 * math.lgamma(n + 1)
        - n * math.log(4.0)
    )
    values = np.exp(2.0 * log_c2 + 2.0 * n * np.log1p(-rule.nodes**2))
    return rule.integrate(values)
