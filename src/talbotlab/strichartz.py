"""Exact space-time norms for zonal evolutions and beam saturation.

For band-limited data the Schrodinger flow on the sphere is a trig
polynomial in time with integer frequencies lambda_n = n(n + d - 1),
so space-time L^2 norms over one period reduce exactly, by Parseval
in t, to a sum over tau-classes of pairs (n, m) with
lambda_n + lambda_m = tau.  That sum is two nodal moments, one per
factor, plus cross terms inside the few classes that hold more than
one pair.  No time grid is involved (the test suite keeps a
dense-grid quadrature and the class-by-class sum as oracles).  The
quartic norm of a Gaussian beam is a Beta integral, evaluated in
closed form (the test suite keeps its quadrature as the oracle).

Norms use probability measures on both factors
(dsigma / omega_d, the measure ``QuadratureRule`` integrates, and
dt / 2 pi), so a single mode has unit L^2 norm and Holder comparisons
are scale-free.
"""

from __future__ import annotations

import math

import numpy as np

from .gaunt import QuadratureRule
from .specialfun import _pochhammer_ratios, zonal_harmonic_table
from .spectra import ZonalSpectrum

__all__ = [
    "bilinear_l2",
    "l4_norm_beam",
]


# Cross-term pairs gathered per pass: each (pairs x nodes) temporary
# holds at most 64 rows, 200 kB at criterion 8 (390 nodes).
_CHUNK = 64


def bilinear_l2(
    f: ZonalSpectrum, g: ZonalSpectrum, block_n: int, block_ms
) -> np.ndarray:
    """||P_N (e^{it Delta} f) P_M (e^{it Delta} g)||_{L^2(S^d x [0, 2 pi])}
    for each block start M of ``block_ms``.

    Exact in time: the product is a trig polynomial with integer
    frequencies tau = lambda_n + lambda_m, so Parseval in
    L^2(dt / 2 pi) turns the space-time norm into the sum over
    tau-classes of ||sum_{(n,m) in tau} w_nm P_nm||^2, with
    w_nm = a_n b_m and P_nm = Y_n Y_m.  That sum splits into the
    diagonal sum_{n,m} |w_nm|^2 int P_nm^2 = int A B, with the moments
    A = sum_n |a_n|^2 Y_n^2 and B = sum_m |b_m|^2 Y_m^2, and the cross
    terms 2 Re w_k conj(w_l) int P_k P_l over pairs k < l of one
    class.  A stable sort of tau lists those pairs; classes hold at
    most a handful of pairs.  Every integral is one nodal sum of the
    exact normalized rule ``QuadratureRule`` of S^d; one rule and one
    harmonic table, sized for the largest M, serve every M, and A is
    formed once.

    Parameters
    ----------
    f, g : ZonalSpectrum
        Same dimension d; blocks cover [N, 2N) and [M, 2M).
    block_n : int
        Dyadic block start N.
    block_ms : sequence of int
        Dyadic block starts M, at least one, each with 1 <= M <= N.

    Returns
    -------
    ndarray
        One norm per M, in the order of ``block_ms``.
    """
    if f.d != g.d:
        raise ValueError("spectra must share the sphere dimension")
    if len(block_ms) == 0:
        raise ValueError("needs at least one block start M")
    if min(block_ms) < 1:
        raise ValueError("block starts M must be at least 1")
    if max(block_ms) > block_n:
        raise ValueError("expects N >= M")
    d = f.d
    top = 2 * block_n - 1 + 2 * max(block_ms) - 1
    rule = QuadratureRule.for_degree(2 * top, d)
    table = zonal_harmonic_table(min(2 * block_n - 1, max(f.n_max, g.n_max)), d, rule.nodes)
    # Degrees past n_max carry no coefficient and no term.
    a = f.coef[block_n:2 * block_n]
    y_n = table[block_n:block_n + a.size]
    moment = np.abs(a) ** 2 @ y_n**2
    n = np.arange(block_n, block_n + a.size)
    norms = []
    for block_m in block_ms:
        b = g.coef[block_m:2 * block_m]
        y_m = table[block_m:block_m + b.size]
        field = moment * (np.abs(b) ** 2 @ y_m**2)
        m = np.arange(block_m, block_m + b.size)
        tau = np.add.outer(n * (n + d - 1), m * (m + d - 1)).ravel()
        order = np.argsort(tau, kind="stable")
        ranked = tau[order]
        # Sorted, tau[k] == tau[l] at rank distance s puts every rank
        # between them in the same class, so distances 1, 2, ... list
        # each within-class pair once; the widest class ends the walk.
        firsts, seconds = [], []
        for shift in range(1, tau.size):
            same = ranked[shift:] == ranked[:-shift]
            if not same.any():
                break
            firsts.append(order[:-shift][same])
            seconds.append(order[shift:][same])
        if firsts:
            kn, km = np.divmod(np.concatenate(firsts), b.size)
            ln, lm = np.divmod(np.concatenate(seconds), b.size)
            cross = 2.0 * (a[kn] * b[km] * np.conj(a[ln] * b[lm])).real
            for start in range(0, cross.size, _CHUNK):
                s = slice(start, start + _CHUNK)
                overlap = y_n[kn[s]] * y_m[km[s]]
                overlap *= y_n[ln[s]]
                overlap *= y_m[lm[s]]
                field += cross[s] @ overlap
        norms.append(math.sqrt(rule.integrate(field)))
    return np.array(norms)


def l4_norm_beam(n: int) -> float:
    """||Y_n^n||^4_{L^4(S^2)} in closed form.

    Single-mode beams make the time factor unimodular, so the
    space-time quartic norm equals the spatial one,
    c_n^4 integral_0^1 (1 - x^2)^{2n} dx.  Both factors are running
    products: c_n^2 = (2n + 1) (1/2)_n / n! and the Wallis integral
    prod_{i <= 2n} 2i / (2i + 1).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    c_squared = (2 * n + 1) * _pochhammer_ratios(0.5, n + 1)[n]
    i = np.arange(1.0, 2 * n + 1)
    return float(c_squared * c_squared * np.prod(2.0 * i / (2.0 * i + 1.0)))
