"""Shared fixtures, test data and independent quadrature oracles.

The oracles below deliberately avoid the library's own quadrature and
recurrence code paths: they go through scipy.special closed forms and
scipy.integrate adaptive quadrature so that agreement is meaningful.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate
from scipy.special import (
    binom,
    eval_chebyu,
    eval_gegenbauer,
    eval_legendre,
    gamma as gamma_fn,
    gammaln,
    roots_jacobi,
)

from talbotlab.gaunt import QuadratureRule
from talbotlab.specialfun import zonal_harmonic_table

# One Hypothesis profile for the suite: the time per example of the
# FFT- and quadrature-backed properties follows the machine's load, so
# no per-example deadline; each test keeps its own max_examples.
settings.register_profile("talbotlab", deadline=None)
settings.load_profile("talbotlab")


def evaluate_torus_whole(spec, grid_size):
    """The whole sampled field at once (oracle of the strip evaluation):
    one axis at a time, last axis first, each axis zero-padded to the
    grid and inverse-transformed in place, unscaled."""
    values = spec.coef
    for axis in reversed(range(spec.d)):
        m_max = values.shape[axis] // 2
        lead = (slice(None),) * axis
        placed = np.zeros(values.shape[:axis] + (grid_size,) + values.shape[axis + 1:],
                          dtype=complex)
        placed[lead + (slice(0, m_max + 1),)] = values[lead + (slice(m_max, None),)]
        placed[lead + (slice(grid_size - m_max, grid_size),)] = values[lead + (slice(0, m_max),)]
        np.fft.ifft(placed, axis=axis, norm="forward", out=placed)
        values = placed
    return values


def cosine_series_fft(block, period):
    """Samples of a zonal block at s_k = 2 pi k / period by one forward
    FFT of its cosine series (oracle of the torus transform): the
    coefficients of cos(m s), m >= 0, are folded modulo the period,
    split back into e^{ims}/2 + e^{-ims}/2, and transformed."""
    beta = np.array(block.coef[block.m_max:])
    beta[1:] *= 2.0
    padded = np.zeros(-(-beta.size // period) * period, dtype=complex)
    padded[: beta.size] = beta
    folded = padded.reshape(-1, period).sum(axis=0)
    return np.fft.fft(0.5 * (folded + np.roll(folded[::-1], 1)))


def cosine_blocks_one_spectrum(coef, d, edges):
    """The even coefficient arrays of each degree block of one zonal
    expansion (oracle of ``specialfun.zonal_cosine_blocks``, which sums
    the same terms as Toeplitz-times-Hankel matrix products): the same
    running products, summed by one slice update per j, in j order."""
    coef = np.asarray(coef, dtype=complex)
    clipped = np.clip(np.asarray(edges, dtype=int), 0, coef.size)
    top = max(int(clipped[-1]), 1)
    lam = (d - 1) / 2.0

    def ratios(c):
        i = np.arange(top - 1, dtype=float)
        return np.concatenate(([1.0], np.cumprod((c + i) / (1.0 + i))))

    g = ratios(lam)
    w = coef[:top] * np.sqrt((np.arange(top) + lam) / (lam * ratios(2.0 * lam)))
    blocks = []
    for lo, hi in zip(clipped[:-1].tolist(), clipped[1:].tolist()):
        beta = np.zeros(hi if lo < hi else 1, dtype=complex)
        for j in range((hi + 1) // 2 if lo < hi else 0):
            n0 = max(lo, 2 * j)
            beta[n0 - 2 * j:hi - 2 * j] += w[n0:hi] * (g[j] * g[n0 - j:hi - j])
        blocks.append(np.concatenate((beta[:0:-1], beta)))
    return blocks


def signed_polygon_box_whole(verts, m_max, area):
    """The whole polygon box at once (oracle of the row-chunked build of
    ``spectra._signed_polygon_box``): every per-edge temporary covers
    the whole box, with the same outer products and edge order."""
    m = np.arange(-m_max, m_max + 1)
    waves = np.exp(-1j * np.multiply.outer(verts, m))
    box = np.zeros((m.size, m.size), dtype=complex)
    row = np.zeros(m.size, dtype=complex)
    nverts = verts.shape[0]
    for j in range(nverts):
        k = (j + 1) % nverts
        u = verts[k] - verts[j]
        start = np.multiply.outer(waves[j, 0], waves[j, 1])
        edge = np.multiply.outer(waves[k, 0], waves[k, 1])
        edge -= start
        mu = np.add.outer(m * u[0], m * u[1])
        small = np.abs(mu) < 1e-6
        edge /= -1j * np.where(small, 1.0, mu)
        z = -1j * mu[small]
        edge[small] = start[small] * (1.0 + z / 2.0 + z * z / 6.0)
        box += u[1] * edge
        row -= u[0] * edge[m_max]
    box[:m_max] /= -1j * m[:m_max, None]
    box[m_max + 1:] /= -1j * m[m_max + 1:, None]
    box[m_max, :m_max] = row[:m_max] / (-1j * m[:m_max])
    box[m_max, m_max + 1:] = row[m_max + 1:] / (-1j * m[m_max + 1:])
    box[m_max, m_max] = area
    box /= (2.0 * math.pi) ** 2
    return box


def kappa(indices, d=2):
    """Normalized integral of a product of 2, 3 or 4 zonal harmonics, one
    tuple at a time (the per-tuple oracle of ``gaunt.KappaTable`` and
    ``gaunt.resonance_compare``): the library's rule sized for this
    tuple's total degree and its harmonic table, multiplied in sorted
    index order, so a permutation of the indices gives the same float."""
    idx = tuple(sorted(int(i) for i in indices))
    if len(idx) not in (2, 3, 4):
        raise ValueError("kappa takes 2, 3, or 4 degree indices")
    if idx[0] < 0:
        raise ValueError("degrees must be non-negative")
    if d < 2:
        raise ValueError("sphere dimension must be at least 2")
    rule = QuadratureRule.for_degree(sum(idx), d)
    table = zonal_harmonic_table(max(idx), d, rule.nodes)
    product = np.ones_like(rule.nodes)
    for i in idx:
        product = product * table[i]
    return rule.integrate(product)


def pair_frequency_classes(block_n, block_m, d=2):
    """Pairs (n, m) in [N, 2N) x [M, 2M) grouped by lambda_n + lambda_m:
    a dict tau -> list of (n, m), every pair under exactly one tau."""
    classes = {}
    for n in range(block_n, 2 * block_n):
        for m in range(block_m, 2 * block_m):
            classes.setdefault(n * (n + d - 1) + m * (m + d - 1), []).append((n, m))
    return classes


def bilinear_l2_by_class(f, g, block_n, block_m):
    """The bilinear space-time norm one tau-class at a time (oracle of
    ``strichartz.bilinear_l2``): for each class, sum w_nm Y_n Y_m at
    the nodes in Python and integrate its squared modulus.  It checks
    the split into moments and cross terms, so it samples the same
    rule and table as the library."""
    d = f.d
    top = 2 * block_n - 1 + 2 * block_m - 1
    rule = QuadratureRule.for_degree(2 * top, d)
    table = zonal_harmonic_table(min(2 * block_n - 1, max(f.n_max, g.n_max)), d, rule.nodes)

    def coef_at(spec, n):
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


def random_phase(spec, seed):
    """The spectrum with seeded i.i.d. uniform unimodular phases on each entry.

    Generic complex test data: the result is no longer real-valued in
    physical space.
    """
    rng = np.random.default_rng(seed)
    return spec.scaled(np.exp(2j * np.pi * rng.random(np.shape(spec.coef))))


def torus_coefficient(spec, m):
    """f_hat(m) of a TorusSpectrum, zero outside its stored box."""
    m = tuple(int(c) for c in np.atleast_1d(m))
    assert len(m) == spec.d
    if max(abs(c) for c in m) > spec.m_max:
        return 0.0 + 0.0j
    return complex(spec.coef[tuple(c + spec.m_max for c in m)])


def legendre_zonal(n, x):
    """L2-normalized zonal harmonic on S^2 via scipy Legendre."""
    return np.sqrt(2 * n + 1) * eval_legendre(n, x)


def chebyshev_zonal(n, x):
    """L2-normalized zonal harmonic on S^3 via scipy Chebyshev-U."""
    return eval_chebyu(n, x)


def zonal_oracle(n, d, x):
    """Normalized zonal harmonic through scipy closed forms.

    Legendre on S^2, Chebyshev-U on S^3, and otherwise
    sqrt(dim_n) C_n^lambda(x) / C_n^lambda(1) with lambda = (d-1)/2.
    """
    if d == 2:
        return legendre_zonal(n, x)
    if d == 3:
        return chebyshev_zonal(n, x)
    lam = (d - 1) / 2
    dim = math.comb(n + d, d) - math.comb(n + d - 2, d)
    return math.sqrt(dim) * eval_gegenbauer(n, lam, x) / binom(n + 2 * lam - 1, n)


def gaussian_beam(n, theta, phi):
    """The Gaussian beam Y_n^n on S^2, unit norm in the probability measure.

    (-1)^n sqrt((2n+1) binom(2n, n)) 2^{-n} sin^n(theta) e^{i n phi},
    with the binomial taken in log space so large degrees stay finite.
    """
    log_amp = 0.5 * (
        math.log(2.0 * n + 1.0) + gammaln(2.0 * n + 1.0) - 2.0 * gammaln(n + 1.0)
    ) - n * math.log(2.0)
    return (-1) ** n * math.exp(log_amp) * np.sin(theta) ** n * np.exp(1j * n * np.asarray(phi))


def sphere_weight(d):
    """Density w(x) with int_{-1}^{1} w = 1 matching the zonal measure.

    Pushing the normalized surface measure of S^d to x = cos(theta)
    gives w(x) proportional to (1 - x^2)^{(d-2)/2}.
    """
    c = gamma_fn(d / 2 + 0.5) / (np.sqrt(np.pi) * gamma_fn(d / 2))

    def w(x):
        return c * (1.0 - x * x) ** ((d - 2) / 2)

    return w


def sphere_rule(d, count):
    """Gauss-Jacobi rule for the normalized zonal measure, via scipy.

    The nodes of ``roots_jacobi`` with the Christoffel weights
    1 / sum_{n < count} Y_n(x_k)^2 of the closed-form harmonics:
    scipy's own weights already err by 4.4e-13 relative at 32 nodes on
    S^3.  Returns nodes and weights summing to one; exact for
    polynomial integrands of degree up to 2 * count - 1.
    """
    alpha = (d - 2) / 2
    nodes, _ = roots_jacobi(count, alpha, alpha)
    weights = 1.0 / sum(zonal_oracle(n, d, nodes) ** 2 for n in range(count))
    return nodes, weights / np.sum(weights)


def quad_product_integral(degrees, d):
    """Adaptive-quadrature integral of a product of zonal harmonics.

    Returns int_{-1}^{1} prod_i Y_{n_i}(x) w_d(x) dx computed with
    scipy.integrate.quad, independent of any Gauss-Jacobi rule.
    """
    w = sphere_weight(d)

    def f(x):
        out = w(x)
        for n in degrees:
            out = out * zonal_oracle(n, d, x)
        return out

    val, err = integrate.quad(f, -1.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-8
    return val


def kappa_vector(fixed, n_values, d):
    """kappa(fixed + (n,)) for every n in n_values, from one scipy rule.

    A Gauss-Jacobi rule with enough nodes to integrate the product of
    the fixed harmonics and the highest Y_n exactly, and the scipy
    closed-form harmonics: neither the library's quadrature sizing nor
    its Jacobi recurrence.
    """
    n_values = np.asarray(n_values, dtype=int)
    nodes, weights = sphere_rule(d, (sum(fixed) + int(n_values.max())) // 2 + 8)
    for i in fixed:
        weights = weights * zonal_oracle(i, d, nodes)
    return np.array([zonal_oracle(int(n), d, nodes) @ weights for n in n_values])


def quad_line_integral(n1, n2, d):
    """(1/pi) int_0^pi Y_{n1}(cos t) Y_{n2}(cos t) dt via scipy quad."""

    def f(t):
        x = np.cos(t)
        return zonal_oracle(n1, d, x) * zonal_oracle(n2, d, x) / np.pi

    val, err = integrate.quad(f, 0.0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-8
    return val


def quad_triangle_coefficient(m1, m2):
    """Fourier coefficient of the indicator of {0 <= y <= x <= pi}.

    Semi-analytic oracle for the triangle (0,0), (pi,0), (pi,pi): the
    inner y-integral is evaluated in closed form and the outer integral
    with scipy.integrate.quad, so no 2-d indicator quadrature is needed.
    """

    def inner(x):
        if m2 == 0:
            return x + 0j
        return (1.0 - np.exp(-1j * m2 * x)) / (1j * m2)

    def f_re(x):
        return (np.exp(-1j * m1 * x) * inner(x)).real

    def f_im(x):
        return (np.exp(-1j * m1 * x) * inner(x)).imag

    kw = dict(limit=300, epsabs=1e-13, epsrel=1e-13)
    re, re_err = integrate.quad(f_re, 0.0, np.pi, **kw)
    im, im_err = integrate.quad(f_im, 0.0, np.pi, **kw)
    assert max(re_err, im_err) < 1e-9
    return (re + 1j * im) / (4.0 * np.pi**2)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
