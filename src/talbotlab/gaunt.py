"""Gaunt integrals of zonal harmonics, resonance symbol, and Lambda sets.

The central object is

    kappa(n_1, ..., n_j) = (1/omega_d) * integral over S^d of the
    product of unit-normalized zonal harmonics,

reduced to a one-dimensional Gauss-Jacobi quadrature with weight
(1 - x^2)^{(d-2)/2}, normalized to total mass one (``QuadratureRule``).
Every integrand is a polynomial in cos(theta), so sufficiently many
nodes make the quadrature exact rather than approximate.  kappa is
symmetric in its indices, non-negative, and vanishes when one index
exceeds the sum of the others.  A study builds one rule and one
harmonic table, sized for its largest degree, and reads every kappa it
needs from them: ``KappaTable`` holds every 3- and 4-index value up to
a degree as two dense tensors, and ``resonance_compare`` the values
kappa(n, n, n2, n3) of a list of degrees n.

The module also counts the admissible tuples that the Lambda_0 /
Lambda_1 / Lambda_2 sets, with frozen constants, leave unclassified,
and compares kappa(n, n, n2, n3) at large n with a line integral over
a meridian: the same normalized rule at d = 1, where it averages over
theta in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfun import gauss_rule, zonal_harmonic_table

__all__ = [
    "QuadratureRule",
    "KappaTable",
    "FROZEN_LAMBDA_CONSTANTS",
    "admissible",
    "count_unclassified",
    "resonance_compare",
]

# (c1, c2) of the Lambda_1 / Lambda_2 inequalities: c2 = 1 and the
# largest c1 leaving no admissible tuple with n <= 64 unclassified,
# rounded down for margin.
FROZEN_LAMBDA_CONSTANTS = {2: (0.88, 1.0), 3: (0.82, 1.0)}


@dataclass(frozen=True)
class QuadratureRule:
    """The normalized measure of S^d pushed to x = cos(theta).

    A Gauss-Jacobi rule on [-1, 1] with weight (1 - x^2)^{(d-2)/2},
    scaled to total mass one, so ``integrate`` gives
    (1/omega_d) integral over S^d of a zonal integrand.  At d = 1 it is
    Gauss-Chebyshev: (1/pi) integral_0^pi f(cos theta) dtheta.  Newton
    on Y_N gives the nodes, Christoffel numbers the weights
    (``specialfun.gauss_rule``).

    Attributes
    ----------
    nodes, weights : ndarray
        Quadrature nodes and weights summing to one; polynomials up to
        degree 2 * node_count - 1 integrate exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_degree(cls, total_degree: int, d: int) -> "QuadratureRule":
        """Rule sized for polynomial integrands up to total_degree."""
        nodes, weights = gauss_rule(total_degree // 2 + 8, d)
        return cls(nodes=nodes, weights=weights)

    @property
    def node_count(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float:
        """Mean of a zonal integrand over S^d, sampled at the nodes."""
        return float(self.weights @ values)


def admissible(indices):
    """Polygon support condition: max index <= sum of the others.

    ``indices`` may also stack index arrays along its first axis, as
    ``np.indices`` does; the condition then holds elementwise.
    """
    idx = np.asarray(indices)
    return 2 * idx.max(0) <= idx.sum(0)


@dataclass(frozen=True, eq=False)
class KappaTable:
    """Every 3- and 4-index kappa up to n_max, as two dense tensors.

    Both come from one exact quadrature rule and one harmonic table, as
    products of the nodal arrays, so a tensor and its index transposes
    differ only by the roundoff of different factor orders.

    Attributes
    ----------
    d : int
    node_count : int
        Nodes in the shared exact quadrature rule.
    triple : ndarray
        ``triple[n, a, b]`` = kappa(n, a, b) for n <= 2 n_max and
        a, b <= n_max: every degree in the product of two harmonics.
    quad : ndarray
        ``quad[a, b, c, e]`` = kappa(a, b, c, e) for indices <= n_max,
        the largest degree, read from its shape.
    """

    d: int
    node_count: int
    triple: np.ndarray
    quad: np.ndarray

    @property
    def n_max(self) -> int:
        return self.quad.shape[0] - 1

    @classmethod
    def build(cls, n_max: int, d: int = 2) -> "KappaTable":
        """Evaluate both tensors with one rule and one harmonic table."""
        rule = QuadratureRule.for_degree(4 * n_max, d)
        table = zonal_harmonic_table(2 * n_max, d, rule.nodes)
        low = table[: n_max + 1]
        pairs = low[:, None, :] * low[None, :, :]
        weighted = pairs * rule.weights
        triple = np.einsum("nk,abk->nab", table, weighted)
        quad = np.einsum("abk,cek->abce", weighted, pairs)
        triple.flags.writeable = quad.flags.writeable = False
        return cls(d=d, node_count=rule.node_count, triple=triple, quad=quad)


def count_unclassified(n_max: int, d: int = 2, constants=None) -> int:
    """Admissible tuples with 1 <= n <= n_max that no Lambda set covers.

    The tuples are (n1, n2, n3, n) with every index at most n_max.  One
    is in Lambda_0 when n1 = n or n3 = n, in Lambda_1 when
    <n1><n2><n3> >= c1 n^{3/2}, and in Lambda_2 when
    |H| >= c2 max(n1, n2, n3) |n - max(n1, n3)|, where
    H = lambda_n - lambda_{n1} + lambda_{n2} - lambda_{n3} and
    lambda_m = m (m + d - 1).  ``constants`` is (c1, c2), by default
    ``FROZEN_LAMBDA_CONSTANTS[d]``; both must be finite.

    The Lambda_1 test is exact integer arithmetic: with
    P = (1 + n1^2)(1 + n2^2)(1 + n3^2), a tuple misses Lambda_1 exactly
    when c1 > 0 and P < need(n) = ceil(c1^2 n^3), c1 taken as the exact
    value of its float.  Since need grows with n, only the triples with
    P < need(n_max) can miss Lambda_1 at any n <= n_max; they are found
    once, an n1 slab at a time in O(n_max^2) memory, and tested at each
    n.  P is an int64, which bounds n_max by 1448.
    """
    if constants is None:
        constants = FROZEN_LAMBDA_CONSTANTS[d]
    c1, c2 = constants
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError("Lambda constants c1, c2 must be finite")
    if n_max < 1 or c1 <= 0:
        return 0
    top_p = (1 + n_max * n_max) ** 3
    if top_p >= np.iinfo(np.int64).max:
        raise ValueError(f"n_max {n_max} overflows the int64 bracket products; "
                         "the largest n_max is 1448")
    num, den = c1.as_integer_ratio()

    def need(n: int) -> int:
        # ceil(num^2 n^3 / den^2) in integers, capped one above the
        # largest P, so it fits an int64 and every comparison keeps its
        # truth value.
        return min(-(-num * num * n**3 // (den * den)), top_p + 1)

    rng = np.arange(n_max + 1, dtype=np.int64)
    br = 1 + rng * rng
    pairs = br[:, None] * br[None, :]
    left = [np.nonzero(b * pairs < need(n_max)) for b in br]
    m1 = np.repeat(rng, [m2.size for m2, _ in left])
    m2, m3 = (np.concatenate(parts) for parts in zip(*left))
    prods = br[m1] * br[m2] * br[m3]
    shift = d - 1
    lam = rng * (rng + shift)
    lam_part = -lam[m1] + lam[m2] - lam[m3]
    top = np.maximum(np.maximum(m1, m2), m3)
    outer = np.maximum(m1, m3)
    total = m1 + m2 + m3
    count = 0
    # One n at a time: broadcasting over n too costs more peak memory
    # than the loop saves in time.
    for n in range(1, n_max + 1):
        keep = 2 * np.maximum(top, n) <= total + n
        keep &= (m1 != n) & (m3 != n)
        keep &= np.abs(n * (n + shift) + lam_part) < c2 * (top * np.abs(n - outer))
        keep &= prods < need(n)
        count += int(np.count_nonzero(keep))
    return count


def resonance_compare(degrees, n2: int, n3: int, d: int = 2):
    """kappa(n, n, n2, n3) for each n of ``degrees``, and their large-n
    meridian limit.

    Every kappa is one nodal sum on the rule and harmonic table of the
    largest n; the limit does not depend on n.

    Parameters
    ----------
    degrees : sequence of int
        The degrees n, at least one, none below n2 or n3.
    n2, n3 : int
        Non-negative degrees.
    d : int
        Sphere dimension, at least 2.

    Returns
    -------
    (ndarray, float)
        kappa(n, n, n2, n3) for each n, in the order of ``degrees``, and
        the line integral (1/pi) integral_0^pi Y_{n2} Y_{n3} dtheta.
    """
    degrees = np.asarray(degrees, dtype=int)
    if degrees.size == 0:
        raise ValueError("resonance comparison needs at least one degree n")
    if min(n2, n3) < 0:
        raise ValueError("degrees must be non-negative")
    if d < 2:
        raise ValueError("sphere dimension must be at least 2")
    if max(n2, n3) > degrees.min():
        raise ValueError("resonance comparison needs n2, n3 <= n")
    n_top = int(degrees.max())
    rule = QuadratureRule.for_degree(2 * n_top + n2 + n3, d)
    table = zonal_harmonic_table(n_top, d, rule.nodes)
    pair = table[n2] * table[n3]
    kappas = np.array([rule.integrate(pair * table[n] * table[n]) for n in degrees])
    # The rule of S^1 is exact for Y_{n2} Y_{n3}, of degree n2 + n3 in cos(theta).
    meridian = QuadratureRule.for_degree(2 * max(n2, n3), 1)
    line_table = zonal_harmonic_table(max(n2, n3), d, meridian.nodes)
    return kappas, meridian.integrate(line_table[n2] * line_table[n3])
