"""Zonal harmonics: quadrature-exact orthonormality and asymptotics.

A Gauss-Jacobi rule of high enough design degree reproduces the zonal
Gram matrix to roundoff, and the large-degree asymptotic form tracks
the exact harmonic inside the Szego window with an n^{-3/2}/sin(theta)
error envelope.
"""

import numpy as np

from talbotlab.gaunt import QuadratureRule
from talbotlab.specialfun import (
    jacobi_asymptotic,
    jacobi_symmetric,
    weight_ratio,
    zonal_harmonic_table,
)

for d in (2, 3):
    n_max = 32
    rule = QuadratureRule.for_degree(2 * n_max, d)
    table = zonal_harmonic_table(n_max, d, rule.nodes)
    ratio = weight_ratio(d)
    gram = ratio * ((table * rule.weights) @ table.T)
    defect = float(np.max(np.abs(gram - np.eye(n_max + 1))))
    print(f"d={d}: orthonormality defect over n <= {n_max}: {defect:.2e}")

print("\nasymptotic error times n^{3/2} sin(theta), d = 2:")
for n in (32, 64, 128, 256):
    theta = np.linspace(8.0 / n, np.pi - 8.0 / n, 400)
    exact = jacobi_symmetric(n, 2, np.cos(theta))
    approx, _ = jacobi_asymptotic(n, 2, theta)
    scaled = np.max(np.abs(exact - approx) * n**1.5 * np.sin(theta))
    print(f"  n={n:<4} envelope constant {scaled:.3f}")
print("one modest constant covers every degree")
