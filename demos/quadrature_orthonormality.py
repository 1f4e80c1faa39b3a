"""Zonal harmonics: quadrature-exact orthonormality and asymptotics.

A Gauss-Jacobi rule of high enough design degree reproduces the zonal
Gram matrix to roundoff, and the large-degree asymptotic form tracks
the exact harmonic inside the Szego window with an n^{-3/2}/sin(theta)
error envelope.  This runs the specfun-check study on S^2 and S^3.
"""

from talbotlab.experiments import run_specialfun_checks

for d in (2, 3):
    result = run_specialfun_checks(ortho_n_max=32, szego_degrees=(32, 64, 128, 256),
                                   theta_points=400, d=d)
    print(f"d={d}: orthonormality defect over n <= 32:"
          f" {result.measured['orthonormality_defect']:.2e}")
    print("  asymptotic error times n^{3/2} sin(theta):")
    for row in result.rows:
        print(f"    n={row['n']:<4} envelope constant {row['envelope_constant']:.3f}")
    print(f"  one constant <= {result.criteria['envelope_constant_max']} covers every"
          f" degree: {'pass' if result.passed else 'fail'}")
