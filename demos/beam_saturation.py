"""Beam quartic growth against zonal bilinear near-orthogonality.

The highest-weight harmonic (a beam concentrated on the equator) has
quartic integral growing like sqrt(n), while products of zonal blocks
with separated frequencies stay nearly orthogonal: the bilinear norm
grows only like a tiny power of the lower block M.  This runs the
strichartz study with beams up to degree 256.
"""

from talbotlab.experiments import run_bilinear_contrast

result = run_bilinear_contrast(beam_degrees=(8, 16, 32, 64, 128, 256))
print("beam quartic integral by degree:")
for row in result.rows:
    if row["study"] == "beam-quartic":
        print(f"  n={row['index']:<4} integral={row['value']:.4f}")
print(f"growth exponent {result.measured['beam_quartic_exponent']:.3f}"
      " (saturates near 1/2)")

print("\nzonal bilinear block ratios (N = 128):")
for row in result.rows:
    if row["study"] == "bilinear":
        print(f"  M={row['index']:<3} normalized bilinear norm {row['ratio']:.4f}")
print(f"growth exponent in M: {result.measured['bilinear_exponent']:.3f} (near zero)")
print("pass" if result.passed else "fail")
