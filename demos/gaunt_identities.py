"""Triple-product integrals of zonal harmonics and their identities.

kappa(n1, n2, n3) is symmetric, non-negative, vanishes outside the
triangle-type support, and composes under Parseval into quadruple
products.  For kappa(n, n, n2, n3) the large-n limit is a meridian
line integral, approached at rate 1/n.  The identities run the
kappa-table study with tables up to n = 6; the limit runs the
resonance study.
"""

from talbotlab.experiments import run_kappa_suite, run_resonance_decay
from talbotlab.gaunt import KappaTable

# triple[n, a, b] = kappa(n, a, b) for n <= 2 n_max and a, b <= n_max.
table = KappaTable.build(3, d=2)
print("support on S^2:")
for a, b, n in [(0, 0, 0), (1, 1, 2), (2, 3, 5), (1, 1, 3), (1, 2, 5)]:
    print(f"  kappa{(a, b, n)} = {table.triple[n, a, b]:.6f}")

suite = run_kappa_suite(n_max=6, scan_n_max=16)
print("\nidentities over every tuple up to n = 6 (permutation: largest change of"
      " a kappa tensor under any reordering of its indices):")
print("  d   min entry    off-support   permutation   Parseval     unclassified")
for row in suite.rows:
    print(f"  {row['d']}   {row['min_entry']:+.2e}   {row['support_max']:.2e}"
          f"      {row['permutation_defect']:.1e}       {row['parseval_max']:.2e}"
          f"   {row['unclassified']}")
print(f"  {'pass' if suite.passed else 'fail'}")

resonance = run_resonance_decay()
print("\nresonant limit kappa(n, n, 3, 5) -> meridian line integral:")
for row in resonance.rows:
    print(f"  n={row['n']:<4} kappa={row['kappa']:.6f}"
          f"  line={row['line_integral']:.6f}  diff={row['difference']:.2e}")
print(f"fitted decay exponent {resonance.measured['decay_exponent']:.2f}"
      f" (expect about -1 or faster): {'pass' if resonance.passed else 'fail'}")
