"""Dyadic sup-norm profile of an evolved zonal series on the sphere.

Power-law zonal data a_n = n^{-p} keeps a Holder modulus under the
half-wave-type flow: the weighted block sup norms 2^{0.4 j} ||P_j u||
show no growth trend across dyadic levels.  This runs the zonal-holder
study at n_max = 511 instead of its 8191.
"""

from talbotlab.experiments import run_zonal_holder

result = run_zonal_holder(n_max=511, j_max=8, window=(2, 8))
print("panel time   log2 slope   peak level   peak 2^{0.4 j} ||P_j u||")
for row in result.rows:
    print(f"{row['t']:<12.6f} {row['slope']:>+10.4f}"
          f"   {row['peak_level']:>10}   {row['peak_weighted_norm']:.5f}")
print(f"\npanel-median slope {result.measured['median_slope']:.4f}"
      f" (flat or negative means the Holder bound holds): "
      f"{'pass' if result.passed else 'fail'}")
