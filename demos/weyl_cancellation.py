"""Square-root cancellation in weighted quadratic Weyl sums.

With weights b_n = n^{-p} the running supremum over a dyadic block
[N, 2N) scales like N^{1/2 - p} at generic times, while at rational
times the sum stays of size N (no cancellation).  The generic-time
part runs the weyl study on blocks N = 16..256.
"""

import math

from talbotlab.experiments import run_weyl_decay
from talbotlab.expsum import weyl_block_sup

exponents = (4, 8)
result = run_weyl_decay(exponent_range=exponents)
blocks = [2**k for k in range(exponents[0], exponents[1] + 1)]
print("panel time   weighted block sup for N = "
      + ", ".join(str(n) for n in blocks))
for first in range(0, len(result.rows), len(blocks)):
    rows = result.rows[first:first + len(blocks)]
    print(f"{rows[0]['t']:<12.6f} "
          + "  ".join(f"{row['sup']:.3e}" for row in rows))
print(f"panel-median exponent {result.measured['median_exponent']:.3f}"
      f" (expect near -1.0): {'pass' if result.passed else 'fail'}")

t_rat = 2 * math.pi / 5
plain = [weyl_block_sup(t_rat, n, weights=lambda m: 1.0).sup / n
         for n in [2**k for k in range(4, 10)]]
print("\nrational time 2pi/5, unweighted sup/N:",
      ", ".join(f"{v:.3f}" for v in plain))
print("the normalized rational-time sums stay bounded away from zero")
