"""Graph dimension of evolved step data: rational vs irrational times.

At generic (irrational) times the solution graph is fractal with box
dimension near 3/2; at rational times the solution is again a step
function, so the dimension drops back to 1.
"""

import numpy as np

from talbotlab.fractal import dim_t
from talbotlab.spectra import torus_step

spec = torus_step([(0.0, 1.0), (np.pi, -1.0)], m_max=4096)

golden = 2 * np.pi * (np.sqrt(5) - 1) / 2
sqrt2 = 2 * np.pi * (np.sqrt(2) - 1)
quarter = 2 * np.pi / 4

print("time              dim(Re)  dim(Im)  max")
for label, t in [("2pi*golden", golden), ("2pi*(sqrt2-1)", sqrt2),
                 ("2pi*1/4", quarter)]:
    report = dim_t(spec, t, 2**14, (4, 9))
    print(f"{label:<17} {report.real.slope:.3f}    {report.imag.slope:.3f}"
          f"    {report.max_slope:.3f}")

print()
print("irrational times sit near 1.5, the rational time collapses toward 1")
