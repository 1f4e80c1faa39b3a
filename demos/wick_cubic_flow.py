"""Zonal cubic flow: resonant gauge, mass, and nonlinear smoothing.

The resonant self-interaction only rotates the global phase.  The
solver tracks that phase, and subtracting the phased linear flow
(the Wick-ordered reference) leaves a residual whose dyadic tail
decays strictly faster than the solution's.
"""

from talbotlab.fitting import fit_loglog
from talbotlab.spectra import zonal_decay_family
from talbotlab.znls import NLSConfig, smoothing_residual, solve

config = NLSConfig(dt=1e-3, t_final=0.1)
data = zonal_decay_family(p=1.1, n_max=256, d=2)

trajectory = solve(data, config, sign=1)
print(f"mass drift over [0, {config.t_final}]: {trajectory.mass_drift():.2e}")
print(f"accumulated resonant phase: {trajectory.final.phase:.6f}")

table = smoothing_residual(trajectory, s=0.5, eps=0.25)
print("\nN    ||P_N r||      ||P_N u||      ratio")
for n, r, u in zip(table.n_values, table.r_norms, table.u_norms):
    print(f"{n:<4} {r:.3e}   {u:.3e}   {r / u:.3e}")

keep = table.n_values >= 8
fit_r = fit_loglog(table.n_values[keep], table.r_norms[keep], base=2)
fit_u = fit_loglog(table.n_values[keep], table.u_norms[keep], base=2)
print(f"\nresidual tail exponent {fit_r.slope:.2f} vs solution"
      f" {fit_u.slope:.2f}: a gain of {fit_u.slope - fit_r.slope:.2f}"
      " derivatives")
