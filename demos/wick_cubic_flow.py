"""Zonal cubic flow: resonant gauge, mass, and nonlinear smoothing.

The resonant self-interaction only rotates the global phase.  The
solver tracks that phase, and subtracting the phased linear flow
(the Wick-ordered reference) leaves a residual whose dyadic tail
decays strictly faster than the solution's.  This runs the
nls-smoothing study at n_max = 128 instead of 256.
"""

from talbotlab.experiments import run_nls_smoothing

t_final = 0.1
result = run_nls_smoothing(n_max=128, t_final=t_final)
measured = result.measured
print(f"mass drift over [0, {t_final}]: {measured['mass_drift']:.2e}")
print(f"single-mode error against the exact phase rotation:"
      f" {measured['single_mode_error']:.2e}")

print("\nN    ||P_N r||      ||P_N u||      ratio")
for row in result.rows:
    r, u = row["residual_norm"], row["solution_norm"]
    print(f"{row['N']:<4} {r:.3e}   {u:.3e}   {r / u:.3e}")

print(f"\nresidual tail exponent {measured['residual_tail_exponent']:.2f} vs solution"
      f" {measured['solution_tail_exponent']:.2f}: a gain of"
      f" {measured['smoothing_gain']:.2f} derivatives:"
      f" {'pass' if result.passed else 'fail'}")
