"""Pseudo-spectral solver for the zonal cubic NLS on S^d.

Coefficientwise the truncated flow is

    d a_n / dt = i lambda_n a_n + i sigma (|u|^2 u)^_n,
    lambda_n = n (n + d - 1),

integrated by Strang splitting.  The linear half-steps are the exact
phase rotations e^{i dt lambda_n / 2} of ``evolve.propagate_sphere``,
computed once per ``solve``.  The nonlinear substep freezes |u|^2 at a
half-step prediction and applies the unitary rotation exp(i sigma dt B)
with

    B_nm = (1/omega_d) integral |u|^2 Y_n Y_m dsigma,

given by the exact normalized rule ``QuadratureRule``; B is real
symmetric, so mass is conserved to roundoff, and B(u) u is the zonal
projection of the cubic term |u|^2 u.  B is never formed: with T the
table of Y_n at the nodes and w the rule's weights,
B v = T diag(w |u|^2) T^T v costs two products with T, and
exp(i sigma dt B) v is summed as a Taylor series.  Exact quadrature
and orthonormality give ||B|| <= max |u|^2 over the nodes, so the
step is cut into ceil(dt max |u|^2) substeps with ||tau B|| <= 1, and
each series stops at the first term below 1e-17 of its partial sum.  The work
depends only on the data, and a time step makes no LAPACK call.

The resonant part of the nonlinearity acts asymptotically as the
state-dependent phase

    gamma(t; u) = (2/pi) integral_0^pi |u|^2 dtheta,

twice the meridian average of |u|^2.  The normalized rule of S^1
(``QuadratureRule`` at d = 1) is exact for |u|^2, a polynomial of
degree 2 n_max in cos(theta), so gamma is the nodal sum
2 sum_i w_i |u(x_i)|^2, accumulated into Phi(t) = integral_0^t gamma.
Nonlinear smoothing is measured on the residual
r(t) = u(t) - e^{i t lambda} e^{i sigma Phi} u(0): its dyadic tail
decays faster than the solution's.  ``solve`` keeps only what that
measurement and the mass check read: the end states, t, Phi(t) and the
largest mass drift over the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import propagate_sphere
from .gaunt import QuadratureRule
from .specialfun import zonal_harmonic_table
from .spectra import ZonalSpectrum

__all__ = [
    "NLSRun",
    "SmoothingTable",
    "solve",
    "smoothing_residual",
]


class _Workspace:
    """Quadrature rules and harmonic tables of one truncation: the
    sphere's for B(u), the meridian's for gamma."""

    def __init__(self, n_max: int, d: int):
        # 2 n_max + 16 nodes, exact through degree 4 n_max + 31: above
        # the degree 4 n_max of the integrands |u|^2 Y_n Y_m.
        self.rule = QuadratureRule.for_degree(4 * n_max + 16, d)
        self.table = zonal_harmonic_table(n_max, d, self.rule.nodes)
        # The rule of S^1 is exact for |u|^2 on a meridian, of degree 2 n_max.
        self.meridian = QuadratureRule.for_degree(2 * n_max, 1)
        self.meridian_table = zonal_harmonic_table(n_max, d, self.meridian.nodes)

    def density(self, coef: np.ndarray) -> tuple[np.ndarray, float]:
        """Node weights of B(u) = T diag(dens) T^T, and max |u|^2 at the nodes."""
        modulus = _modulus(self.table, coef)
        return self.rule.weights * modulus, float(modulus.max())

    def gamma(self, coef: np.ndarray) -> float:
        """Resonant phase rate gamma(u) = (2/pi) integral_0^pi |u|^2 dtheta."""
        return 2.0 * self.meridian.integrate(_modulus(self.meridian_table, coef))

    def product(self, dens: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """B v, without forming B."""
        nodes = dens[:, None] * (self.table.T @ _pairs(vec))
        return (self.table @ nodes).view(np.complex128).ravel()

    def rotate(self, coef: np.ndarray, vec: np.ndarray, dt: float, sign: int):
        """exp(i sign dt B(coef)) vec in substeps with ||tau B|| <= 1."""
        dens, peak = self.density(coef)
        if not math.isfinite(peak):
            raise ValueError("non-finite state in the nonlinear substep")
        steps = max(1, math.ceil(dt * peak))
        scale = 1j * sign * dt / steps
        for _ in range(steps):
            total = term = vec
            k = 0
            while True:
                k += 1
                term = (scale / k) * self.product(dens, term)
                total = total + term
                # ||term|| <= 1e-17 ||total||, squared: the float views
                # need no sqrt and no real/imag copies.
                head, acc = term.view(np.float64), total.view(np.float64)
                if head @ head <= 1e-34 * (acc @ acc):
                    break
            vec = total
        return vec

    def galerkin_rotation(self, coef: np.ndarray, dt: float, sign: int):
        # Exponential midpoint: freeze |u|^2 at a half-step prediction,
        # keeping the substep unitary and second order.
        mid = self.rotate(coef, coef, 0.5 * dt, sign)
        return self.rotate(mid, coef, dt, sign)


def _pairs(vec: np.ndarray) -> np.ndarray:
    # Real and imaginary parts as an (n, 2) float view: a real table
    # times a complex vector would copy the table to complex.
    return np.ascontiguousarray(vec, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def _modulus(table: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """|u|^2 at the nodes of a harmonic table."""
    u_nodes = table.T @ _pairs(coef)
    return np.sum(u_nodes * u_nodes, axis=1)


@dataclass(frozen=True)
class NLSRun:
    """Solver output: the end states, the clock, the phase and the mass drift.

    Attributes
    ----------
    initial, final : ZonalSpectrum
        The data at t = 0 and at t.
    t : float
        Final time, the number of steps times the step.
    phase : float
        Phi(t), the time integral of gamma up to t (real).
    sign : int
        sigma in {+1, -1} multiplying the cubic term.
    mass_drift : float
        Largest |mass(t_k) - mass(0)| over the steps, the mass being
        ||u||_{L^2}^2; NaN if any mass is NaN.
    """

    initial: ZonalSpectrum
    final: ZonalSpectrum
    t: float
    phase: float
    sign: int
    mass_drift: float


def solve(initial: ZonalSpectrum, dt: float, t_final: float, sign: int = 1) -> NLSRun:
    """Integrate the zonal cubic NLS to t_final.

    Parameters
    ----------
    initial : ZonalSpectrum
        Initial data; its truncation n_max is the solver's.
    dt : float
        Time step, > 0.
    t_final : float
        Integration horizon, >= 0 and an integer number of steps.
    sign : int
        sigma in {+1, -1} for the cubic term.

    Returns
    -------
    NLSRun
    """
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps")
    d, n_max = initial.d, initial.n_max
    ws = _Workspace(n_max, d)
    half_phase = propagate_sphere(ZonalSpectrum(d=d, coef=np.ones(n_max + 1)), 0.5 * dt).coef
    spec, phase = initial, 0.0
    rate = ws.gamma(spec.coef)
    masses = [spec.l2_norm() ** 2]
    for _ in range(n_steps):
        coef = half_phase * spec.coef
        coef = half_phase * ws.galerkin_rotation(coef, dt, sign)
        spec = ZonalSpectrum(d=d, coef=coef)
        # Phi advances by the trapezoid rule on gamma.
        moved_rate = ws.gamma(spec.coef)
        phase += 0.5 * dt * (rate + moved_rate)
        rate = moved_rate
        masses.append(spec.l2_norm() ** 2)
    masses = np.array(masses)
    return NLSRun(
        initial=initial, final=spec, t=n_steps * dt, phase=phase, sign=sign,
        mass_drift=float(np.max(np.abs(masses - masses[0]))),
    )


@dataclass(frozen=True)
class SmoothingTable:
    """Dyadic tail norms of the residual against the solution.

    Attributes
    ----------
    n_values : ndarray
        Dyadic block starts N (blocks cover [N, 2N)).
    r_norms, u_norms : ndarray
        ||P_N r(t)||_{L^2} and ||P_N u(t)||_{L^2}.
    """

    n_values: np.ndarray
    r_norms: np.ndarray
    u_norms: np.ndarray


def smoothing_residual(run: NLSRun) -> SmoothingTable:
    """Dyadic tails of r(t) = u(t) - e^{i t lambda} e^{i sigma Phi} u(0).

    The linear-flow reference carries the accumulated resonant phase;
    subtracting it coefficientwise isolates the part of the evolution
    the nonlinearity genuinely creates, whose tail decays faster than
    the solution's.

    Parameters
    ----------
    run : NLSRun
        Measured at its final state.

    Returns
    -------
    SmoothingTable
    """
    final = run.final
    reference = propagate_sphere(run.initial, run.t).coef * np.exp(1j * run.sign * run.phase)
    residual = final.coef - reference
    n_values = []
    r_norms = []
    u_norms = []
    block = 1
    while block <= final.n_max // 2:
        lo, hi = block, min(2 * block, final.n_max + 1)
        n_values.append(block)
        r_norms.append(float(np.linalg.norm(residual[lo:hi])))
        u_norms.append(float(np.linalg.norm(final.coef[lo:hi])))
        block *= 2
    return SmoothingTable(
        n_values=np.array(n_values),
        r_norms=np.array(r_norms),
        u_norms=np.array(u_norms),
    )
