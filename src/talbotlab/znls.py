"""Pseudo-spectral solver for the zonal cubic NLS on S^d.

Coefficientwise the truncated flow is

    d a_n / dt = i lambda_n a_n + i sigma (|u|^2 u)^_n,
    lambda_n = n (n + d - 1),

integrated by Strang splitting.  The linear half-steps are exact
phase rotations.  The nonlinear substep freezes |u|^2 at a half-step
prediction and applies the unitary rotation exp(i sigma dt B) with

    B_nm = (1/omega_d) integral |u|^2 Y_n Y_m dsigma,

assembled by exact Gauss-Jacobi quadrature; B is real symmetric, so
mass is conserved to roundoff.  A literal pointwise rotation
u <- u exp(i sigma |u|^2 dt) followed by re-projection is available
as a variant, but projection after the rotation leaks a little mass,
which is why the unitary substep is the default.

The resonant part of the nonlinearity acts asymptotically as the
state-dependent phase

    gamma(t; v) = (2/pi) sum_{k,l} conj(v_k) v_l
                  integral_0^pi Y_k Y_l dtheta,

accumulated into Phi(t) = integral_0^t gamma.  Nonlinear smoothing is
measured on the residual r(t) = u(t) - e^{i t lambda} e^{i sigma Phi}
u(0): its dyadic tail decays faster than the solution's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .gaunt import QuadratureRule, line_integral_table
from .specialfun import SphereConstants, zonal_harmonic_table
from .spectra import ZonalSpectrum

__all__ = [
    "NLSConfig",
    "NLSState",
    "NLSTrajectory",
    "SmoothingTable",
    "gamma_phase",
    "nonlinearity_apply",
    "step_strang",
    "solve",
    "smoothing_residual",
]


@dataclass(frozen=True)
class NLSConfig:
    """Discretization parameters for the zonal cubic NLS.

    Attributes
    ----------
    n_max : int
        Spectral truncation; modes 0 .. n_max evolve.
    dt : float
        Time step, > 0.
    t_final : float
        Integration horizon.
    padding : int
        Dealias factor; the quadrature carries at least
        padding * n_max nodes (>= 2 makes the cubic projection exact).
    substep : str
        "galerkin" for the unitary frozen-coefficient rotation,
        "pointwise" for the literal nodewise phase with re-projection.
    """

    n_max: int
    dt: float
    t_final: float
    padding: int = 2
    substep: str = "galerkin"

    def __post_init__(self) -> None:
        if self.padding < 2:
            raise ValueError("dealias padding must be >= 2")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.substep not in ("galerkin", "pointwise"):
            raise ValueError("substep must be 'galerkin' or 'pointwise'")

    def node_count(self) -> int:
        return self.padding * self.n_max + 16


@dataclass(frozen=True)
class NLSState:
    """Solver state: spectrum, time, accumulated phase, and sign.

    Attributes
    ----------
    spectrum : ZonalSpectrum
    t : float
    phase : float
        Phi(t), the time integral of gamma up to t (real).
    sign : int
        sigma in {+1, -1} multiplying the cubic term.
    """

    spectrum: ZonalSpectrum
    t: float
    phase: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def initial(cls, spectrum: ZonalSpectrum, sign: int = 1) -> "NLSState":
        return cls(spectrum=spectrum, t=0.0, phase=0.0, sign=sign)

    def mass(self) -> float:
        return float(self.spectrum.l2_norm() ** 2)


class _Workspace:
    """Per-run cached quadrature, harmonic table, and phase factors."""

    def __init__(self, d: int, config: NLSConfig):
        self.d = d
        self.config = config
        total = 4 * config.n_max
        count = max(config.node_count(), total // 2 + 8)
        alpha = 0.5 * (d - 2)
        from scipy.special import roots_jacobi

        nodes, weights = roots_jacobi(count, alpha, alpha)
        self.rule = QuadratureRule(d=d, nodes=nodes, weights=weights)
        self.table = zonal_harmonic_table(config.n_max, d, nodes)
        self.ratio = SphereConstants.for_dimension(d).weight_ratio
        self.line = line_integral_table(config.n_max, d)
        degrees = np.arange(config.n_max + 1)
        self.eigenvalues = degrees * (degrees + d - 1)
        self.half_phase = np.exp(0.5j * config.dt * self.eigenvalues)

    def gamma(self, coef: np.ndarray) -> float:
        value = complex(np.conj(coef) @ (self.line @ coef))
        scale = max(1.0, abs(value))
        if abs(value.imag) > 1e-12 * scale:
            raise AssertionError("gamma form must be real (Hermitian)")
        return 2.0 * value.real

    def cube_projection(self, coef: np.ndarray):
        u_nodes = self.table.T @ coef
        cube = (u_nodes * np.conj(u_nodes)) * u_nodes
        out = self.ratio * (self.table @ (self.rule.weights * cube))
        return out, u_nodes

    def _density_matrix(self, coef: np.ndarray) -> np.ndarray:
        u_nodes = self.table.T @ coef
        density = self.rule.weights * np.abs(u_nodes) ** 2
        return self.ratio * ((self.table * density) @ self.table.T)

    @staticmethod
    def _unitary_apply(b: np.ndarray, coef: np.ndarray, dt: float, sign: int):
        eigvals, eigvecs = np.linalg.eigh(b)
        return eigvecs @ (np.exp(1j * sign * dt * eigvals) * (eigvecs.T @ coef))

    def galerkin_rotation(self, coef: np.ndarray, dt: float, sign: int):
        # Exponential midpoint: freeze |u|^2 at a half-step prediction,
        # keeping the substep unitary and second order.
        mid = self._unitary_apply(self._density_matrix(coef), coef, 0.5 * dt, sign)
        return self._unitary_apply(self._density_matrix(mid), coef, dt, sign)

    def pointwise_rotation(self, coef: np.ndarray, dt: float, sign: int):
        u_nodes = self.table.T @ coef
        u_nodes = u_nodes * np.exp(1j * sign * dt * np.abs(u_nodes) ** 2)
        return self.ratio * (self.table @ (self.rule.weights * u_nodes))


def gamma_phase(state: NLSState, line_table: np.ndarray | None = None) -> float:
    """Resonant phase rate gamma(t; u) of the current state.

    Parameters
    ----------
    state : NLSState
    line_table : ndarray, optional
        Precomputed meridian products from line_integral_table.

    Returns
    -------
    float
        (2/pi) sum_{k,l} conj(a_k) a_l integral_0^pi Y_k Y_l dtheta.
        The Hermitian form is real; an imaginary part above 1e-12
        raises.
    """
    coef = state.spectrum.coef
    if line_table is None:
        line_table = line_integral_table(state.spectrum.n_max, state.spectrum.d)
    value = complex(np.conj(coef) @ (line_table @ coef))
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-12 * scale:
        raise AssertionError("gamma form must be real (Hermitian)")
    return 2.0 * value.real


def nonlinearity_apply(state: NLSState, config: NLSConfig | None = None) -> ZonalSpectrum:
    """Projection of |u|^2 u onto the zonal modes.

    Evaluates u on Gauss-Jacobi nodes, cubes pointwise, and projects
    back; with at least padding * n_max >= 2 n_max nodes the
    projection of the truncated cube is exact (the integrands are
    polynomials within the design degree).
    """
    spec = state.spectrum
    if config is None:
        config = NLSConfig(n_max=spec.n_max, dt=1.0, t_final=1.0)
    if config.node_count() < config.padding * spec.n_max:
        raise ValueError("quadrature nodes insufficient for dealiasing")
    ws = _Workspace(spec.d, replace(config, n_max=spec.n_max))
    out, _ = ws.cube_projection(spec.coef)
    return ZonalSpectrum(d=spec.d, coef=out)


def _advance(state: NLSState, ws: _Workspace, wick: bool) -> NLSState:
    config = ws.config
    dt = config.dt
    coef = ws.half_phase * state.spectrum.coef
    if config.substep == "galerkin":
        coef = ws.galerkin_rotation(coef, dt, state.sign)
    else:
        coef = ws.pointwise_rotation(coef, dt, state.sign)
    coef = ws.half_phase * coef
    gamma_start = ws.gamma(state.spectrum.coef)
    gamma_end = ws.gamma(coef)
    increment = 0.5 * dt * (gamma_start + gamma_end)
    if wick:
        coef = coef * np.exp(-1j * state.sign * increment)
    return NLSState(
        spectrum=ZonalSpectrum(d=state.spectrum.d, coef=coef),
        t=state.t + dt,
        phase=state.phase + increment,
        sign=state.sign,
    )


def step_strang(state: NLSState, dt: float, config: NLSConfig | None = None) -> NLSState:
    """One Strang step: half linear, nonlinear rotation, half linear.

    The nonlinear substep is the unitary frozen-coefficient rotation
    by default (config.substep == "galerkin"); Phi advances by the
    trapezoid rule on gamma_phase.
    """
    spec = state.spectrum
    if config is None:
        config = NLSConfig(n_max=spec.n_max, dt=dt, t_final=dt)
    elif config.dt != dt:
        config = replace(config, dt=dt)
    ws = _Workspace(spec.d, replace(config, n_max=spec.n_max))
    return _advance(state, ws, wick=False)


@dataclass(frozen=True)
class NLSTrajectory:
    """Solver output: states at every step, including the initial one."""

    states: tuple
    config: NLSConfig
    wick: bool

    @property
    def initial(self) -> NLSState:
        return self.states[0]

    @property
    def final(self) -> NLSState:
        return self.states[-1]

    def mass_drift(self) -> float:
        masses = [s.mass() for s in self.states]
        return float(max(abs(m - masses[0]) for m in masses))

    def save_jsonl(self, path) -> None:
        """One JSON object per line: t, phase, coefficients."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.states:
                record = {
                    "t": s.t,
                    "phase": s.phase,
                    "sign": s.sign,
                    "coef_real": [repr(float(v)) for v in s.spectrum.coef.real],
                    "coef_imag": [repr(float(v)) for v in s.spectrum.coef.imag],
                }
                fh.write(json.dumps(record) + "\n")


def solve(
    initial: ZonalSpectrum | NLSState,
    config: NLSConfig,
    sign: int = 1,
    wick: bool = False,
) -> NLSTrajectory:
    """Integrate the zonal cubic NLS to config.t_final.

    Parameters
    ----------
    initial : ZonalSpectrum or NLSState
    config : NLSConfig
    sign : int
        sigma for the cubic term (ignored when an NLSState is given).
    wick : bool
        When True, evolve the Wick-ordered equation: the resonant
        phase gamma is removed inside each step (per-step trapezoid
        of gamma), so the output relates to the plain flow by the
        gauge factor exp(-i sigma Phi).

    Returns
    -------
    NLSTrajectory
    """
    if isinstance(initial, NLSState):
        state = initial
    else:
        state = NLSState.initial(initial, sign=sign)
    if state.spectrum.n_max != config.n_max:
        raise ValueError("config.n_max must match the initial spectrum")
    ws = _Workspace(state.spectrum.d, config)
    n_steps = int(round(config.t_final / config.dt))
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * max(1.0, config.t_final):
        raise ValueError("t_final must be an integer number of steps")
    states = [state]
    for _ in range(n_steps):
        state = _advance(state, ws, wick)
        states.append(state)
    return NLSTrajectory(states=tuple(states), config=config, wick=wick)


@dataclass(frozen=True)
class SmoothingTable:
    """Dyadic tail norms of the residual against the solution.

    Attributes
    ----------
    n_values : ndarray
        Dyadic block starts N (blocks cover [N, 2N)).
    r_norms, u_norms : ndarray
        ||P_N r(t)||_{L^2} and ||P_N u(t)||_{L^2}.
    r_weighted, u_weighted : ndarray
        The same norms multiplied by N^{s + eps}.
    s, eps : float
    t : float
        Measurement time.
    """

    n_values: np.ndarray
    r_norms: np.ndarray
    u_norms: np.ndarray
    r_weighted: np.ndarray
    u_weighted: np.ndarray
    s: float
    eps: float
    t: float

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("N,residual_norm,solution_norm,residual_weighted,solution_weighted\n")
            for row in zip(
                self.n_values, self.r_norms, self.u_norms,
                self.r_weighted, self.u_weighted,
            ):
                fh.write(
                    f"{int(row[0])},{repr(float(row[1]))},{repr(float(row[2]))},"
                    f"{repr(float(row[3]))},{repr(float(row[4]))}\n"
                )


def smoothing_residual(
    trajectory: NLSTrajectory,
    s: float,
    eps: float,
    state_index: int = -1,
) -> SmoothingTable:
    """Dyadic tails of r(t) = u(t) - e^{i t lambda} e^{i sigma Phi} u(0).

    The linear-flow reference carries the accumulated resonant phase;
    subtracting it coefficientwise isolates the part of the evolution
    the nonlinearity genuinely creates, whose tail decays faster than
    the solution's.

    Parameters
    ----------
    trajectory : NLSTrajectory
    s, eps : float
        Weight exponent s + eps applied to both norm columns.
    state_index : int
        Which trajectory state to measure (default: final).

    Returns
    -------
    SmoothingTable
    """
    state = trajectory.states[state_index]
    first = trajectory.initial
    d = state.spectrum.d
    degrees = np.arange(state.spectrum.n_max + 1)
    eigenvalues = degrees * (degrees + d - 1)
    reference = (
        np.exp(1j * state.t * eigenvalues)
        * np.exp(1j * state.sign * state.phase)
        * first.spectrum.coef
    )
    residual = state.spectrum.coef - reference
    n_values = []
    r_norms = []
    u_norms = []
    block = 1
    while block <= state.spectrum.n_max // 2:
        lo, hi = block, min(2 * block, state.spectrum.n_max + 1)
        n_values.append(block)
        r_norms.append(float(np.linalg.norm(residual[lo:hi])))
        u_norms.append(float(np.linalg.norm(state.spectrum.coef[lo:hi])))
        block *= 2
    n_arr = np.array(n_values, dtype=float)
    weight = n_arr ** (s + eps)
    return SmoothingTable(
        n_values=np.array(n_values),
        r_norms=np.array(r_norms),
        u_norms=np.array(u_norms),
        r_weighted=np.array(r_norms) * weight,
        u_weighted=np.array(u_norms) * weight,
        s=float(s),
        eps=float(eps),
        t=state.t,
    )
