"""Zonal cubic NLS solver: oracles, invariants, and convergence order."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kappa_vector, random_phase
from talbotlab.experiments import run_nls_smoothing
from talbotlab.spectra import ZonalSpectrum, zonal_decay_family
from talbotlab import znls
from talbotlab.znls import (
    _Workspace,
    smoothing_residual,
    solve,
)


def nonlinearity_kappa_sum(spec):
    """Direct Gaunt-sum evaluation of the cubic term (oracle path).

    (|u|^2 u)^_n = sum over (n1, n2, n3) of
    a_{n1} conj(a_{n2}) a_{n3} kappa(n, n1, n2, n3); quadratic cost in
    the truncation, intended for small n_max cross-checks.
    """
    coef = spec.coef
    degrees = np.arange(spec.n_max + 1)
    out = np.zeros(spec.n_max + 1, dtype=complex)
    for n1 in degrees:
        for n2 in degrees:
            for n3 in degrees:
                weight = coef[n1] * np.conj(coef[n2]) * coef[n3]
                if weight == 0:
                    continue
                out += weight * kappa_vector((n1, n2, n3), degrees, spec.d)
    return ZonalSpectrum(d=spec.d, coef=out)


def nonlinearity_apply(spec):
    """Projection of |u|^2 u onto the zonal modes, as B(u) u.

    B(u) is the operator the nonlinear substep of ``solve`` rotates by,
    applied through the solver's own matrix-free product.
    """
    ws = _Workspace(spec.n_max, spec.d)
    dens, _ = ws.density(spec.coef)
    return ZonalSpectrum(d=spec.d, coef=ws.product(dens, spec.coef))


def density_matrix(ws, coef):
    """B(u) = T diag(w |u|^2) T^T as a dense matrix (oracle path)."""
    u_nodes = ws.table.T @ coef
    density = ws.rule.weights * np.abs(u_nodes) ** 2
    return (ws.table * density) @ ws.table.T


def unitary_apply(b, vec, dt, sign):
    """exp(i sign dt b) vec through the eigendecomposition of b (oracle path)."""
    eigvals, eigvecs = np.linalg.eigh(b)
    return eigvecs @ (np.exp(1j * sign * dt * eigvals) * (eigvecs.T @ vec))


def galerkin_rotation_eigh(ws, coef, dt, sign):
    """The exponential-midpoint substep with dense B and eigh (oracle path)."""
    mid = unitary_apply(density_matrix(ws, coef), coef, 0.5 * dt, sign)
    return unitary_apply(density_matrix(ws, mid), coef, dt, sign)


def random_coefficients(n_max, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return raw / np.arange(1, n_max + 2)


def meridian_product_d2(k, l):
    """(1/pi) integral_0^pi Y_k Y_l dtheta on S^2, exact up to one rounding.

    P_n(cos theta) = sum_j c_j c_{n-j} e^{i (n - 2j) theta} with
    c_j = binom(2j, j) / 4^j, so the meridian average of P_k P_l is the
    rational sum of the products of coefficients of equal frequency.
    """
    c = [Fraction(math.comb(2 * j, j), 4**j) for j in range(max(k, l) + 1)]
    total = sum(c[j] * c[k - j] * c[m] * c[l - m]
                for j in range(k + 1) for m in range(l + 1) if k - 2 * j == l - 2 * m)
    return math.sqrt((2 * k + 1) * (2 * l + 1)) * float(total)


def single_mode(n, amp, n_max, d=2):
    coef = np.zeros(n_max + 1, dtype=complex)
    coef[n] = amp
    return ZonalSpectrum(d=d, coef=coef)


def test_config_validation():
    spec = zonal_decay_family(1.2, 8)
    solve(spec, 1e-3, 1e-3, sign=-1)
    with pytest.raises(ValueError, match="time step"):
        solve(spec, -1e-3, 0.01)
    with pytest.raises(ValueError, match="sign"):
        solve(spec, 1e-3, 0.01, sign=2)


@pytest.mark.parametrize("t_final", [-0.1, -1e-3, math.nan, math.inf])
def test_solve_rejects_negative_or_non_finite_t_final(t_final):
    """A negative horizon is an error, not a run of zero steps."""
    with pytest.raises(ValueError, match="t_final"):
        solve(zonal_decay_family(1.2, 8), 1e-3, t_final)


def test_gamma_phase_closed_forms():
    """The nodal gamma of a single mode is 2 |A|^2 times its exact
    meridian average."""
    ws = _Workspace(8, 2)
    zero = single_mode(3, 0.0, 8).coef
    assert ws.gamma(zero) == 0.0
    coef0 = single_mode(0, 0.7 - 0.2j, 8).coef
    assert ws.gamma(coef0) == pytest.approx(
        2.0 * abs(0.7 - 0.2j) ** 2, rel=1e-12, abs=0.0)
    for n, amp in [(3, 0.5 - 0.25j), (7, 2.0j)]:
        coef = single_mode(n, amp, 8).coef
        expected = 2.0 * abs(amp) ** 2 * meridian_product_d2(n, n)
        assert ws.gamma(coef) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_gamma_phase_two_modes_manual():
    """The nodal gamma of two modes is the Hermitian form of the exact
    meridian products."""
    coef = np.zeros(7, dtype=complex)
    coef[2], coef[5] = 0.8 + 0.1j, -0.3 + 0.6j
    manual = 0.0
    for k in (2, 5):
        for l in (2, 5):
            manual += (np.conj(coef[k]) * coef[l] * meridian_product_d2(k, l)).real * 2.0
    assert _Workspace(6, 2).gamma(coef) == pytest.approx(manual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_nonlinearity_quadrature_matches_kappa_sum(d):
    spec = random_phase(zonal_decay_family(1.1, 8, d=d), seed=21)
    spec = ZonalSpectrum(d=d, coef=spec.coef * np.exp(0.3j))
    fast = nonlinearity_apply(spec)
    slow = nonlinearity_kappa_sum(spec)
    np.testing.assert_allclose(fast.coef, slow.coef, atol=1e-9)


@settings(max_examples=40)
@given(
    n_max=st.integers(1, 64),
    d=st.sampled_from([2, 3]),
    sign=st.sampled_from([1, -1]),
    stiffness=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_galerkin_rotation_matches_eigh_oracle(n_max, d, sign, stiffness, seed):
    """dt max|u|^2 on both sides of 1, so single and split substeps both run."""
    coef = random_coefficients(n_max, seed)
    ws = _Workspace(n_max, d)
    dt = stiffness / float(np.max(np.abs(ws.table.T @ coef) ** 2))
    fast = ws.galerkin_rotation(coef, dt, sign)
    slow = galerkin_rotation_eigh(ws, coef, dt, sign)
    assert np.linalg.norm(fast - slow) <= 1e-13 * np.linalg.norm(coef)


@pytest.mark.parametrize("sign", [1, -1])
def test_rotation_against_mpmath_expm(sign):
    """One rotation at n = 32 with dt max|u|^2 = 1.5 (two substeps),
    against expm of the same B at 40 digits: the Taylor path is at
    least as close as the eigh path."""
    n_max = 32
    coef = random_coefficients(n_max, seed=3)
    ws = _Workspace(n_max, 2)
    u_nodes = ws.table.T @ coef
    dt = 1.5 / float(np.max(np.abs(u_nodes) ** 2))
    taylor = ws.rotate(coef, coef, dt, sign)
    eigh = unitary_apply(density_matrix(ws, coef), coef, dt, sign)
    with mpmath.workdps(40):
        table = mpmath.matrix(ws.table.tolist())
        dens = [
            mpmath.mpf(w) * abs(mpmath.fsum(
                table[n, k] * mpmath.mpc(complex(coef[n])) for n in range(n_max + 1)
            )) ** 2
            for k, w in enumerate(ws.rule.weights)
        ]
        b = mpmath.matrix(n_max + 1, n_max + 1)
        for i in range(n_max + 1):
            for j in range(i, n_max + 1):
                b[i, j] = b[j, i] = mpmath.fsum(
                    table[i, k] * table[j, k] * dens[k] for k in range(len(dens))
                )
        exact = mpmath.expm(1j * sign * mpmath.mpf(dt) * b) * mpmath.matrix(
            [mpmath.mpc(complex(c)) for c in coef]
        )

        def error(vec):
            return float(mpmath.sqrt(mpmath.fsum(
                abs(exact[n] - mpmath.mpc(complex(vec[n]))) ** 2 for n in range(n_max + 1)
            )))

        taylor_err, eigh_err = error(taylor), error(eigh)
    assert taylor_err <= eigh_err, (taylor_err, eigh_err)
    assert taylor_err < 1e-14 * np.linalg.norm(coef)


def test_constant_mode_closed_form_solution():
    """The constant mode rotates at exactly sigma |A|^2; nothing else excites."""
    amp = 0.55 - 0.3j
    t_final = 0.05
    for sign in (1, -1):
        final = solve(single_mode(0, amp, 6), 1e-4, t_final, sign=sign).final
        expected = amp * np.exp(1j * sign * abs(amp) ** 2 * t_final)
        assert final.coef[0] == pytest.approx(expected, abs=1e-10)
        assert np.max(np.abs(final.coef[1:])) < 1e-13


def test_constant_mode_accumulated_phase():
    """For constant-mode data gamma is constant, so Phi = 2|A|^2 t exactly."""
    amp = 0.55 - 0.3j
    run = solve(single_mode(0, amp, 6), 1e-3, 0.05, sign=1)
    assert run.phase == pytest.approx(2 * abs(amp) ** 2 * 0.05, rel=1e-10, abs=0.0)


def test_mass_is_conserved_by_the_unitary_substep():
    spec = random_phase(zonal_decay_family(1.1, 24), seed=33)
    assert solve(spec, 1e-3, 0.05, sign=1).mass_drift < 1e-11
    assert solve(spec, 1e-3, 0.05, sign=-1).mass_drift < 1e-11


def test_second_order_convergence():
    spec = random_phase(zonal_decay_family(1.3, 16), seed=5)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        finals[dt] = solve(spec, dt, 0.04, sign=1).final.coef
    ref = solve(spec, 6.25e-5, 0.04, sign=1).final.coef
    err = {dt: np.max(np.abs(finals[dt] - ref)) for dt in finals}
    r1 = err[4e-3] / err[2e-3]
    r2 = err[2e-3] / err[1e-3]
    assert 3.2 < r1 < 4.8, err
    assert 3.2 < r2 < 4.8, err


def test_mass_drift_is_nan_when_a_state_is_nan(monkeypatch):
    """A NaN mass must not vanish inside the maximum of the drifts.

    The last of three substeps returns a NaN coefficient, so the NaN
    mass comes after finite ones, where Python's ``max`` would drop it.
    """
    rotation = _Workspace.galerkin_rotation
    calls = []

    def poisoned(self, coef, dt, sign):
        out = rotation(self, coef, dt, sign)
        calls.append(None)
        if len(calls) == 3:
            out = out.copy()
            out[3] = np.nan
        return out

    monkeypatch.setattr(znls._Workspace, "galerkin_rotation", poisoned)
    run = solve(zonal_decay_family(1.2, 8), 1e-3, 3e-3)
    assert len(calls) == 3
    assert np.isnan(run.mass_drift)


def test_linear_limit_for_tiny_data():
    amp = 1e-8
    spec = ZonalSpectrum(d=2, coef=amp * zonal_decay_family(1.5, 12).coef)
    run = solve(spec, 1e-3, 0.05, sign=1)
    n = np.arange(13, dtype=float)
    linear = spec.coef * np.exp(1j * n * (n + 1) * 0.05)
    np.testing.assert_allclose(run.final.coef, linear, atol=1e-22)
    table = smoothing_residual(run)
    assert max(table.r_norms) < 1e-20


def test_linear_limit_at_criterion_9_scale():
    """Tiny criterion-9 data follow the linear flow with its resonant
    phase: every dyadic shell of the residual is at roundoff of the
    solution's.  A clock summed step by step ends 7e-17 past t = 0.1
    and leaves 2.5e-12 here."""
    spec = ZonalSpectrum(d=2, coef=1e-8 * zonal_decay_family(1.1, 256).coef)
    run = solve(spec, 1e-3, 0.1, sign=1)
    table = smoothing_residual(run)
    assert np.all(table.r_norms / table.u_norms < 5e-13), table.r_norms / table.u_norms
    assert run.t == 0.1


def test_step_strang_advances_time_and_phase():
    spec = random_phase(zonal_decay_family(1.2, 8), seed=2)
    run = solve(spec, 1e-3, 1e-3)
    assert run.t == pytest.approx(1e-3)
    assert run.phase > 0.0
    mass = spec.l2_norm() ** 2
    assert run.final.l2_norm() ** 2 == pytest.approx(mass, rel=1e-12, abs=0.0)


def test_smoothing_residual_initial_state_is_zero():
    spec = random_phase(zonal_decay_family(1.1, 32), seed=13)
    run = solve(spec, 1e-3, 0.0, sign=1)
    assert run.t == 0.0
    table = smoothing_residual(run)
    assert max(table.r_norms) == 0.0


def test_smoothing_table_structure():
    spec = random_phase(zonal_decay_family(1.1, 32), seed=13)
    run = solve(spec, 1e-3, 0.02, sign=1)
    table = smoothing_residual(run)
    assert list(table.n_values) == [1, 2, 4, 8, 16]
    assert all(r >= 0 for r in table.r_norms)
    # both weighted columns of the study's rows carry the N^{s+eps} factor
    rows = run_nls_smoothing(n_max=32, dt=1e-3, t_final=0.02, fit_n_min=2).rows
    assert [row["N"] for row in rows] == [1, 2, 4, 8, 16]
    for row in rows:
        assert row["residual_weighted"] == pytest.approx(
            row["residual_norm"] * row["N"] ** 0.75, rel=1e-12, abs=0.0)
        assert row["solution_weighted"] == pytest.approx(
            row["solution_norm"] * row["N"] ** 0.75, rel=1e-12, abs=0.0)


def test_solver_rejects_non_finite_state():
    coef = np.zeros(9, dtype=complex)
    coef[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(ZonalSpectrum(d=2, coef=coef), 1e-3, 1e-3)


def test_solver_rejects_mismatched_sizes():
    spec = zonal_decay_family(1.5, 10)
    with pytest.raises(ValueError):
        solve(spec, 3e-3, 0.01)  # 0.01/3e-3 not integral
