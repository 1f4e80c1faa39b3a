"""Acceptance suite: every headline criterion at its frozen parameters.

Each test runs one full-scale study, prints a single line with the
measured value against its threshold, and asserts the verdict.  The
-rP pytest option surfaces the printed lines in the run summary, so
the whole suite reads as a checklist.  The rational-time controls
show that the gates of criteria 2-5 can fail on real data, where the
paper says they must; the unseparated-block control shows that
criterion 8's gate sees frequency separation; the no-phase control
shows that criterion 9's gate sees the resonant phase, and the
flipped-sign control that its single-mode gate sees the sign at the
study's step.  Criterion 9's smoothing is also checked in the sup norm,
which the paper's nonlinear dimension corollary needs.  The refinement
rungs pass the verdicts of criteria 2-5 and 7-9, and criterion 10's
envelope, one step beyond their frozen resolution.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import quad_triangle_coefficient, torus_coefficient
from talbotlab import experiments as ex
from talbotlab.evolve import propagate_sphere
from talbotlab.expsum import weyl_block_sup
from talbotlab.fitting import fit_line, fit_loglog
from talbotlab.fractal import dim_t
from talbotlab.lpbesov import block_norm_table
from talbotlab.spectra import (
    ZonalSpectrum,
    torus_polygon_indicator,
    torus_step,
    zonal_decay_family,
)
from talbotlab.strichartz import bilinear_l2
from talbotlab.znls import smoothing_residual, solve

TRIANGLE = ex.DEFAULT_TRIANGLE


def report(label: str, detail: str, ok: bool) -> None:
    print(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_01_rational_time_quantization():
    t0 = time.monotonic()
    result = ex.run_quantization(m_max=2**12, q_max=12)
    elapsed = time.monotonic() - t0
    residual = result.measured["max_residual"]
    ok = result.passed and elapsed < 10.0
    report(
        "criterion 1 quantization",
        f"max residual {residual:.3e} < 1e-08 over {result.measured['pairs']}"
        f" reduced fractions (q <= 12, m_max 4096) in {elapsed:.1f}s < 10s",
        ok,
    )
    assert residual < 1e-8
    assert elapsed < 10.0
    assert result.passed


def test_criterion_02_step_graph_dimension():
    t0 = time.monotonic()
    result = ex.run_torus_step_dimension(m_max=2**14, grid=2**16, window=(5, 11))
    elapsed = time.monotonic() - t0
    median = result.measured["median_dim"]
    ok = result.passed and elapsed < 300.0
    report(
        "criterion 2 step dimension",
        f"panel-median graph dimension {median:.3f} within 1.5 +/- 0.1"
        f" (grid 65536, window [5,11]) in {elapsed:.1f}s < 300s",
        ok,
    )
    assert median == pytest.approx(1.5, abs=0.1)
    assert elapsed < 300.0
    assert result.passed


def test_criterion_03_polygon_graph_dimension():
    result = ex.run_polygon_dimension(m_max=2**9, grid=2048, window=(3, 8))
    median = result.measured["median_dim"]
    report(
        "criterion 3a polygon dimension",
        f"panel-median graph dimension {median:.3f} within 2.5 +/- 0.2"
        " (triangle, m_max 512, grid 2048^2)",
        result.passed,
    )
    assert median == pytest.approx(2.5, abs=0.2)
    assert result.passed


def test_criterion_03_polygon_coefficient_oracle():
    spec = torus_polygon_indicator(TRIANGLE, 8)
    worst = max(
        abs(torus_coefficient(spec, (m1, m2)) - quad_triangle_coefficient(m1, m2))
        for m1 in range(-8, 9)
        for m2 in range(-8, 9)
    )
    ok = worst <= 1e-6
    report(
        "criterion 3b polygon coefficients",
        f"max defect vs adaptive quadrature {worst:.3e} <= 1e-06"
        " for max|m| <= 8",
        ok,
    )
    assert ok


# Case -> (data, grid, fit window, expected, tol): the frozen
# parameters and gates of criteria 2 and 3.
DIMENSION_GATES = {
    "criterion-2": (lambda: torus_step(list(ex.DEFAULT_STEP_JUMPS), 2**14), 2**16, (5, 11),
                    1.5, 0.1),
    "criterion-3": (lambda: torus_polygon_indicator(TRIANGLE, 2**9), 2048, (3, 8), 2.5, 0.2),
}


@pytest.mark.parametrize("p, q", [(1, 5), (3, 7)])
@pytest.mark.parametrize("case", sorted(DIMENSION_GATES))
def test_dimension_gate_fails_at_rational_time(case, p, q):
    """At t = 2 pi p / q the flow is a finite sum of translates of the
    data (criterion 1), so the graph is not fractal and the per-time
    dimension lies outside the gate: criterion 2 measured 1.018 and
    1.020, criterion 3 2.078 and 2.099."""
    build, grid, window, expected, tol = DIMENSION_GATES[case]
    dim = dim_t(build(), 2.0 * math.pi * p / q, grid, window).max_slope
    ok = abs(dim - expected) > tol
    report(
        f"{case} control",
        f"graph dimension {dim:.3f} at t = 2pi*{p}/{q} lies outside"
        f" {expected} +/- {tol}",
        ok,
    )
    assert ok


def test_criterion_04_zonal_holder_trend():
    result = ex.run_zonal_holder(p=1.5, n_max=8191, j_max=12, window=(2, 12))
    slope = result.measured["median_slope"]
    report(
        "criterion 4 zonal Holder bound",
        f"panel-median trend of 2^(0.4j)*sup-norm has slope {slope:+.4f}"
        " <= 0.02 (no growth, j <= 12)",
        result.passed,
    )
    assert slope <= 0.02
    assert result.passed


def test_criterion_04_holds_at_twice_the_frozen_degree():
    """The criterion-4 verdict is not an artifact of truncating at degree
    8191: the frozen panel at n_max = 16383, with one more level (j_max
    13, window 2..13) and the frozen p, weight exponent and seed, passes
    the same gate (measured median slope -0.1259, against -0.1281 at
    8191 and -0.1159 at 32767)."""
    result = ex.run_zonal_holder(p=1.5, n_max=16383, j_max=13, window=(2, 13))
    slope = result.measured["median_slope"]
    report(
        "criterion 4 at n_max 16383",
        f"panel-median trend of 2^(0.4j)*sup-norm has slope {slope:+.4f}"
        " <= 0.02 (no growth, j <= 13)",
        result.passed,
    )
    assert slope <= 0.02
    assert result.passed


def test_holder_gate_fails_at_rational_time():
    """At t = 2 pi / 5 the phases e^{i t n(n+1)} take only five values, so
    the flow brings no cancellation across a dyadic block and the
    weighted block norms grow with j: measured slope +0.375, above the
    0.02 gate (frozen window 2..12, weight exponent 0.4)."""
    levels = np.arange(2, 13)
    data = zonal_decay_family(1.5, 8191, d=2)
    norms = block_norm_table([propagate_sphere(data, 2.0 * math.pi / 5)], 12)[0, levels]
    slope = fit_line(levels, 0.4 * levels + np.log2(norms)).slope
    ok = slope > 0.02
    report("criterion 4 control",
           f"slope {slope:+.4f} at t = 2pi*1/5 lies above 0.02", ok)
    assert ok


def test_criterion_05_weyl_block_decay():
    result = ex.run_weyl_decay(p=1.5, exponent_range=(4, 11))
    exponent = result.measured["median_exponent"]
    report(
        "criterion 5 Weyl decay",
        f"panel-median block-sup exponent {exponent:.3f} within -1.0 +/- 0.1"
        " (weights n^-1.5, N = 2^4..2^11)",
        result.passed,
    )
    assert exponent == pytest.approx(-1.0, abs=0.1)
    assert result.passed


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (3, 7)])
def test_weyl_gate_fails_at_rational_time(p, q):
    """At t = 2 pi p / q the phases e^{i n^2 t} repeat with period q, so a
    block sums without cancellation and its sup decays like N^{1 - 1.5}:
    measured exponents -0.523, -0.540 and -0.561, outside -1.0 +/- 0.1."""
    t = 2.0 * math.pi * p / q
    blocks = [2**k for k in range(4, 12)]
    sups = [weyl_block_sup(t, n, weights=lambda m: float(m) ** -1.5, grid_factor=16).sup
            for n in blocks]
    exponent = fit_loglog(blocks, sups).slope
    ok = abs(exponent + 1.0) > 0.1
    report("criterion 5 control",
           f"exponent {exponent:.3f} at t = 2pi*{p}/{q} lies outside -1.0 +/- 0.1", ok)
    assert ok


# Case -> (driver, refined parameters, headline key): each study one
# refinement step beyond its frozen resolution, with every other
# parameter, the seed and every threshold frozen.  Criterion 4's rung is
# its own test above.
REFINED_STUDIES = {
    "criterion-2": (ex.run_torus_step_dimension,
                    dict(m_max=2**15, grid=2**17, window=(5, 12)), "median_dim"),
    "criterion-3": (ex.run_polygon_dimension,
                    dict(m_max=2**10, grid=4096, window=(3, 9)), "median_dim"),
    "criterion-5": (ex.run_weyl_decay, dict(exponent_range=(4, 12)), "median_exponent"),
    "criterion-7": (ex.run_resonance_decay, dict(degrees=(32, 64, 128, 256, 512)),
                    "decay_exponent"),
    "criterion-8": (ex.run_bilinear_contrast,
                    dict(block_n=256, m_blocks=(8, 16, 32, 64, 128),
                         beam_degrees=(16, 32, 64, 128, 256, 512, 1024)),
                    "bilinear_exponent"),
    "criterion-9": (ex.run_nls_smoothing, dict(dt=5e-4), "smoothing_gain"),
}


@pytest.mark.parametrize("case", sorted(REFINED_STUDIES))
def test_verdict_holds_one_refinement_step_beyond_the_frozen_resolution(case):
    """A verdict is not an artifact of where its study truncates: twice
    the frequency box and grid, with one more dyadic level, for criteria
    2 and 3 (measured 1.4706 and 2.4017), blocks up to 2^12 for
    criterion 5 (-0.9861), every degree doubled for criterion 7
    (-1.9929), the block, its M and the beam degrees doubled for
    criterion 8 (bilinear 0.0912, beam 0.4928), and half the step for
    criterion 9 (gain 0.963).  Criterion 3's rung runs the whole panel,
    about 3.3 s at a 275 MB peak, against 100 MB at the frozen grid."""
    driver, refined, key = REFINED_STUDIES[case]
    result = driver(**refined)
    report(f"{case} refined", f"{key} {result.measured[key]:.4f} at {refined}",
           result.passed)
    assert result.passed


def test_criterion_06_triple_integral_suite():
    result = ex.run_kappa_suite(n_max=12, scan_n_max=64)
    m = result.measured
    detail = "; ".join(
        f"d={d}: min {m[f'd{d}_min_entry']:.1e} >= -1e-10,"
        f" support {m[f'd{d}_support_max']:.1e} < 1e-10,"
        f" permutation {m[f'd{d}_permutation_defect']:.1e} < 1e-12,"
        f" parseval {m[f'd{d}_parseval_max']:.1e} < 1e-8,"
        f" unclassified(n<=64) {m[f'd{d}_unclassified']}"
        for d in (2, 3)
    )
    report("criterion 6 triple-integral suite", detail, result.passed)
    for d in (2, 3):
        assert m[f"d{d}_min_entry"] >= -1e-10
        assert m[f"d{d}_support_max"] < 1e-10
        assert m[f"d{d}_permutation_defect"] < 1e-12
        assert m[f"d{d}_parseval_max"] < 1e-8
        assert m[f"d{d}_unclassified"] == 0
    assert result.passed


def test_criterion_07_resonance_asymptotics():
    result = ex.run_resonance_decay(n2=3, n3=5, degrees=(16, 32, 64, 128, 256))
    exponent = result.measured["decay_exponent"]
    report(
        "criterion 7 resonance asymptotics",
        f"fitted decay exponent of |kappa - line integral| is {exponent:.3f}"
        " <= -0.9 (n2,n3 = 3,5, n = 16..256)",
        result.passed,
    )
    assert exponent <= -0.9
    assert result.passed


def test_criterion_08_bilinear_beam_contrast():
    result = ex.run_bilinear_contrast(
        p=1.5, block_n=128, m_blocks=(4, 8, 16, 32, 64),
        beam_degrees=(8, 16, 32, 64, 128, 256, 512),
    )
    bil = result.measured["bilinear_exponent"]
    beam = result.measured["beam_quartic_exponent"]
    report(
        "criterion 8 bilinear/beam contrast",
        f"zonal bilinear growth exponent {bil:.3f} <= 0.15 (N=128, M=4..64);"
        f" beam quartic exponent {beam:.3f} within 0.5 +/- 0.1 (n=8..512)",
        result.passed,
    )
    assert bil <= 0.15
    assert beam == pytest.approx(0.5, abs=0.1)
    assert result.passed


def test_bilinear_gate_fails_for_unseparated_blocks():
    """Criterion 8 bounds frequency-separated pairs, a block at N against
    blocks at M < N.  Let M reach N and the fitted growth of the
    bilinear ratio ||fg|| / (||f|| ||g||) crosses the gate: measured
    slopes 0.0972 at the frozen N = 128, M = 4..64, against 0.1911 at
    N = 128, M = 8..128, and 0.1971 at N = 64, M = 4..64."""
    tol = ex.run_bilinear_contrast().criteria["bilinear_tol"]
    data = zonal_decay_family(1.5, 256, d=2)

    def slope(block_n, m_blocks):
        f_norm = np.linalg.norm(data.coef[block_n:2 * block_n])
        ratios = [value / (f_norm * np.linalg.norm(data.coef[m:2 * m]))
                  for m, value in zip(m_blocks, bilinear_l2(data, data, block_n, m_blocks))]
        return fit_loglog(list(m_blocks), ratios).slope

    frozen = slope(128, (4, 8, 16, 32, 64))
    unseparated = (slope(128, (8, 16, 32, 64, 128)), slope(64, (4, 8, 16, 32, 64)))
    ok = frozen <= tol < min(unseparated)
    report("criterion 8 control",
           f"slope {frozen:.4f} <= {tol} at N = 128, M = 4..64; with M up to N"
           f" {unseparated[0]:.4f} (N = 128) and {unseparated[1]:.4f} (N = 64)"
           f" lie above", ok)
    assert ok


def test_criterion_09_cubic_smoothing():
    result = ex.run_nls_smoothing(p=1.1, n_max=256, dt=1e-3, t_final=0.1)
    m = result.measured
    report(
        "criterion 9 cubic smoothing",
        f"mass drift {m['mass_drift']:.2e} < 1e-08;"
        f" residual tail {m['residual_tail_exponent']:.2f} beats solution"
        f" tail {m['solution_tail_exponent']:.2f} by"
        f" {m['smoothing_gain']:.2f} >= 0.2;"
        f" single-mode closed-form error {m['single_mode_error']:.2e}"
        " < 1e-10 at dt=1e-3",
        result.passed,
    )
    assert m["mass_drift"] < 1e-8
    assert m["smoothing_gain"] >= 0.2
    assert m["single_mode_error"] < 1e-10
    assert result.passed


def test_smoothing_gate_fails_without_the_resonant_phase():
    """The residual of criterion 9 is taken against the phased linear
    flow e^{it Delta} e^{i sigma Phi} u(0).  Dropped from the reference,
    the resonant phase stays in the residual, and on one solve of the
    criterion-9 data the gain falls below the 0.2 gate: measured 0.191
    without Phi and 0.932 with it (fit over N >= 8)."""
    run = solve(zonal_decay_family(1.1, 256, d=2), 1e-3, 0.1, sign=1)

    def gain(table):
        keep = table.n_values >= 8
        return (fit_loglog(table.n_values[keep], table.u_norms[keep]).slope
                - fit_loglog(table.n_values[keep], table.r_norms[keep]).slope)

    with_phase = gain(smoothing_residual(run))
    without = gain(smoothing_residual(dataclasses.replace(run, phase=0.0)))
    ok = without < 0.2 <= with_phase
    report("criterion 9 control",
           f"gain {without:.3f} without the resonant phase lies below 0.2;"
           f" with it {with_phase:.3f}", ok)
    assert ok


def test_smoothing_holds_in_the_sup_norm():
    """The nonlinear dimension corollary needs the residual
    r = u(t) - e^{it Delta} e^{i sigma Phi} u(0) of criterion 9 to be
    smoother than u(t) in L^infinity, not only in its L^2 tails.  The
    gap, the fitted log2 slope of u's block sup norms (levels 2..7)
    minus that of r's, clears criterion 9's gain_min at the frozen dt
    (measured 0.758) and at dt/16 (0.739); with Phi dropped from the
    reference it falls below (0.179)."""
    gain_min = ex.run_nls_smoothing().criteria["gain_min"]
    levels = np.arange(2, 8)

    def gap(run):
        phased = np.exp(1j * run.sign * run.phase)
        residual = ZonalSpectrum(d=2, coef=run.final.coef
                                 - phased * propagate_sphere(run.initial, run.t).coef)
        norms = block_norm_table([run.final, residual], 7)[:, levels]
        u_slope, r_slope = (fit_line(levels, np.log2(row)).slope for row in norms)
        return u_slope - r_slope

    data = zonal_decay_family(1.1, 256, d=2)
    frozen = solve(data, 1e-3, 0.1, sign=1)
    gaps = (gap(frozen), gap(solve(data, 1e-3 / 16, 0.1, sign=1)))
    without = gap(dataclasses.replace(frozen, phase=0.0))
    ok = without < gain_min <= min(gaps)
    report("criterion 9 in L^infinity",
           f"sup-norm gap {gaps[0]:.3f} at dt=1e-3 and {gaps[1]:.3f} at dt/16"
           f" >= {gain_min}; without the resonant phase {without:.3f} lies below", ok)
    assert ok


def test_single_mode_gate_fails_with_the_sign_flipped():
    """Criterion 9 solves its single mode at the study's dt = 1e-3,
    where the split step is exact for constant data.  The 1e-10 gate
    still separates the two signs at that step: the sigma = -1 solution
    misses the sigma = +1 rotation a e^{i |a|^2 t} by
    2 |a| sin(|a|^2 t), 0.049 at t = 0.1."""
    amp = 0.55 - 0.3j
    single = ZonalSpectrum(d=2, coef=np.array([amp, 0, 0, 0], dtype=complex))
    run = solve(single, 1e-3, 0.1, sign=-1)
    error = float(abs(run.final.coef[0] - amp * np.exp(1j * abs(amp) ** 2 * 0.1)))
    ok = error >= 1e-10
    report("criterion 9 single-mode control",
           f"sigma = -1 solution misses the sigma = +1 closed form by"
           f" {error:.3f} >= 1e-10 at dt=1e-3", ok)
    assert ok


def test_criterion_10_special_function_envelopes():
    result = ex.run_specialfun_checks(ortho_n_max=48, szego_degrees=(64, 128, 256, 512))
    defect = result.measured["orthonormality_defect"]
    constant = result.measured["fitted_envelope_constant"]
    report(
        "criterion 10 special functions",
        f"orthonormality defect {defect:.2e} < 1e-10 for n <= 48;"
        f" one fitted envelope constant {constant:.3f} covers the"
        " n^-3/2/sin(theta) remainder for n = 64..512",
        result.passed,
    )
    assert defect < 1e-10
    assert constant > 0.0
    assert result.passed


@pytest.mark.parametrize("d", [2, 3])
def test_criterion_10_holds_on_a_resolved_theta_grid(d):
    """The envelope is a max over theta, so its frozen 512-point grid
    reads it low at d = 2: 0.590, against 0.758 at 4096 points and
    0.7618 at 16384 and 65536.  At d = 3 it reads 0.704 at every grid.
    On 16384 points, where both have converged, one frozen constant
    still covers every degree."""
    result = ex.run_specialfun_checks(theta_points=16384, d=d)
    constant = result.measured["fitted_envelope_constant"]
    limit = result.criteria["envelope_constant_max"]
    report(f"criterion 10 at d = {d} on 16384 points",
           f"fitted envelope constant {constant:.4f} <= {limit}", result.passed)
    assert result.passed
