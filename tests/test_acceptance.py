"""Acceptance suite: every headline criterion at its frozen parameters.

Each test runs one full-scale study, prints a single line with the
measured value against its threshold, and asserts the verdict.  The
-rP pytest option surfaces the printed lines in the run summary, so
the whole suite reads as a checklist.  The rational-time controls
show that the dimension gates can fail on real data, where the paper
says they must.
"""

import math
import time

import pytest

from conftest import quad_triangle_coefficient, torus_coefficient
from talbotlab import experiments as ex
from talbotlab.fractal import dim_t
from talbotlab.spectra import torus_polygon_indicator, torus_step

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
    result = ex.run_polygon_dimension(
        vertices=TRIANGLE, m_max=2**9, grid=2048, window=(3, 8),
    )
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
    result = ex.run_zonal_holder(
        p=1.5, n_max=8191, j_max=12, weight_exponent=0.4, window=(2, 12),
    )
    slope = result.measured["median_slope"]
    report(
        "criterion 4 zonal Holder bound",
        f"panel-median trend of 2^(0.4j)*sup-norm has slope {slope:+.4f}"
        " <= 0.02 (no growth, j <= 12)",
        result.passed,
    )
    assert slope <= 0.02
    assert result.passed


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


def test_criterion_06_triple_integral_suite():
    result = ex.run_kappa_suite(n_max=12, dims=(2, 3), scan_n_max=64)
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
    result = ex.run_resonance_decay(n2=3, n3=5, d=2, degrees=(16, 32, 64, 128, 256))
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


def test_criterion_09_cubic_smoothing():
    result = ex.run_nls_smoothing(
        p=1.1, n_max=256, dt=1e-3, t_final=0.1, single_mode_dt=1e-4,
    )
    m = result.measured
    report(
        "criterion 9 cubic smoothing",
        f"mass drift {m['mass_drift']:.2e} < 1e-08;"
        f" residual tail {m['residual_tail_exponent']:.2f} beats solution"
        f" tail {m['solution_tail_exponent']:.2f} by"
        f" {m['smoothing_gain']:.2f} >= 0.2;"
        f" single-mode closed-form error {m['single_mode_error']:.2e}"
        " < 1e-10 at dt=1e-4",
        result.passed,
    )
    assert m["mass_drift"] < 1e-8
    assert m["smoothing_gain"] >= 0.2
    assert m["single_mode_error"] < 1e-10
    assert result.passed


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
