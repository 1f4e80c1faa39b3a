"""Experiment drivers at reduced scale: pass flags, rows, determinism."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from talbotlab import __version__, cli, experiments, fractal, gaunt, strichartz, znls
from talbotlab.evolve import DEFAULT_PANEL_SEED
from talbotlab.experiments import (
    ExperimentResult,
    run_bilinear_contrast,
    run_kappa_suite,
    run_nls_smoothing,
    run_polygon_dimension,
    run_quantization,
    run_resonance_decay,
    run_specialfun_checks,
    run_torus_step_dimension,
    run_weyl_decay,
    run_zonal_holder,
)


def test_quantization_driver_small():
    result = run_quantization(m_max=256, q_max=6)
    assert result.passed
    assert result.measured["max_residual"] < 1e-10
    assert len(result.rows) == sum(1 for q in range(1, 7) for p in range(1, q + 1) if __import__("math").gcd(p, q) == 1)


def test_quantization_driver_rejects_bad_tolerance(monkeypatch):
    real_check = experiments.quantization_check
    monkeypatch.setattr(
        experiments, "quantization_check",
        lambda spec, p, q: dataclasses.replace(real_check(spec, p, q), residual=1.0),
    )
    result = run_quantization(m_max=128, q_max=4)
    assert not result.passed
    assert result.measured["max_residual"] == 1.0


def test_torus_step_dimension_small():
    result = run_torus_step_dimension(m_max=4096, grid=16384, window=(5, 9))
    assert result.measured["median_dim"] == pytest.approx(1.5, abs=0.1)
    assert result.passed
    assert all("t" in row and "dim_max" in row for row in result.rows)


def test_polygon_dimension_small():
    result = run_polygon_dimension(m_max=128, grid=512, window=(3, 6))
    assert result.measured["median_dim"] == pytest.approx(2.5, abs=0.2)
    assert result.passed


def test_zonal_holder_small():
    result = run_zonal_holder(p=1.5, n_max=1023, j_max=9, window=(2, 9))
    assert result.passed
    assert result.measured["median_slope"] <= 0.02
    # The weight 2^{0.4 j} is part of the verdict, not a parameter that
    # a caller could set to 0 to pass.
    assert result.criteria == {"weight_exponent": 0.4, "slope_tol": 0.02}


@pytest.mark.parametrize("kwargs", [
    dict(n_max=255, j_max=6),  # the default window (2, 12) reaches past j_max
    dict(n_max=255, j_max=6, window=(-1, 6)),  # a negative level would wrap to j_max
    dict(n_max=100, j_max=8, window=(2, 8)),  # levels 7 and 8 hold no degree <= 100
])
def test_zonal_holder_rejects_a_window_outside_its_levels(kwargs):
    with pytest.raises(ValueError, match="window must satisfy"):
        run_zonal_holder(**kwargs)


def test_weyl_decay_small():
    result = run_weyl_decay(p=1.5, exponent_range=(3, 7))
    assert result.passed
    assert result.measured["median_exponent"] == pytest.approx(-1.0, abs=0.15)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_weyl_verdict_holds_at_any_weight_power(p):
    """Square-root cancellation gives sups like N^{1/2 - p} for every p,
    so the verdict bounds the median exponent plus p against 1/2:
    measured 0.518 at p = 1 and 0.516 at p = 2 (blocks 2^4..2^9)."""
    result = run_weyl_decay(p=p, exponent_range=(4, 9))
    assert result.criteria == {"cancellation_exponent": 0.5, "tol": 0.1}
    assert result.measured["median_exponent"] + p == pytest.approx(0.5, abs=0.1)
    assert result.passed


def test_kappa_suite_small():
    result = run_kappa_suite(n_max=8, scan_n_max=24)
    assert result.passed
    for d in (2, 3):
        assert result.measured[f"d{d}_unclassified"] == 0
        assert result.measured[f"d{d}_support_max"] < 1e-10
        assert result.measured[f"d{d}_parseval_max"] < 1e-8
        assert result.measured[f"d{d}_min_entry"] > -1e-10
        assert result.measured[f"d{d}_permutation_defect"] < 1e-12


def test_kappa_suite_fails_on_an_asymmetric_quad(monkeypatch):
    """One admissible off-diagonal entry of Q moved by 1e-9: below the
    Parseval tolerance, inside the support, far from negative; only the
    permutation check sees it."""
    real = experiments.KappaTable.build

    def perturbed(n_max, d=2):
        table = real(n_max, d)
        quad = table.quad.copy()
        quad[1, 2, 3, 4] += 1e-9
        return dataclasses.replace(table, quad=quad)

    monkeypatch.setattr(experiments.KappaTable, "build", staticmethod(perturbed))
    result = run_kappa_suite(n_max=6, scan_n_max=8)
    assert result.passed is False
    assert result.measured["d2_permutation_defect"] >= 1e-9
    assert result.measured["d2_parseval_max"] < result.criteria["parseval_tol"]
    assert result.measured["d2_support_max"] < result.criteria["support_tol"]


# Study -> (small driver arguments, Gauss rules and harmonic tables it
# builds).  Each rule is sized once for the largest degree of its
# integrals: one per dimension in kappa-table, the sphere's and the
# meridian's in resonance, one for the largest M in strichartz, and the
# sphere's and meridian's for each of nls-smoothing's two solves.
RULE_BUILDS = {
    "kappa-table": (dict(n_max=4, scan_n_max=8), 2),
    "resonance": (dict(degrees=(16, 32, 64)), 2),
    "strichartz": (dict(block_n=16, m_blocks=(2, 4, 8), beam_degrees=(8, 16, 32)), 1),
    "nls-smoothing": (dict(n_max=16, dt=5e-3, t_final=0.01, fit_n_min=2), 4),
    "specfun-check": (dict(ortho_n_max=8, szego_degrees=(64, 128)), 1),
}


@pytest.mark.parametrize("study", sorted(RULE_BUILDS))
def test_sphere_study_builds_each_rule_once(study, monkeypatch):
    """A sphere study builds each Gauss rule once, whatever the number
    of its degrees, and one harmonic table at each rule's nodes."""
    calls = []

    def counting(real, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gaunt.QuadratureRule, "for_degree", staticmethod(
        counting(gaunt.QuadratureRule.for_degree, "for_degree")))
    for module in (experiments, gaunt, strichartz, znls):
        monkeypatch.setattr(module, "zonal_harmonic_table",
                            counting(module.zonal_harmonic_table, "zonal_harmonic_table"))
    kwargs, builds = RULE_BUILDS[study]
    cli._SPECS[study]["driver"](**kwargs)
    assert sorted(calls) == ["for_degree"] * builds + ["zonal_harmonic_table"] * builds


def test_resonance_decay_small():
    result = run_resonance_decay(degrees=(16, 32, 64))
    assert result.passed
    assert result.measured["decay_exponent"] <= -0.9
    assert result.measured["stderr"] < 0.5


def test_bilinear_contrast_small():
    result = run_bilinear_contrast(
        block_n=64, m_blocks=(4, 8, 16), beam_degrees=(8, 16, 32, 64, 128)
    )
    assert result.passed
    assert result.measured["bilinear_exponent"] <= 0.15
    assert result.measured["beam_quartic_exponent"] == pytest.approx(0.5, abs=0.1)


def test_nls_smoothing_small():
    result = run_nls_smoothing(n_max=48, dt=2e-3, t_final=0.05, fit_n_min=4)
    assert result.passed
    assert result.measured["mass_drift"] < 1e-8
    assert result.measured["smoothing_gain"] >= 0.2
    assert result.measured["single_mode_error"] < 1e-10


def test_nls_smoothing_solves_at_the_study_step(monkeypatch):
    """Both solves, the decay family's and the single mode's, run at
    the study's dt: the split step is exact for constant data at any
    step, so the single-mode check needs no step of its own."""
    steps = []
    real_solve = experiments.solve

    def recording(initial, dt, t_final, sign=1):
        steps.append((dt, t_final, sign))
        return real_solve(initial, dt, t_final, sign=sign)

    monkeypatch.setattr(experiments, "solve", recording)
    kwargs, _ = RULE_BUILDS["nls-smoothing"]
    run_nls_smoothing(**kwargs, sign=-1)
    assert steps == [(kwargs["dt"], kwargs["t_final"], -1)] * 2


def test_specialfun_driver():
    result = run_specialfun_checks(ortho_n_max=32, szego_degrees=(64, 128))
    assert result.passed
    assert result.measured["orthonormality_defect"] < 1e-10
    assert 0.0 < result.measured["fitted_envelope_constant"] <= 2.0


def test_nan_residual_fails_the_verdict(monkeypatch):
    real_check = experiments.quantization_check

    def nan_check(spec, p, q):
        check = real_check(spec, p, q)
        return dataclasses.replace(check, residual=math.nan) if (p, q) == (1, 2) else check

    monkeypatch.setattr(experiments, "quantization_check", nan_check)
    result = run_quantization(m_max=64, q_max=3)
    assert result.passed is False
    assert math.isnan(result.measured["max_residual"])
    assert "max_residual" in result.failure
    summary = cli._summary("quantize", result, config={}, config_hash="")
    assert summary["passed"] is False and "max_residual" in summary["failure"]


def _nan_after(real, patch):
    """Wrap a kernel so that ``patch`` turns its result into NaN data."""
    return lambda *args, **kwargs: patch(real(*args, **kwargs))


def _nan_array(values):
    return np.full(np.shape(values), math.nan)


def _nan_real_slope(report):
    """A dimension report whose real-part fit has a NaN slope."""
    return dataclasses.replace(report, real=dataclasses.replace(report.real, slope=math.nan))


def _nan_imag_extrema(strips):
    """NaN the imaginary part's cell maxima and minima in every strip."""
    for extrema in strips:
        extrema[1] = math.nan
    return strips


# Case -> (small driver arguments, kernel the driver looks up in
# experiments, or (module, name) of one it reaches through another
# module, how its result turns into NaN).  A case id is its study's name, with
# a ":" suffix for further cases of the same study.
NAN_CASES = {
    "specfun-check": (dict(ortho_n_max=8, szego_degrees=(64, 128)), "jacobi_asymptotic",
                      _nan_array),
    "kappa-table": (dict(n_max=4, scan_n_max=8),
                    (gaunt, "zonal_harmonic_table"), _nan_array),
    "quantize": (dict(m_max=64, q_max=3), "quantization_check",
                 lambda out: dataclasses.replace(out, residual=math.nan)),
    "dimension-torus-step": (dict(m_max=64, grid=512, window=(3, 6)), "dim_t",
                             _nan_real_slope),
    # Only the imaginary part goes NaN: a maximum of the two component
    # slopes that drops NaN would pass on the real part alone.
    "dimension-torus-step:imag": (dict(m_max=64, grid=512, window=(3, 6)),
                                  (fractal, "torus_strips"), _nan_imag_extrema),
    "dimension-torus-polygon": (dict(m_max=16, grid=256, window=(3, 6)), "dim_t",
                                _nan_real_slope),
    "weyl": (dict(exponent_range=(3, 6)), "weyl_block_sup",
             lambda out: dataclasses.replace(out, sup=math.nan)),
    "strichartz": (dict(block_n=16, m_blocks=(2, 4, 8), beam_degrees=(8, 16, 32)),
                   "bilinear_l2", _nan_array),
    "nls-smoothing": (dict(n_max=16, dt=5e-3, t_final=0.01, fit_n_min=2),
                      "smoothing_residual",
                      lambda out: dataclasses.replace(out, r_norms=_nan_array(out.r_norms))),
    "zonal-holder": (dict(n_max=255, j_max=7, window=(2, 7)), "block_norm_table",
                     _nan_array),
    "resonance": (dict(degrees=(16, 32)), "resonance_compare",
                  lambda out: (_nan_array(out[0]), out[1])),
}


def test_nan_cases_cover_every_study():
    assert {case.split(":")[0] for case in NAN_CASES} == set(cli._SPECS)


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_from_an_inner_kernel_fails_the_verdict(case, monkeypatch):
    kwargs, kernel, patch = NAN_CASES[case]
    owner, name = kernel if isinstance(kernel, tuple) else (experiments, kernel)
    monkeypatch.setattr(owner, name, _nan_after(getattr(owner, name), patch))
    result = cli._SPECS[case.split(":")[0]]["driver"](**kwargs)
    assert result.passed is False
    assert result.failure.startswith("non-finite measured value: ")
    summary = cli._summary(case.split(":")[0], result, config={}, config_hash="")
    assert summary["passed"] is False and summary["failure"] == result.failure


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_criteria_hold_thresholds_not_parameters(study):
    """A run's parameters are recorded once, in the summary's config."""
    driver = cli._SPECS[study]["driver"]
    result = driver(**NAN_CASES[study][0])
    assert not set(result.criteria) & set(inspect.signature(driver).parameters)


PANEL_STUDIES = sorted(study for study, spec in cli._SPECS.items()
                       if "seed" in inspect.signature(spec["driver"]).parameters)


@pytest.mark.parametrize("study", PANEL_STUDIES)
def test_panel_drivers_build_the_time_panel_once(study, monkeypatch):
    calls = []
    real = experiments.time_panel

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "time_panel", counted)
    result = cli._SPECS[study]["driver"](**NAN_CASES[study][0])
    assert len(calls) == 1
    assert list(dict.fromkeys(row["t"] for row in result.rows)) == real(DEFAULT_PANEL_SEED)


def test_non_finite_measured_value_fails_any_verdict():
    result = ExperimentResult(True, {"a": 1.0, "b": math.inf, "n": 3}, {}, ())
    assert result.passed is False
    assert result.failure == "non-finite measured value: b"
    assert cli._summary("x", result, config={}, config_hash="")["measured"] == {
        "a": 1.0, "b": None, "n": 3,
    }
    clean = ExperimentResult(True, {"a": 1.0, "n": 3}, {}, ())
    assert clean.passed is True
    assert "failure" not in cli._summary("x", clean, config={}, config_hash="")


def test_summary_embeds_reproducibility_fields():
    result = run_quantization(m_max=64, q_max=3)
    summary = cli._summary("quantize", result, config={"m_max": 64, "q_max": 3},
                           config_hash="abc123")
    payload = json.loads(json.dumps(summary))
    assert list(payload) == ["subcommand", "version", "config", "config_hash",
                             "measured", "criteria", "passed"]
    assert payload["subcommand"] == "quantize"
    assert payload["version"] == __version__
    assert payload["config"]["m_max"] == 64
    assert payload["config_hash"] == "abc123"
    assert payload["passed"] is True


def test_write_rows_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli._write_rows(p1, rows)
    cli._write_rows(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "a,b"


def test_write_rows_writes_numpy_floats_as_numbers(tmp_path):
    path = tmp_path / "r.csv"
    cli._write_rows(path, [{"a": np.float64(0.5), "b": 0.1, "n": np.int64(3)}])
    assert path.read_text() == "a,b,n\n0.5,0.1,3\n"


def test_experiment_result_shape():
    result = run_resonance_decay(degrees=(16, 32))
    assert isinstance(result, ExperimentResult)
    assert set(result.measured) >= {"decay_exponent", "stderr"}
    assert isinstance(result.criteria, dict)
    assert isinstance(result.rows, tuple) and result.rows
