"""Experiment drivers at reduced scale: pass flags, rows, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

from talbotlab import __version__, cli, experiments, fractal, gaunt
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


@pytest.mark.parametrize("kwargs", [
    dict(n_max=255, j_max=6),  # the default window (2, 12) reaches past j_max
    dict(n_max=255, j_max=6, window=(-1, 6)),  # a negative level would wrap to j_max
])
def test_zonal_holder_rejects_a_window_outside_its_levels(kwargs):
    with pytest.raises(ValueError, match="window must satisfy"):
        run_zonal_holder(**kwargs)


def test_weyl_decay_small():
    result = run_weyl_decay(p=1.5, exponent_range=(3, 7))
    assert result.passed
    assert result.measured["median_exponent"] == pytest.approx(-1.0, abs=0.15)


def test_kappa_suite_small():
    result = run_kappa_suite(n_max=8, dims=(2, 3), scan_n_max=24)
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
    result = run_kappa_suite(n_max=6, dims=(2,), scan_n_max=8)
    assert result.passed is False
    assert result.measured["d2_permutation_defect"] >= 1e-9
    assert result.measured["d2_parseval_max"] < result.criteria["parseval_tol"]
    assert result.measured["d2_support_max"] < result.criteria["support_tol"]


def test_kappa_suite_builds_one_rule_and_table_per_dimension(monkeypatch):
    """Each kappa is computed once: one quadrature rule and one harmonic
    table per dimension."""
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gaunt.QuadratureRule, "for_degree",
                        staticmethod(counting(gaunt.QuadratureRule, "for_degree")))
    monkeypatch.setattr(gaunt, "zonal_harmonic_table", counting(gaunt, "zonal_harmonic_table"))
    assert run_kappa_suite(n_max=4, dims=(2, 3), scan_n_max=8).passed
    assert sorted(calls) == ["for_degree"] * 2 + ["zonal_harmonic_table"] * 2


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
    summary = cli._summary(result, config={}, seed=0, config_hash="")
    assert summary["passed"] is False and "max_residual" in summary["failure"]


def _nan_after(real, patch):
    """Wrap a kernel so that ``patch`` turns its result into NaN data."""
    return lambda *args, **kwargs: patch(real(*args, **kwargs))


def _nan_array(values):
    return np.full(np.shape(values), math.nan)


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
    "kappa-table": (dict(n_max=4, dims=(2,), scan_n_max=8),
                    (gaunt, "zonal_harmonic_table"), _nan_array),
    "quantize": (dict(m_max=64, q_max=3), "quantization_check",
                 lambda out: dataclasses.replace(out, residual=math.nan)),
    "dimension-torus-step": (dict(m_max=64, grid=512, window=(3, 6)), "dim_t",
                             lambda out: dataclasses.replace(out, max_slope=math.nan)),
    # Only the imaginary part goes NaN: a maximum of the two component
    # slopes that drops NaN would pass on the real part alone.
    "dimension-torus-step:imag": (dict(m_max=64, grid=512, window=(3, 6)),
                                  (fractal, "torus_strips"), _nan_imag_extrema),
    "dimension-torus-polygon": (dict(m_max=16, grid=256, window=(3, 6)), "dim_t",
                                lambda out: dataclasses.replace(out, max_slope=math.nan)),
    "weyl": (dict(exponent_range=(3, 6)), "weyl_block_sup",
             lambda out: dataclasses.replace(out, sup=math.nan)),
    "strichartz": (dict(block_n=16, m_blocks=(2, 4, 8), beam_degrees=(8, 16, 32)),
                   "bilinear_l2", lambda out: math.nan),
    "nls-smoothing": (dict(n_max=16, dt=5e-3, t_final=0.01, fit_n_min=2,
                           single_mode_dt=5e-3), "smoothing_residual",
                      lambda out: dataclasses.replace(out, r_norms=_nan_array(out.r_norms))),
    "zonal-holder": (dict(n_max=255, j_max=7, window=(2, 7)), "block_norm_table",
                     _nan_array),
    "resonance": (dict(degrees=(16, 32)), "resonance_compare",
                  lambda out: (out[0], out[1], math.nan)),
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
    summary = cli._summary(result, config={}, seed=0, config_hash="")
    assert summary["passed"] is False and summary["failure"] == result.failure


def test_non_finite_measured_value_fails_any_verdict():
    result = ExperimentResult("x", True, {"a": 1.0, "b": math.inf, "n": 3}, {}, ())
    assert result.passed is False
    assert result.failure == "non-finite measured value: b"
    assert cli._summary(result, config={}, seed=0, config_hash="")["measured"] == {
        "a": 1.0, "b": None, "n": 3,
    }
    clean = ExperimentResult("x", True, {"a": 1.0, "n": 3}, {}, ())
    assert clean.passed is True
    assert "failure" not in cli._summary(clean, config={}, seed=0, config_hash="")


def test_summary_embeds_reproducibility_fields():
    result = run_quantization(m_max=64, q_max=3)
    summary = cli._summary(result, config={"m_max": 64, "q_max": 3}, seed=7,
                           config_hash="abc123")
    payload = json.loads(json.dumps(summary))
    assert payload["subcommand"] == "quantize"
    assert payload["version"] == __version__
    assert payload["seed"] == 7
    assert payload["config"]["m_max"] == 64
    assert payload["config_hash"] == "abc123"
    assert payload["passed"] is True
    assert "measured" in payload and "criteria" in payload


def test_write_rows_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli._write_rows(p1, rows)
    cli._write_rows(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "a,b"


def test_experiment_result_shape():
    result = run_resonance_decay(degrees=(16, 32))
    assert isinstance(result, ExperimentResult)
    assert set(result.measured) >= {"decay_exponent", "stderr"}
    assert isinstance(result.criteria, dict)
    assert isinstance(result.rows, tuple) and result.rows
