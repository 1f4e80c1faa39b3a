"""CLI behaviour: exit codes, output files, config precedence, determinism."""

import ast
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import talbotlab
from talbotlab import __version__, cli, experiments
from talbotlab.cli import main
from talbotlab.experiments import ExperimentResult
from talbotlab.specialfun import SZEGO_REMAINDER_C


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_quantize_writes_csv_and_summary(tmp_path, capsys):
    code = run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "quantize: pass" in out
    assert "max_residual" in out
    csv_path = tmp_path / "quantize.csv"
    json_path = tmp_path / "quantize.json"
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text().splitlines()[0] == "p,q,grid_size,residual"
    summary = json.loads(json_path.read_text())
    assert summary["subcommand"] == "quantize"
    assert summary["version"] == __version__
    assert summary["passed"] is True
    assert summary["config"]["m_max"] == 64
    assert summary["measured"]["max_residual"] < 1e-8
    assert summary["criteria"]["max_residual_lt"] == 1e-8


def test_config_hash_is_canonical_sha256(tmp_path):
    assert run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3") == 0
    summary = json.loads((tmp_path / "quantize.json").read_text())
    assert list(summary) == ["subcommand", "version", "config", "config_hash",
                             "measured", "criteria", "passed"]
    canonical = json.dumps({"subcommand": "quantize", **summary["config"]}, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    assert summary["config_hash"] == digest


def test_refuses_overwrite_without_force(tmp_path, capsys):
    assert run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3") == 0
    capsys.readouterr()
    assert run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3") == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3",
               "--force") == 0


def test_tolerance_failure_exits_one(tmp_path, capsys, monkeypatch):
    real_check = experiments.quantization_check
    monkeypatch.setattr(
        experiments, "quantization_check",
        lambda spec, p, q: dataclasses.replace(real_check(spec, p, q), residual=1.0),
    )
    code = run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3")
    assert code == 1
    assert "quantize: FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "quantize.json").read_text())
    assert summary["passed"] is False


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_max": 64, "q_max": 5}))
    out_dir = tmp_path / "out"
    code = main(["quantize", "--config", str(cfg), "--q-max", "3",
                 "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "quantize.json").read_text())
    assert summary["config"]["m_max"] == 64
    assert summary["config"]["q_max"] == 3


def test_config_seed_key_is_recorded(tmp_path, monkeypatch):
    seen = {}
    _recording_driver(monkeypatch, "weyl", seen)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out_dir = tmp_path / "out"
    assert main(["weyl", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert seen["seed"] == 7
    assert json.loads((out_dir / "weyl.json").read_text())["config"]["seed"] == 7


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    """A threshold such as ``tol`` is fixed in its study, not a key."""
    cfg = tmp_path / "cfg.json"
    for key in ("bogus_key", "tol"):
        cfg.write_text(json.dumps({"m_max": 64, key: 1}))
        code = main(["quantize", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert f"unknown config keys for quantize: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_unreadable_and_malformed_config(tmp_path, capsys):
    assert main(["quantize", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o1")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["quantize", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err
    assert "config must be a JSON object" in err


def test_non_finite_measured_value_is_written_as_null(tmp_path, monkeypatch):
    real_check = experiments.quantization_check
    monkeypatch.setattr(
        experiments, "quantization_check",
        lambda spec, p, q: dataclasses.replace(real_check(spec, p, q), residual=math.nan),
    )
    assert run(tmp_path, "quantize", "--m-max", "64", "--q-max", "3") == 1

    def reject(constant):
        raise ValueError(f"summary holds the non-JSON constant {constant}")

    summary = json.loads((tmp_path / "quantize.json").read_text(), parse_constant=reject)
    assert summary["measured"]["max_residual"] is None
    assert summary["passed"] is False
    assert summary["failure"] == "non-finite measured value: max_residual"


def test_non_finite_config_value_exits_two_without_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["weyl", "--p", "nan", "--exponent-range", "3,5",
                 "--out", str(out_dir)]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out_dir.exists()


def test_driver_value_error_exits_two(tmp_path, capsys):
    """The default window (2, 12) reaches past j_max = 6."""
    out_dir = tmp_path / "out"
    assert main(["zonal-holder", "--n-max", "255", "--j-max", "6",
                 "--out", str(out_dir)]) == 2
    assert "window must satisfy" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ("specfun-check", "--d", "4"),
])
def test_unsupported_sphere_dimension_exits_two_without_outputs(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "unsupported sphere dimension 4" in captured.err
    assert "[2, 3]" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    # m_max 0 keeps no modes: a zero field whose residual cannot fail.
    (("quantize", "--m-max", "0", "--q-max", "2"), "m_max and q_max must be at least 1"),
    # One theta per degree samples only the window edge, not a max over theta.
    (("specfun-check", "--theta-points", "1", "--szego-degrees", "64,128"),
     "theta_points must be at least 2"),
    # One block leaves no exponent to fit.
    (("weyl", "--exponent-range", "4,4"), "need at least two points to fit a line"),
    # A negative degree leaves no harmonic table to build.
    (("kappa-table", "--n-max", "-1", "--scan-n-max", "8"),
     "n_max must be non-negative"),
    (("specfun-check", "--ortho-n-max", "-1", "--szego-degrees", "64,128"),
     "n_max must be non-negative"),
    # An empty Lambda scan counts nothing unclassified whatever the constants.
    (("kappa-table", "--n-max", "4", "--scan-n-max", "0"),
     "scan_n_max must be at least 1"),
    (("kappa-table", "--n-max", "4", "--scan-n-max", "-3"),
     "scan_n_max must be at least 1"),
    # kappa(n, n, n2, n3) needs n >= n2, n3, and the fit at least one n.
    (("resonance", "--degrees", "4,16"), "needs n2, n3 <= n"),
    (("resonance", "--degrees="), "needs at least one degree n"),
    # A negative horizon is not a run of zero steps.
    (("nls-smoothing", "--n-max", "16", "--t-final=-0.1"), "t_final must be"),
    # An empty block M has zero norm, so its bilinear ratio divides by zero.
    (("strichartz", "--m-blocks", "0,4"), "block starts M must be at least 1"),
    (("strichartz", "--m-blocks=-2,4"), "block starts M must be at least 1"),
    # Levels 7 and 8 hold no degree <= 100: their sup norms are 0.
    (("zonal-holder", "--n-max", "100", "--j-max", "8", "--window", "2,8"),
     "window must satisfy 2**end <= n_max"),
    # m_max 2^14 needs 32769 points: a smaller grid samples another field.
    (("dimension", "torus-step", "--grid", "16384", "--window", "3,9"),
     "grid 16384 is smaller than 2*m_max+1 = 32769"),
    # kappa(n, n, n2, n3) and the line integral vanish together for odd
    # n2 + n3, and are both 1 for n2 = n3 = 0: the fit would see roundoff.
    (("resonance", "--n2", "2", "--n3", "5"), "identically zero difference"),
    (("resonance", "--n2", "0", "--n3", "1"), "identically zero difference"),
    (("resonance", "--n2", "0", "--n3", "0"), "identically zero difference"),
])
def test_degenerate_study_parameters_exit_two_without_outputs(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_empty_outputs_exit_two_before_any_verdict_or_file(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    assert main(["quantize", "--m-max", "64", "--q-max", "0", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "q_max must be at least 1" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()
    # Any driver's empty row set is refused by the CLI itself.
    real = cli._SPECS["quantize"]["driver"]

    @functools.wraps(real)
    def empty(**kwargs):
        return ExperimentResult(passed=True, measured={}, criteria={}, rows=())

    monkeypatch.setitem(cli._SPECS["quantize"], "driver", empty)
    assert main(["quantize", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "no rows to write to" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_dimension_variant_dispatch(tmp_path):
    code = run(tmp_path, "dimension", "torus-step", "--m-max", "256",
               "--grid", "2048", "--window", "4,8")
    summary = json.loads((tmp_path / "dimension-torus-step.json").read_text())
    assert code == (0 if summary["passed"] else 1)
    assert code == 1
    assert summary["subcommand"] == "dimension-torus-step"
    assert summary["config"]["seed"] == 1729
    assert 1.0 < summary["measured"]["median_dim"] < 2.0
    header = (tmp_path / "dimension-torus-step.csv").read_text().splitlines()[0]
    assert header == "t,kind,dim_real,dim_imag,dim_max"


def test_kappa_table_writes_value_tables(tmp_path):
    code = run(tmp_path, "kappa-table", "--n-max", "4", "--scan-n-max", "16")
    assert code == 0
    assert (tmp_path / "kappa-table.csv").exists()
    for d in (2, 3):
        csv_lines = (tmp_path / f"kappa-values-d{d}.csv").read_text().splitlines()
        assert csv_lines[0] == "n1,n2,n3,n4,value"
        payload = json.loads((tmp_path / f"kappa-values-d{d}.json").read_text())
        assert payload["d"] == d and payload["n_max"] == 4


def test_seeded_runs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["weyl", "--p", "1.5", "--exponent-range", "3,6", "--seed", "5"]
    assert main([*argv, "--out", str(d1)]) == 0
    assert main([*argv, "--out", str(d2)]) == 0
    assert (d1 / "weyl.csv").read_bytes() == (d2 / "weyl.csv").read_bytes()
    s1 = json.loads((d1 / "weyl.json").read_text())
    s2 = json.loads((d2 / "weyl.json").read_text())
    assert s1 == s2
    assert s1["config"]["seed"] == 5


@pytest.mark.parametrize("argv", [
    ("nls-smoothing",),
    ("zonal-holder", "--n-max", "2047", "--j-max", "10", "--window", "2,10", "--seed", "1729"),
], ids=lambda argv: argv[0])
def test_study_outputs_do_not_depend_on_blas_threads(argv, tmp_path):
    """One and two BLAS threads give the same bytes: the matrix-free NLS
    substep makes no LAPACK call, and each product of criterion 4's
    block conversion is small enough for OpenBLAS to run on one thread."""
    study = argv[0]
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "talbotlab.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append([(out / f"{study}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("study", ["dimension-torus-polygon", "weyl"])
def test_pooled_study_outputs_do_not_depend_on_cpu_count(study, tmp_path):
    """The pool has one worker per CPU in the process's affinity mask; a
    child pinned to one CPU and one pinned to two write the same bytes
    for criterion 3 (column strips) and criterion 5 (Weyl block jobs).
    Only the children's affinity is set."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform: a child cannot be pinned")
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cpus = sorted(os.sched_getaffinity(0))
    outputs = []
    for count in (1, 2):
        if count > len(cpus):
            pytest.skip("one CPU in the affinity mask: no two-CPU run to compare")
        out = tmp_path / f"cpus{count}"
        child = (f"import os, sys; os.sched_setaffinity(0, {cpus[:count]}); "
                 "from talbotlab.cli import main; sys.exit(main(sys.argv[1:]))")
        subprocess.run([sys.executable, "-c", child, *_argv_prefix(study),
                        "--seed", "1729", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append([(out / f"{study}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_scipy():
    """The library needs NumPy alone; scipy is a test-only oracle.  Exact
    rationals come from int arithmetic, so neither fractions nor decimal
    is imported either."""
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, talbotlab.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_sphere_studies_never_import_the_pool(tmp_path):
    """zonal-holder samples its blocks as one T^1 strip each, and the
    five sphere-quadrature studies never reach the torus transform, so
    a child that runs all six through cli.main never imports
    concurrent.futures (0.65 MB of RSS, and its import time)."""
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [["zonal-holder", "--n-max", "255", "--j-max", "7", "--window", "2,7"],
            ["kappa-table"], ["resonance"], ["strichartz"], ["nls-smoothing"],
            ["specfun-check"]]
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    child = ("import json, sys; from talbotlab.cli import main; "
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, 'concurrent.futures' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                          check=True, capture_output=True, text=True)
    codes, pooled = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert not pooled


def test_different_seed_changes_panel(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    base = ["weyl", "--p", "1.5", "--exponent-range", "3,6"]
    assert main([*base, "--seed", "5", "--out", str(d1)]) == 0
    assert main([*base, "--seed", "6", "--out", str(d2)]) == 0
    assert (d1 / "weyl.csv").read_bytes() != (d2 / "weyl.csv").read_bytes()


def test_bad_flag_value_raises_system_exit(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, "dimension", "torus-step", "--window", "4")
    assert info.value.code == 2


def _argv_prefix(study):
    group, _, variant = study.partition("-")
    return [group, variant] if group == "dimension" else [study]


def _flag_text(value):
    if isinstance(value, tuple):
        return ",".join(_flag_text(v) for v in value)
    return repr(value)


def _driver_params(study):
    sig = inspect.signature(cli._SPECS[study]["driver"])
    # Defaults stand in for user values.
    return {name: p.default for name, p in sig.parameters.items()}


def _recording_driver(monkeypatch, study, seen):
    real = cli._SPECS[study]["driver"]

    @functools.wraps(real)
    def fake(**kwargs):
        seen.update(kwargs)
        return ExperimentResult(passed=True, measured={}, criteria={},
                                rows=({"x": 1},))

    monkeypatch.setitem(cli._SPECS[study], "driver", fake)


def _summary_at(out_dir, study, *argv):
    assert main([*_argv_prefix(study), *argv, "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / f"{study}.json").read_text())
    return summary["config"], summary["config_hash"]


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_the_subcommand_names_every_output(tmp_path, monkeypatch, capsys, study):
    """A result carries no name: the summary, its rows and the status
    line are named by the subcommand alone."""
    _recording_driver(monkeypatch, study, {})
    assert main([*_argv_prefix(study), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(f"{study}: pass\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{study}.csv", f"{study}.json"]
    assert json.loads((tmp_path / f"{study}.json").read_text())["subcommand"] == study


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_driver_parameter_is_a_flag(tmp_path, monkeypatch, study):
    seen = {}
    _recording_driver(monkeypatch, study, seen)
    params = _driver_params(study)
    flags = [f"--{k.replace('_', '-')}={_flag_text(v)}" for k, v in params.items()]
    spelled = _summary_at(tmp_path, study, *flags)
    assert seen == params
    assert list(spelled[0]) == list(params)
    # Every default spelled as a flag is the run at defaults.
    assert _summary_at(tmp_path / "defaults", study) == spelled


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_driver_parameter_is_a_config_key(tmp_path, monkeypatch, study):
    """Every default in a config file, as JSON or as its flag text, is
    the run at defaults: the driver gets the flags' tuples, and the
    summary the same config and hash."""
    seen = {}
    _recording_driver(monkeypatch, study, seen)
    params = _driver_params(study)
    at_defaults = _summary_at(tmp_path / "defaults", study)
    for form, values in [("json", params),
                         ("text", {k: _flag_text(v) for k, v in params.items()})]:
        seen.clear()
        cfg = tmp_path / f"{form}.json"
        cfg.write_text(json.dumps(values))
        assert _summary_at(tmp_path / form, study, "--config", str(cfg)) == at_defaults
        assert seen == params


def test_config_number_is_read_as_its_flag_text(tmp_path, monkeypatch):
    """``"p": 1`` is ``--p 1``: both run p = 1.0 under one hash."""
    seen = {}
    _recording_driver(monkeypatch, "nls-smoothing", seen)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1, "n_max": 32}))
    from_file = _summary_at(tmp_path / "file", "nls-smoothing", "--config", str(cfg))
    assert seen["p"] == 1.0 and isinstance(seen["p"], float)
    assert _summary_at(tmp_path / "flags", "nls-smoothing", "--p", "1",
                       "--n-max", "32") == from_file


@pytest.mark.parametrize("study, argv, config", [
    # Only the panel studies draw random times, so only they take a seed.
    ("quantize", ("--seed", "5"), None),
    ("quantize", (), {"seed": 5}),
    # A config value goes through the flag's converter, which refuses these.
    ("weyl", (), {"seed": 1.7}),
    ("weyl", (), {"p": True}),
    ("zonal-holder", (), {"window": "2,x"}),
    # The weight exponent is part of the verdict, and the triangle is
    # the study's fixed data: neither is a flag or a config key.
    ("zonal-holder", ("--weight-exponent", "0"), None),
    ("zonal-holder", (), {"weight_exponent": 0}),
    ("dimension-torus-polygon", ("--vertices", "0,0;1,0;1,1"), None),
    ("dimension-torus-polygon", (), {"vertices": [[0, 0], [1, 0], [1, 1]]}),
    # Criterion 7 is stated on S^2, criterion 6 runs both frozen
    # dimensions, and criterion 5's 16N grid is its envelope constant.
    ("resonance", ("--d", "3"), None),
    ("resonance", (), {"d": 3}),
    ("kappa-table", ("--dims", "2"), None),
    ("kappa-table", (), {"dims": [2]}),
    ("weyl", ("--grid-factor", "8"), None),
    ("weyl", (), {"grid_factor": 8}),
], ids=["quantize-seed-flag", "quantize-seed-key", "seed-float", "p-bool", "window-text",
        "weight-exponent-flag", "weight-exponent-key", "vertices-flag", "vertices-key",
        "resonance-d-flag", "resonance-d-key", "kappa-dims-flag", "kappa-dims-key",
        "weyl-grid-factor-flag", "weyl-grid-factor-key"])
def test_refused_parameter_values_exit_two_without_outputs(tmp_path, monkeypatch,
                                                          study, argv, config):
    seen = {}
    _recording_driver(monkeypatch, study, seen)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = (*argv, "--config", str(tmp_path / "cfg.json"))
    out_dir = tmp_path / "out"
    try:
        code = main([*_argv_prefix(study), *argv, "--out", str(out_dir)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert seen == {}
    assert not out_dir.exists()


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_subcommand_has_help(study, capsys):
    with pytest.raises(SystemExit) as info:
        main([*_argv_prefix(study), "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out
    seeded = "seed" in inspect.signature(cli._SPECS[study]["driver"]).parameters
    assert ("--seed" in out) == seeded


def test_specfun_dimension_is_a_flag(tmp_path):
    code = run(tmp_path, "specfun-check", "--d", "3", "--ortho-n-max", "8",
               "--szego-degrees", "64,128", "--theta-points", "64")
    assert code == 0
    summary = json.loads((tmp_path / "specfun-check.json").read_text())
    assert summary["config"]["d"] == 3
    assert summary["criteria"]["envelope_constant_max"] == SZEGO_REMAINDER_C[3]


@pytest.mark.parametrize("argv", [
    ("dimension", "torus-step", "--band", "1,2"),
    ("dimension", "torus-polygon", "--q-max", "99"),
    ("dimension",),
    ("dimension", "torus-polygon", "--window", "4,x"),
    ("dimension", "zonal"),
    ("dimension", "beam"),
    # A study's thresholds are not flags, and no flag matches by prefix.
    ("quantize", "--tol", "1"),
    ("quantize", "--q", "3"),
    ("kappa-table", "--nonneg-tol=-1"),
    ("nls-smoothing", "--gain-min", "0"),
    # The weight exponent of the weighted columns is fixed at s + eps = 3/4.
    ("nls-smoothing", "--s", "0.5"),
    ("nls-smoothing", "--eps", "0.25"),
    # The single-mode check runs at the study's --dt; it has no step of its own.
    ("nls-smoothing", "--single-mode-dt", "1e-4"),
])
def test_foreign_or_malformed_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, *argv)
    assert info.value.code == 2


def test_invalid_sign_exits_two_without_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["nls-smoothing", "--n-max", "16", "--sign", "0",
                 "--out", str(out_dir)]) == 2
    assert "sign" in capsys.readouterr().err
    assert not out_dir.exists()


def test_seed_flag_beats_config_seed(tmp_path, monkeypatch):
    seen = {}
    _recording_driver(monkeypatch, "weyl", seen)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out_dir = tmp_path / "out"
    assert main(["weyl", "--config", str(cfg), "--seed", "5",
                 "--out", str(out_dir)]) == 0
    assert seen["seed"] == 5
    assert json.loads((out_dir / "weyl.json").read_text())["config"]["seed"] == 5


def test_refused_kappa_overwrite_writes_nothing(tmp_path, capsys):
    argv = ("kappa-table", "--n-max", "4", "--scan-n-max", "16")
    (tmp_path / "kappa-values-d3.json").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(tmp_path, *argv) == 2
    assert "kappa-values-d3.json" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert run(tmp_path, *argv, "--force") == 0
    assert json.loads((tmp_path / "kappa-values-d3.json").read_text())["d"] == 3


def file_writes(tree) -> list:
    """Lines of the calls in a syntax tree that write a file: ``open``
    with a write, append or update mode (or one not spelled out),
    ``os.makedirs`` and ``json.dump``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            writes = any(not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+")
                         for mode in modes)
        else:
            writes = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                      and (func.value.id, func.attr) in {("os", "makedirs"), ("json", "dump")})
        if writes:
            lines.append(node.lineno)
    return lines


def test_only_cli_writes_files():
    """Every output format lives in ``cli``: no other module writes a file."""
    package = pathlib.Path(talbotlab.__file__).parent
    assert file_writes(ast.parse(inspect.getsource(cli)))
    writers = {path.name: file_writes(ast.parse(path.read_text(encoding="utf-8")))
               for path in package.glob("*.py") if path.name != "cli.py"}
    assert {name: lines for name, lines in writers.items() if lines} == {}
