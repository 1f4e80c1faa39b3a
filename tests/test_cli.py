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
    canonical = json.dumps(
        {"subcommand": "quantize", "seed": summary["seed"], **summary["config"]},
        sort_keys=True,
    )
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


def test_config_seed_key_is_recorded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_max": 64, "q_max": 3, "seed": 7}))
    out_dir = tmp_path / "out"
    assert main(["quantize", "--config", str(cfg), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "quantize.json").read_text())
    assert summary["seed"] == 7


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
    assert main(["weyl", "--p", "nan", "--exponent-range", "3,5", "--grid-factor", "8",
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
    ("kappa-table", "--n-max", "4", "--dims", "2,4", "--scan-n-max", "8"),
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
    (("kappa-table", "--n-max", "4", "--dims", "2,2", "--scan-n-max", "8"),
     "dims must not repeat a dimension"),
    # A negative degree leaves no harmonic table to build.
    (("kappa-table", "--n-max", "-1", "--dims", "2", "--scan-n-max", "8"),
     "n_max must be non-negative"),
    (("specfun-check", "--ortho-n-max", "-1", "--szego-degrees", "64,128"),
     "n_max must be non-negative"),
    # An empty Lambda scan counts nothing unclassified whatever the constants.
    (("kappa-table", "--n-max", "4", "--dims", "2", "--scan-n-max", "0"),
     "scan_n_max must be at least 1"),
    (("kappa-table", "--n-max", "4", "--dims", "2", "--scan-n-max", "-3"),
     "scan_n_max must be at least 1"),
    # Zonal harmonics need a sphere: S^1 has no kappa, and d = 0 no measure.
    (("resonance", "--d", "1"), "sphere dimension must be at least 2"),
    (("resonance", "--d", "0"), "sphere dimension must be at least 2"),
    # A negative horizon is not a run of zero steps.
    (("nls-smoothing", "--n-max", "16", "--t-final=-0.1"), "t_final must be"),
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
        return ExperimentResult(name="quantize", passed=True, measured={},
                                criteria={}, rows=())

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
    code = run(tmp_path, "kappa-table", "--n-max", "4", "--dims", "2",
               "--scan-n-max", "16")
    assert code == 0
    assert (tmp_path / "kappa-table.csv").exists()
    assert (tmp_path / "kappa-values-d2.json").exists()
    csv_lines = (tmp_path / "kappa-values-d2.csv").read_text().splitlines()
    assert csv_lines[0] == "n1,n2,n3,n4,value"
    assert not (tmp_path / "kappa-values-d3.json").exists()
    payload = json.loads((tmp_path / "kappa-values-d2.json").read_text())
    assert payload["d"] == 2 and payload["n_max"] == 4


def test_seeded_runs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["weyl", "--p", "1.5", "--exponent-range", "3,6",
            "--grid-factor", "8", "--seed", "5"]
    assert main([*argv, "--out", str(d1)]) == 0
    assert main([*argv, "--out", str(d2)]) == 0
    assert (d1 / "weyl.csv").read_bytes() == (d2 / "weyl.csv").read_bytes()
    s1 = json.loads((d1 / "weyl.json").read_text())
    s2 = json.loads((d2 / "weyl.json").read_text())
    assert s1 == s2
    assert s1["seed"] == 5


def test_nls_smoothing_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The matrix-free substep makes no LAPACK call: one and two BLAS
    threads give the same bytes."""
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "talbotlab.cli", "nls-smoothing", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(
            [(out / name).read_bytes() for name in ("nls-smoothing.json", "nls-smoothing.csv")]
        )
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
    """The library needs NumPy alone; scipy is a test-only oracle."""
    src = str(pathlib.Path(talbotlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, talbotlab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
    base = ["weyl", "--p", "1.5", "--exponent-range", "3,6",
            "--grid-factor", "8"]
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
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_flag_text(v) for v in value)
    return repr(value)


def _driver_params(study):
    sig = inspect.signature(cli._SPECS[study]["driver"])
    # Defaults stand in for user values.
    return {name: p.default for name, p in sig.parameters.items() if name != "seed"}


def _recording_driver(monkeypatch, study, seen):
    real = cli._SPECS[study]["driver"]

    @functools.wraps(real)
    def fake(**kwargs):
        seen.update(kwargs)
        return ExperimentResult(name=study, passed=True, measured={},
                                criteria={}, rows=({"x": 1},))

    monkeypatch.setitem(cli._SPECS[study], "driver", fake)
    return "seed" in inspect.signature(real).parameters


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_driver_parameter_is_a_flag(tmp_path, monkeypatch, study):
    seen = {}
    seeded = _recording_driver(monkeypatch, study, seen)
    params = _driver_params(study)
    flags = [f"--{k.replace('_', '-')}={_flag_text(v)}" for k, v in params.items()]
    assert run(tmp_path, *_argv_prefix(study), *flags) == 0
    assert seen == {**params, **({"seed": 1729} if seeded else {})}
    summary = json.loads((tmp_path / f"{study}.json").read_text())
    assert list(summary["config"]) == list(params) + (["seed"] if seeded else [])


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_driver_parameter_is_a_config_key(tmp_path, monkeypatch, study):
    seen = {}
    seeded = _recording_driver(monkeypatch, study, seen)
    params = json.loads(json.dumps(_driver_params(study)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**params, "seed": 11}))
    assert main([*_argv_prefix(study), "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert seen == {**params, **({"seed": 11} if seeded else {})}


@pytest.mark.parametrize("study", sorted(cli._SPECS))
def test_every_subcommand_has_help(study, capsys):
    with pytest.raises(SystemExit) as info:
        main([*_argv_prefix(study), "--help"])
    assert info.value.code == 0
    assert "--config" in capsys.readouterr().out


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


def test_seed_flag_beats_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_max": 64, "q_max": 3, "seed": 7}))
    out_dir = tmp_path / "out"
    assert main(["quantize", "--config", str(cfg), "--seed", "5",
                 "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "quantize.json").read_text())["seed"] == 5


def test_refused_kappa_overwrite_writes_nothing(tmp_path, capsys):
    argv = ("kappa-table", "--n-max", "4", "--dims", "2,3", "--scan-n-max", "16")
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
