"""Tests of the benchmark's tracer, bindings and reference check.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import talbot  # noqa: E402
from talbotlab import cli  # noqa: E402
from tracer import Binding, Span, Tracer, _get, self_times  # noqa: E402

# Small versions of every workload's studies: enough to call each
# traced binding, fast enough for a unit test.
SMALL_STUDIES = [
    ["zonal-holder", "--n-max", "255", "--j-max", "7", "--window", "2,7"],
    ["quantize", "--m-max", "128", "--q-max", "4"],
    ["dimension", "torus-step", "--m-max", "512", "--grid", "4096", "--window", "3,8"],
    ["dimension", "torus-polygon", "--m-max", "32", "--grid", "128", "--window", "2,5"],
    ["weyl", "--exponent-range", "3,5"],
    ["kappa-table", "--n-max", "4", "--scan-n-max", "8"],
    ["resonance", "--degrees", "8,16,32"],
    ["strichartz", "--block-n", "16", "--m-blocks", "2,4", "--beam-degrees", "8,16"],
    ["nls-smoothing", "--n-max", "32", "--t-final", "0.01"],
    ["specfun-check", "--ortho-n-max", "8", "--szego-degrees", "64,128"],
]


def _run_cli(argv, out_dir, tracer=None):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            return cli.main(argv + ["--out", str(out_dir)])
        with tracer.span("cli.main"):
            return cli.main(argv + ["--out", str(out_dir)])


def _measured(out_dir):
    return {p.stem: json.loads(p.read_text())["measured"]
            for p in sorted(Path(out_dir).glob("*.json"))
            if not p.stem.startswith("kappa-values")}


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
        Span("d", 6.5, 8.0, 2, 0),  # overlaps c: covered once
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    assert sum(self_times(spans)) > spans[0].duration  # c, d overlap


def test_tracer_records_parents_passes_and_work():
    ticks = iter(range(100))
    tracer = Tracer(pass_id=3, clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner", work=7):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (None, 0, 0)
    assert {s.pass_id for s in tracer.spans} == {3}
    assert (first.work, second.work) == (7, None)
    assert [r["self"] for r in tracer.records()] == [3.0, 1.0, 1.0]


def test_layer_self_times_account_for_the_root():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("experiments.run_zonal_holder", 0.5, 9.5, 0, 0),
        Span("lpbesov.block_norm_table", 1.0, 9.0, 1, 0),
        Span("specialfun.zonal_series_blocks", 1.5, 8.5, 2, 0, work=12),
    ]
    layer = talbot.layer_metrics(spans)
    assert layer["cli.main.self_s"][0] == pytest.approx(1.0)
    assert layer["lpbesov.block_norm_table.self_s"][0] == pytest.approx(1.0)
    assert layer["specialfun.zonal_series_blocks.terms"] == (12, "count")
    total = layer["cli.main.self_s"][0] + sum(
        layer[f"{name}.self_s"][0] for name in talbot.LAYERS[1:])
    assert total == pytest.approx(10.0)


def test_bindings_are_restored_after_a_run_and_after_an_error(tmp_path):
    bindings = talbot.bindings()
    originals = [_get(b.owner, b.key) for b in bindings]
    tracer = Tracer()
    with tracer.installed(bindings):
        assert all(_get(b.owner, b.key) is not o for b, o in zip(bindings, originals))
        _run_cli(SMALL_STUDIES[0], tmp_path, tracer)
    assert all(_get(b.owner, b.key) is o for b, o in zip(bindings, originals))
    with pytest.raises(RuntimeError):
        with tracer.installed(bindings):
            raise RuntimeError("study failed")
    assert all(_get(b.owner, b.key) is o for b, o in zip(bindings, originals))


def test_classmethod_binding_keeps_its_class_argument():
    class Table:
        @classmethod
        def build(cls, n):
            return cls, n

    tracer = Tracer()
    with tracer.installed([Binding(Table, "build", "gaunt.Table.build")]):
        assert Table.build(2) == (Table, 2)
    assert [s.name for s in tracer.spans] == ["gaunt.Table.build"]
    assert isinstance(vars(Table)["build"], classmethod)


def test_traced_pass_gives_untraced_headlines_and_reaches_every_layer(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for argv in SMALL_STUDIES:
        assert _run_cli(argv, plain) in (0, 1)
    tracer = Tracer()
    with tracer.installed(talbot.bindings()):
        for argv in SMALL_STUDIES:
            assert _run_cli(argv, traced, tracer) in (0, 1)
    assert len(_measured(plain)) == len(SMALL_STUDIES)
    assert _measured(traced) == _measured(plain)
    reached = {span.name.split(".")[0] for span in tracer.spans}
    assert reached == set(talbot.LAYERS)
    layer = talbot.layer_metrics(tracer.spans)
    n_max, grid = 255, 2048  # grid: max(512, 8 * 2**(j_max + 1))
    assert layer["specialfun.zonal_series_blocks.terms"][0] == 8 * (n_max + 1) * grid
    assert layer["expsum.weyl_block_sup.terms"][0] == 8 * sum(
        (n + 1) * 16 * n for n in (8, 16, 32))


def test_reference_check_names_the_headline_that_missed(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    study = talbot.WORKLOADS["torus-panels"][0]
    assert study.name == "quantize"
    assert _run_cli(list(study.argv), tmp_path) == 0
    assert talbot.check_study(study, 1729, str(tmp_path), ref) == []
    path = tmp_path / "quantize.json"
    summary = json.loads(path.read_text())
    summary["measured"].update(pairs=45, max_residual=math.nan)
    path.write_text(json.dumps(summary))
    misses = talbot.check_study(study, 1729, str(tmp_path), ref)
    assert any(m.startswith("quantize.pairs") for m in misses)
    assert any(m.startswith("quantize.max_residual") for m in misses)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sphere-quadrature",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["znls.eigh.calls"]["value"] == 2200
        assert result["metrics"]["gaunt.KappaTable.build.calls"]["value"] == 4
        assert "trace.overhead_s" in result["metrics"]


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "talbot.py", "tracer.py", "reference.json"):
        (tmp_path / "bench" / name).write_bytes((BENCH / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus-panels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
