#!/usr/bin/env python3
"""talbotlab benchmark: drives ``talbotlab.cli.main`` on one workload.

Run from the repository root:

    python3 bench/run.py --workload torus-panels --seed 1729 --seconds 36 --trace 0

With ``--trace 0`` it times passes (each pass runs the workload's
studies back to back, one caller, closed loop) and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  Every pass is checked
against ``bench/reference.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full report, with quartiles, sample counts, the environment and any
failures, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import talbotlab.cli; "
    "print(repr(time.perf_counter() - t))"
)


def prepare() -> int:
    """Cap BLAS threads at nproc and put ``src`` on the import path.

    Must run before numpy is imported.  Returns the thread count.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def setup_seconds(count: int) -> list[float]:
    """Import time of ``talbotlab.cli`` in ``count`` fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": blas_threads},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "seed": seed,
    }


def _warning_kind(message: str) -> str:
    if "aliases high frequencies" in message:
        return "evolve.alias_warnings"
    if "non-positive values" in message:
        return "expsum.dropped_warnings"
    return "other_warnings"


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exits: dict
    misses: dict
    headlines: dict
    sha256: dict
    output_bytes: int
    stdout: str
    warnings: dict
    tracer: object

    @property
    def traced(self) -> bool:
        return self.tracer is not None


def _call_cli(cli, argv, tracer):
    """Exit code of one CLI run, or the traceback if it raised."""
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main"):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a study that raises is a failed study run
        return traceback.format_exc()


def run_pass(talbot, studies, seed: int, ref: dict, tracer=None) -> Pass:
    """One pass over the workload's studies; traced when given a tracer."""
    from talbotlab import cli

    out_dir = WORK / f"{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    captured = io.StringIO()
    exits = {}
    patched = (tracer.installed(talbot.bindings()) if tracer is not None
               else contextlib.nullcontext())
    with patched, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        warnings.simplefilter("always")
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for study in studies:
            exits[study.name] = _call_cli(cli, study.command(seed, str(out_dir)), tracer)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    misses, heads, digests = {}, {}, {}
    for study in studies:
        if exits[study.name] != 0:
            misses[study.name] = [f"{study.name}: exit {exits[study.name]!r}"]
            continue
        misses[study.name] = talbot.check_study(study, seed, str(out_dir), ref)
        if not misses[study.name]:
            heads[study.name] = talbot.headlines(str(out_dir), study)
            digests[study.name] = talbot.summary_sha256(str(out_dir), study)
    kinds = {"evolve.alias_warnings": 0, "expsum.dropped_warnings": 0, "other_warnings": 0}
    for w in caught:
        kinds[_warning_kind(str(w.message))] += 1
    output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    shutil.rmtree(out_dir)
    cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    return Pass(wall, cpu, r1.ru_maxrss / 1024.0, exits, misses, heads, digests,
                output_bytes, captured.getvalue(), kinds, tracer)


def stats(values) -> dict:
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(talbot, workload: str, seed: int, seconds: float, trace: bool, ref: dict):
    """Passes until the next one would overrun ``seconds``; at least one
    pass, and in a traced run at least one untraced and one traced.

    An untraced run also samples set-up time before the first pass and
    after each pass, so the samples span the run as the passes do.
    """
    from tracer import Tracer

    studies = talbot.WORKLOADS[workload]
    passes, steps = [], []
    start = time.perf_counter()
    setup = [] if trace else setup_seconds(SETUP_SAMPLES)
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer(pass_id=len(passes)) if traced else None
        t0 = time.perf_counter()
        passes.append(run_pass(talbot, studies, seed, ref, tracer))
        if not trace:
            setup += setup_seconds(1)
        steps.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        if elapsed + statistics.median(steps) > seconds:
            break
    return passes, setup


def trace_metrics(talbot, passes) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced passes, with their stats.

    The first pass warms lazy imports and caches, so the untraced
    reference for the overhead leaves it out when there is another.
    """
    untraced = [p for p in passes if not p.traced]
    untraced = untraced[1:] or untraced
    traced = [p for p in passes if p.traced]
    samples: dict = {}
    units: dict = {}
    for p in traced:
        layer = talbot.layer_metrics(p.tracer.spans)
        main_s = layer["cli.main.s"][0]
        layer["trace.wall_s"] = (p.wall_s, "s")
        layer["trace.unattributed_s"] = (p.wall_s - main_s, "s")
        layer["trace.spans"] = (len(p.tracer.spans), "count")
        layer["cli.output_bytes"] = (p.output_bytes, "bytes")
        layer["cli.stdout_bytes"] = (len(p.stdout.encode()), "bytes")
        for kind, count in p.warnings.items():
            layer[kind] = (count, "count")
        for name, (value, unit) in layer.items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    samples["trace.untraced_wall_s"] = [p.wall_s for p in untraced]
    units["trace.untraced_wall_s"] = "s"
    samples["trace.overhead_s"] = [statistics.median(p.wall_s for p in traced) - untraced_wall]
    units["trace.overhead_s"] = "s"
    return samples, units


def check_traced_headlines(passes) -> None:
    """A traced pass must give the same headline values as an untraced one."""
    reference = next((p.headlines for p in passes if not p.traced), {})
    for p in passes:
        if not p.traced:
            continue
        for name, heads in p.headlines.items():
            if name in reference and heads != reference[name]:
                p.misses[name].append(f"{name}: traced headlines differ from untraced")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    ref_path = BENCH / "reference.json"
    if not (SRC / "talbotlab" / "cli.py").is_file():
        print(f"error: no talbotlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ref = json.loads(ref_path.read_text())
    blas_threads = prepare()
    import talbot

    if args.workload not in talbot.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(talbot.WORKLOADS)}")
    passes, setup = measure(talbot, args.workload, args.seed, args.seconds,
                     bool(args.trace), ref)
    if args.trace:
        check_traced_headlines(passes)
        samples, units = trace_metrics(talbot, passes)
        wanted = spec["per_layer"]
    else:
        samples = {
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "setup_s": setup,
            # Through the first pass only: later passes can grow the heap
            # without doing more work, and their number varies.
            "peak_rss_mb": [passes[0].peak_rss_mb],
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        wanted = spec["end_to_end"]
    attempted = sum(len(p.exits) for p in passes)
    failed = sum(1 for p in passes for found in p.misses.values() if found)
    report = {name: {**stats(values), "unit": units[name]}
              for name, values in samples.items()}
    metrics = {}
    for m in wanted:
        if m["name"] not in report or report[m["name"]]["unit"] != m["unit"]:
            print(f"error: metric {m['name']} ({m['unit']}) not measured", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": report[m["name"]]["median"], "unit": m["unit"]}
    misses = [m for p in passes for found in p.misses.values() for m in found]
    env = environment(args.seed, blas_threads)
    full = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "study_fail_frac": failed / attempted, "failures": misses,
        "metrics": report,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_traced": [p.traced for p in passes],
        "summary_sha256": {
            name: {"seen": sorted({p.sha256[name] for p in passes if name in p.sha256}),
                   "reference": ref["studies"][name]["sha256"]}
            for name in passes[0].exits
        },
        "stdout_first_pass": passes[0].stdout,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem.name}.spans.jsonl", "w", encoding="ascii") as fh:
            for p in passes:
                for record in p.tracer.records() if p.traced else ():
                    fh.write(json.dumps(record) + "\n")
    for name, r in report.items():
        print(f"{name} = {r['median']!r} {r['unit']}"
              f"  (median of {r['n']}; q1 {r['q1']!r}, q3 {r['q3']!r})")
    print(f"study_fail_frac = {failed / attempted!r} frac  ({failed} of {attempted} study runs)")
    for miss in misses:
        print(f"FAIL {miss}")
    print(f"environment: {json.dumps(env)}")
    print(f"report: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not misses, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
