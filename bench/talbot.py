"""What the benchmark knows about talbotlab: workloads, traced bindings,
per-layer metrics and the reference check of each study's outputs.

Importing this module imports talbotlab, so the caller puts ``src`` on
``sys.path`` and fixes the BLAS thread count first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from talbotlab import cli, evolve, fractal, gaunt, specialfun, strichartz, znls
from talbotlab import experiments as ex

from tracer import Binding, self_times

# The repo's modules, i.e. the benchmark's layers.  ``fitting`` is
# left untraced: it takes at most a few milliseconds per pass, so its
# time shows in the self time of whichever layer calls it.
LAYERS = ("cli", "experiments", "specialfun", "lpbesov", "evolve", "fractal",
          "expsum", "spectra", "gaunt", "strichartz", "znls")


@dataclass(frozen=True)
class Study:
    """One CLI run of a workload: output name, arguments, seeded or not."""

    name: str
    argv: tuple
    seeded: bool = False

    def command(self, seed: int, out_dir: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [*self.argv, *seed_args, "--out", out_dir]


# zonal-holder runs at n_max 4095 (j_max 11) instead of the acceptance
# 8191 (j_max 12): a full-size pass takes over 60 s on a 2-core box,
# more than one run may last.  The quarter-size pass does the same work
# per term in the same kernel.
WORKLOADS = {
    "sphere-holder": (
        Study("zonal-holder", ("zonal-holder", "--n-max", "2047", "--j-max", "10",
                               "--window", "2,10"), seeded=True),
    ),
    "torus-panels": (
        Study("quantize", ("quantize",)),
        Study("dimension-torus-step", ("dimension", "torus-step"), seeded=True),
        Study("dimension-torus-polygon", ("dimension", "torus-polygon"), seeded=True),
        Study("weyl", ("weyl",), seeded=True),
    ),
    "sphere-quadrature": (
        Study("kappa-table", ("kappa-table",)),
        Study("resonance", ("resonance",)),
        Study("strichartz", ("strichartz",)),
        Study("nls-smoothing", ("nls-smoothing",)),
        Study("specfun-check", ("specfun-check",)),
    ),
}


def _series_terms(coef, d, x, edges):
    return int(np.size(coef) * np.size(x))


def _weyl_terms(t, block_start, weights=None, damping=1.0, grid_factor=16):
    return (int(block_start) + 1) * int(grid_factor) * int(block_start)


def bindings() -> list[Binding]:
    """Every lookup site the traced run wraps.

    Drivers import kernels by name, so a kernel is wrapped in each
    module that looks it up; ``lpbesov`` and ``evolve`` call through
    the ``specialfun`` module and ``fractal.dim_t`` reads the box
    counters from ``fractal``'s globals.  ``np.linalg.eigh`` is called
    only from ``znls``.
    """
    drivers = [
        Binding(spec, "driver", f"experiments.{spec['driver'].__name__}")
        for spec in cli._SPECS.values()
    ]
    tables = [
        Binding(module, "zonal_harmonic_table", "specialfun.zonal_harmonic_table")
        for module in (ex, gaunt, strichartz, znls)
    ]
    return drivers + tables + [
        Binding(specialfun, "zonal_series_blocks", "specialfun.zonal_series_blocks",
                _series_terms),
        Binding(ex, "jacobi_symmetric", "specialfun.jacobi_symmetric"),
        Binding(ex, "jacobi_asymptotic", "specialfun.jacobi_asymptotic"),
        Binding(ex, "block_norm_table", "lpbesov.block_norm_table"),
        Binding(ex, "propagate_sphere", "evolve.propagate_sphere"),
        Binding(ex, "quantization_check", "evolve.quantization_check"),
        Binding(evolve, "propagate_torus", "evolve.propagate_torus"),
        Binding(fractal, "propagate_torus", "evolve.propagate_torus"),
        Binding(fractal, "evaluate_torus", "evolve.evaluate_torus"),
        Binding(ex, "dim_t", "fractal.dim_t"),
        Binding(fractal, "box_count_surface", "fractal.box_count_surface",
                lambda samples, k: 4**k),
        Binding(fractal, "box_count_curve", "fractal.box_count_curve",
                lambda samples, k: 2**k),
        Binding(ex, "weyl_block_sup", "expsum.weyl_block_sup", _weyl_terms),
        Binding(ex, "torus_step", "spectra.torus_step"),
        Binding(ex, "torus_polygon_indicator", "spectra.torus_polygon_indicator"),
        Binding(ex, "zonal_decay_family", "spectra.zonal_decay_family"),
        Binding(gaunt.KappaTable, "build", "gaunt.KappaTable.build"),
        Binding(ex, "count_unclassified", "gaunt.count_unclassified"),
        Binding(ex, "resonance_compare", "gaunt.resonance_compare"),
        Binding(ex, "bilinear_l2", "strichartz.bilinear_l2"),
        Binding(ex, "l4_norm_beam", "strichartz.l4_norm_beam"),
        Binding(ex, "solve", "znls.solve"),
        Binding(ex, "smoothing_residual", "znls.smoothing_residual"),
        Binding(np.linalg, "eigh", "znls.eigh"),
    ]


# Span name -> the aggregates reported for it: "s" is total duration,
# "self_s" duration minus child spans, "calls" the span count and
# "terms" the summed computed work count.
SPAN_METRICS = {
    "cli.main": ("s", "self_s"),
    "specialfun.zonal_series_blocks": ("s", "calls", "terms"),
    "specialfun.zonal_harmonic_table": ("s", "calls"),
    "lpbesov.block_norm_table": ("self_s",),
    "evolve.propagate_sphere": ("s",),
    "evolve.evaluate_torus": ("s",),
    "evolve.propagate_torus": ("s",),
    "evolve.quantization_check": ("s",),
    "spectra.torus_polygon_indicator": ("s",),
    "fractal.box_count_surface": ("s", "calls"),
    "fractal.box_count_curve": ("s",),
    "expsum.weyl_block_sup": ("s", "calls", "terms"),
    "znls.solve": ("self_s",),
    "znls.eigh": ("s", "calls"),
    "znls.smoothing_residual": ("s",),
    "gaunt.KappaTable.build": ("s", "calls"),
    "gaunt.count_unclassified": ("s",),
    "gaunt.resonance_compare": ("s",),
    "strichartz.bilinear_l2": ("s",),
    "strichartz.l4_norm_beam": ("s",),
    **{f"experiments.{cli._SPECS[study.name]['driver'].__name__}": ("s",)
       for studies in WORKLOADS.values() for study in studies},
}

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "terms": "count"}


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass, as name -> (value, unit)."""
    own = self_times(spans)
    totals: dict = {}
    for span, self_s in zip(spans, own):
        agg = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "terms": 0})
        agg["s"] += span.duration
        agg["self_s"] += self_s
        agg["calls"] += 1
        agg["terms"] += span.work or 0
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "terms": 0}
    out = {}
    for name, fields in SPAN_METRICS.items():
        agg = totals.get(name, empty)
        for field in fields:
            out[f"{name}.{field}"] = (agg[field], _UNITS[field])
    out["fractal.cells"] = (
        sum(totals.get(n, empty)["terms"]
            for n in ("fractal.box_count_surface", "fractal.box_count_curve")),
        "count",
    )
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = (
            sum((s for span, s in zip(spans, own) if span.name.split(".")[0] == layer), 0.0),
            "s",
        )
    return out


# --- reference check -------------------------------------------------

def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _same(got, want, rel_tol, abs_tol) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol)
    return got == want


def _limit_ok(value, relation: str, threshold: float) -> bool:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    return value < threshold if relation == "lt" else value >= threshold


def summary_sha256(out_dir: str, study: Study) -> str:
    with open(os.path.join(out_dir, study.name + ".json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_study(study: Study, seed: int, out_dir: str, ref: dict) -> list[str]:
    """Reasons the study's outputs miss the reference; empty if none.

    Exact integers must match; fitted slopes and medians must agree
    within the reference tolerance (seeded headlines only at the
    reference seed, since the panel's random times move them);
    roundoff-level headlines are held to their acceptance thresholds
    only.  Leading CSV rows that do not depend on the seed are compared
    value by value.
    """
    entry = ref["studies"][study.name]
    rel_tol, abs_tol = ref["rel_tol"], ref["abs_tol"]
    try:
        with open(os.path.join(out_dir, study.name + ".json"), encoding="ascii") as fh:
            summary = json.load(fh)
        rows = read_rows(os.path.join(out_dir, study.name + ".csv"))
    except (OSError, ValueError) as exc:
        return [f"{study.name}: unreadable output ({exc})"]
    measured = summary.get("measured", {})
    misses = []
    if summary.get("passed") is not True:
        misses.append(f"{study.name}: verdict not passed")
    for key, want in entry["exact"].items():
        if measured.get(key) != want:
            misses.append(f"{study.name}.{key}: {measured.get(key)!r} != {want!r}")
    if not study.seeded or seed == ref["seed"]:
        for key, want in entry["close"].items():
            got = measured.get(key)
            if got is None or not _same(got, want, rel_tol, abs_tol):
                misses.append(f"{study.name}.{key}: {got!r} not within tolerance of {want!r}")
    for key, (relation, threshold) in entry["limits"].items():
        if not _limit_ok(measured.get(key), relation, threshold):
            misses.append(f"{study.name}.{key}: {measured.get(key)!r} fails {relation} {threshold!r}")
    if len(rows) != entry["row_count"]:
        misses.append(f"{study.name}: {len(rows)} rows, expected {entry['row_count']}")
    for i, (got, want) in enumerate(zip(rows, entry["rows"])):
        bad = [k for k in want if not _same(got.get(k), _cell(want[k]), rel_tol, abs_tol)]
        if bad:
            misses.append(f"{study.name}: row {i} differs in {', '.join(bad)}")
    return misses


def headlines(out_dir: str, study: Study) -> dict:
    with open(os.path.join(out_dir, study.name + ".json"), encoding="ascii") as fh:
        return json.load(fh)["measured"]
