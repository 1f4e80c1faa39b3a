#!/usr/bin/env python3
"""Regenerate bench/reference.json: every study's outputs at the reference seed.

Run from the repository root:  python3 bench/make_reference.py

It runs each workload's studies once, untraced, and freezes their
headline values, the seed-independent leading CSV rows and the summary
SHA-256 (a diagnostic only).  Rerun it only when a change is meant to
move a headline value, and say so in the change.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import run

run.prepare()

import talbot  # noqa: E402  (needs src on sys.path)
from talbotlab import cli, evolve  # noqa: E402

BENCH = run.BENCH

SEED = 1729
REL_TOL = 1e-6
ABS_TOL = 1e-9
EXACT = ("pairs", "d2_unclassified", "d3_unclassified")
# Roundoff-level headlines: held to their acceptance thresholds only.
LIMITS = {
    "max_residual": ("lt", 1e-8),
    "mass_drift": ("lt", 1e-8),
    "single_mode_error": ("lt", 1e-10),
    "d2_parseval_max": ("lt", 1e-8),
    "d3_parseval_max": ("lt", 1e-8),
    "d2_support_max": ("lt", 1e-10),
    "d3_support_max": ("lt", 1e-10),
    "d2_min_entry": ("ge", -1e-10),
    "d3_min_entry": ("ge", -1e-10),
    "orthonormality_defect": ("lt", 1e-10),
}


def _raw_rows(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def main() -> int:
    out_dir = BENCH / ".work" / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    studies = {}
    panel_size = len(evolve.time_panel(SEED))
    for workload in talbot.WORKLOADS.values():
        for study in workload:
            with redirect_stdout(io.StringIO()):
                rc = cli.main(study.command(SEED, str(out_dir)))
            if rc != 0:
                print(f"{study.name} exited {rc}", file=sys.stderr)
                return 1
            measured = talbot.headlines(str(out_dir), study)
            rows = _raw_rows(out_dir / f"{study.name}.csv")
            row_count = len(rows)
            if study.seeded:
                # Panel order: fixed irrational times first, then seeded draws.
                per_time = len(rows) // panel_size
                rows = rows[: per_time * len(evolve.TIME_PANEL_BASE)]
            studies[study.name] = {
                "seeded": study.seeded,
                "exact": {k: v for k, v in measured.items() if k in EXACT},
                "close": {k: v for k, v in measured.items()
                          if k not in EXACT and k not in LIMITS},
                "limits": {k: LIMITS[k] for k in measured if k in LIMITS},
                "headlines": measured,
                "row_count": row_count,
                "rows": rows,
                "sha256": talbot.summary_sha256(str(out_dir), study),
            }
    shutil.rmtree(out_dir)
    ref = {"seed": SEED, "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "studies": studies}
    with open(BENCH / "reference.json", "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
