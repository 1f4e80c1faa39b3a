"""Command-line experiment driver.

Each subcommand runs one reproducible study and writes a CSV of row
data plus a JSON summary carrying the library version, the seed, the
effective configuration and its hash, the measured headline numbers,
and a pass/fail verdict against the study's fixed thresholds (recorded
under "criteria"); a value table a study builds goes next to it as a
JSON header and a CSV body.  This module writes every output file.
Summaries are strict JSON: a non-finite measured value is written as
null and named in the summary's "failure" key; any other non-finite
value, such as ``weyl --p nan``, is a configuration error.

A study's driver signature in ``experiments`` is its only parameter
list: what the study measures, never its thresholds.  Every driver
keyword is both a flag and a config-file key
(``n_max`` <-> ``--n-max``), parsed as its annotation says: tuples as
``a,b``, tuples of pairs as ``x0,y0;x1,y1``.  A flag is spelled out in
full (no prefix matching), and ``dimension <variant>`` takes only that
variant's flags.  A negative number written with an exponent needs the
``--flag=-1e-9`` form, because argparse reads a separate ``-1e-9`` as
an option.  A summary's config lists every driver parameter, defaults
included, so runs with equal effective parameters get equal config
hashes however their values were given; it records ``seed`` exactly
when the driver takes one.

Configuration precedence: built-in defaults, then a JSON config file
(``--config``), then explicit flags.  Outputs are never overwritten
unless ``--force`` is given; before any file is written, every output
path is checked and every output is checked to have rows.  Exit
status: 0 on pass, 1 on a failed verdict, 2 on usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import typing

from . import __version__, experiments
from .evolve import DEFAULT_PANEL_SEED

__all__ = ["main"]

# Subcommand -> driver; "dimension-<variant>" entries are the variants
# of the "dimension" subcommand.  Drivers are looked up here when a
# command runs, so a caller may wrap them after import.
_SPECS = {
    "specfun-check": {"driver": experiments.run_specialfun_checks},
    "kappa-table": {"driver": experiments.run_kappa_suite},
    "quantize": {"driver": experiments.run_quantization},
    "dimension-torus-step": {"driver": experiments.run_torus_step_dimension},
    "dimension-torus-polygon": {"driver": experiments.run_polygon_dimension},
    "weyl": {"driver": experiments.run_weyl_decay},
    "strichartz": {"driver": experiments.run_bilinear_contrast},
    "nls-smoothing": {"driver": experiments.run_nls_smoothing},
    "zonal-holder": {"driver": experiments.run_zonal_holder},
    "resonance": {"driver": experiments.run_resonance_decay},
}

_GROUP = "dimension"


class _UsageError(Exception):
    pass


def _converter(hint):
    """Flag text -> value, as the driver annotation ``hint`` says.

    A scalar type is its own parser, and ``tuple[X, Y]`` or
    ``tuple[X, ...]`` splits on "," (on ";" when the items are tuples
    themselves).
    """
    if typing.get_origin(hint) is not tuple:
        return hint
    args = typing.get_args(hint)
    variadic = args[-1] is Ellipsis
    items = [_converter(a) for a in (args[:1] if variadic else args)]
    sep = ";" if typing.get_origin(args[0]) is tuple else ","

    def convert(text: str) -> tuple:
        parts = [part for part in text.split(sep) if part != ""]
        if not variadic and len(parts) != len(items):
            raise ValueError(f"expected {len(items)} values")
        return tuple(items[0 if variadic else i](part) for i, part in enumerate(parts))

    convert.__name__ = str(hint)  # argparse names it in "invalid ... value"
    return convert


def _add_study(sp: argparse.ArgumentParser, study: str, driver) -> None:
    """Common flags plus one flag per driver parameter except ``seed``."""
    sp.set_defaults(study=study)
    sp.add_argument("--config", help="JSON config file (flat key map)")
    sp.add_argument("--out", default="results", help="output directory")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing outputs")
    sp.add_argument("--seed", type=int,
                    help=f"time-panel seed, recorded in every summary "
                         f"(default {DEFAULT_PANEL_SEED})")
    hints = typing.get_type_hints(driver)
    for param in inspect.signature(driver).parameters.values():
        if param.name != "seed":
            sp.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                            type=_converter(hints[param.name]),
                            help=f"{param.annotation} (default {param.default!r})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotlab",
        description="Spectral experiments: dispersive flows on the torus "
                    "and sphere, their graph dimensions, exponential sums, "
                    "Gaunt integrals, space-time norms, and the zonal cubic "
                    "NLS.",
    )
    sub = parser.add_subparsers()
    variants = None
    for name, spec in _SPECS.items():
        driver = spec["driver"]
        command, owner = name, sub
        if name.startswith(_GROUP + "-"):
            if variants is None:
                group = sub.add_parser(_GROUP, help="graph dimension experiments")
                variants = group.add_subparsers(dest="variant", required=True)
            command, owner = name[len(_GROUP) + 1:], variants
        summary = driver.__doc__.strip().splitlines()[0]
        # No prefix matching: "quantize --q 3" is not "--q-max 3".
        _add_study(owner.add_parser(command, help=summary, description=summary,
                                    allow_abbrev=False),
                   name, driver)
    return parser


def _effective_config(args: argparse.Namespace, driver) -> tuple[dict, int]:
    """Every driver keyword argument, in signature order, and the seed:
    flags over file over driver defaults."""
    params = inspect.signature(driver).parameters
    config = {key: p.default for key, p in params.items() if key != "seed"}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError("config must be a JSON object")
        bad = sorted(set(loaded) - set(params) - {"seed"})
        if bad:
            raise _UsageError(
                f"unknown config keys for {args.study}: {', '.join(bad)}"
            )
        config.update(loaded)
    for key in params:
        value = getattr(args, key, None)
        if key != "seed" and value is not None:
            config[key] = value
    file_seed = config.pop("seed", DEFAULT_PANEL_SEED)
    seed = int(file_seed) if args.seed is None else args.seed
    if "seed" in params:
        config["seed"] = seed
    return config, seed


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, rows) -> None:
    """Deterministic CSV: keys of the first row, repr-exact floats."""
    fields = list(rows[0].keys())
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in fields) + "\n")


def _summary(result, config: dict, seed: int, config_hash: str) -> dict:
    out = {
        "subcommand": result.name,
        "version": __version__,
        "seed": seed,
        "config": config,
        "config_hash": config_hash,
        # JSON has no NaN or inf: such a value is null, and
        # "failure" names it.
        "measured": {k: None if isinstance(v, float) and not math.isfinite(v) else v
                     for k, v in result.measured.items()},
        "criteria": result.criteria,
        "passed": result.passed,
    }
    if result.failure:
        out["failure"] = result.failure
    return out


def _write_outputs(result, config: dict, seed: int, args) -> None:
    bases = [os.path.join(args.out, stem) for stem in (result.name, *result.tables)]
    for path in (base + ext for base in bases for ext in (".csv", ".json")):
        if os.path.exists(path) and not args.force:
            raise _UsageError(f"refusing to overwrite {path} (use --force)")
    canonical = json.dumps(
        {"subcommand": result.name, "seed": seed, **config}, sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    # A header names its body relative to itself, however --out is spelled.
    outputs = [(_summary(result, config, seed, digest), result.rows)] + [
        ({**header, "body": stem + ".csv"}, rows)
        for stem, (header, rows) in result.tables.items()
    ]
    for base, (_, rows) in zip(bases, outputs):
        if not rows:
            raise ValueError(f"no rows to write to {base}.csv")
    # Serialized before the directory or any file is written: a NaN or
    # inf outside "measured" is a ValueError and leaves no outputs.
    texts = [json.dumps(head, indent=2, default=str, allow_nan=False)
             for head, _ in outputs]
    os.makedirs(args.out, exist_ok=True)
    status = "pass" if result.passed else "FAIL"
    print(f"{result.name}: {status}")
    if result.failure:
        print(f"  {result.failure}")
    for key, value in result.measured.items():
        print(f"  {key} = {value}")
    for base, text, (_, rows) in zip(bases, texts, outputs):
        _write_rows(base + ".csv", rows)
        with open(base + ".json", "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        print(f"  wrote {base}.csv, {base}.json")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "study", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    driver = _SPECS[args.study]["driver"]
    try:
        config, seed = _effective_config(args, driver)
        result = driver(**config)
        _write_outputs(result, config, seed, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
