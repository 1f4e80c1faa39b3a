"""Command-line experiment driver.

Each subcommand runs one reproducible study and writes a CSV of row
data plus a JSON summary, both named by the subcommand, the study's
only name.  The summary has the keys ``subcommand``, ``version``,
``config``, ``config_hash``, ``measured`` (the headline numbers),
``criteria`` (the study's fixed thresholds) and ``passed``.  A value
table a study builds goes next to it as a JSON header and a CSV body.
This module writes every output file.  Summaries are strict JSON: a
non-finite measured value is written as null and named in the
summary's "failure" key; any other non-finite value, such as
``weyl --p nan``, is a configuration error.

A study's driver signature in ``experiments`` is its only parameter
list: what the study measures, never its thresholds.  Every driver
keyword is both a flag and a config-file key (``n_max`` <->
``--n-max``), so only the panel studies (``zonal-holder``,
``dimension``, ``weyl``) take ``seed``.  The converter the annotation
selects parses every value, tuples as ``a,b``.  A config value is its
flag text or the JSON equivalent, so ``[2, 6]``, ``"2,6"`` and
``--window 2,6`` give one window; a value the converter refuses exits 2.  A flag is spelled out
in full (no prefix matching), and ``dimension <variant>`` takes only
that variant's flags.  A negative number with an exponent needs
``--flag=-1e-9``: argparse reads a separate ``-1e-9`` as an option.
A summary's config lists every driver parameter, defaults included,
so equal effective parameters give equal config hashes.

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
    ``tuple[X, ...]`` splits on ",".
    """
    if typing.get_origin(hint) is not tuple:
        return hint
    args = typing.get_args(hint)
    variadic = args[-1] is Ellipsis
    items = args[:1] if variadic else args

    def convert(text: str) -> tuple:
        parts = [part for part in text.split(",") if part != ""]
        if not variadic and len(parts) != len(items):
            raise ValueError(f"expected {len(items)} values")
        return tuple(items[0 if variadic else i](part) for i, part in enumerate(parts))

    convert.__name__ = str(hint)  # argparse names it in "invalid ... value"
    return convert


def _add_study(sp: argparse.ArgumentParser, study: str, driver) -> None:
    """Common flags plus one flag per driver parameter."""
    sp.set_defaults(study=study)
    sp.add_argument("--config", help="JSON config file (flat key map)")
    sp.add_argument("--out", default="results", help="output directory")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing outputs")
    hints = typing.get_type_hints(driver)
    for param in inspect.signature(driver).parameters.values():
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


def _flag_text(value) -> str:
    """The flag text a config-file value stands for: a string as given,
    another scalar as JSON writes it, a list joined as its tuple's flag."""
    if isinstance(value, list):
        return ",".join(_flag_text(item) for item in value)
    return value if isinstance(value, str) else json.dumps(value)


def _effective_config(args: argparse.Namespace, driver) -> dict:
    """Every driver keyword argument, in signature order: flags over
    file over driver defaults."""
    params = inspect.signature(driver).parameters
    config = {key: p.default for key, p in params.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError("config must be a JSON object")
        if bad := sorted(set(loaded) - set(params)):
            raise _UsageError(f"unknown config keys for {args.study}: {', '.join(bad)}")
        hints = typing.get_type_hints(driver)
        for key, value in loaded.items():
            text = _flag_text(value)
            try:
                config[key] = _converter(hints[key])(text)
            except ValueError:
                raise _UsageError(f"invalid config value for {key}: {text!r}")
    config.update((k, v) for k, v in vars(args).items() if k in params and v is not None)
    return config


def _write_rows(path, rows) -> None:
    """Deterministic CSV: keys of the first row, each value as ``str``
    writes it (the shortest round-trip text of a float)."""
    fields = list(rows[0].keys())
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in fields) + "\n")


def _summary(study: str, result, config: dict, config_hash: str) -> dict:
    out = {
        "subcommand": study,
        "version": __version__,
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


def _write_outputs(result, config: dict, args) -> None:
    """Every file of a run: the summary and rows of ``args.study``, named
    by that subcommand, and each value table of the result."""
    study = args.study
    bases = [os.path.join(args.out, stem) for stem in (study, *result.tables)]
    for path in (base + ext for base in bases for ext in (".csv", ".json")):
        if os.path.exists(path) and not args.force:
            raise _UsageError(f"refusing to overwrite {path} (use --force)")
    canonical = json.dumps({"subcommand": study, **config}, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    # A header names its body relative to itself, however --out is spelled.
    outputs = [(_summary(study, result, config, digest), result.rows)] + [
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
    print(f"{study}: {status}")
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
        config = _effective_config(args, driver)
        result = driver(**config)
        _write_outputs(result, config, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
