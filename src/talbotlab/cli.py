"""Command-line experiment driver.

Each subcommand runs one reproducible study and writes a CSV of row
data plus a JSON summary carrying the library version, the seed, the
effective configuration and its hash, the measured headline numbers,
and a pass/fail verdict against the configured tolerances.

A study's driver signature in ``experiments`` is its only parameter
list.  Every driver keyword is both a flag and a config-file key
(``n_max`` <-> ``--n-max``), parsed as its annotation says: tuples as
``a,b``, tuples of pairs as ``x0,y0;x1,y1``.  ``dimension <variant>``
takes only that variant's flags.  A negative number written with an
exponent needs the ``--flag=-1e-9`` form, because argparse reads a
separate ``-1e-9`` as an option.  A study records ``seed`` in its
config exactly when its driver takes one.

Configuration precedence: built-in defaults, then a JSON config file
(``--config``), then explicit flags.  Outputs are never overwritten
unless ``--force`` is given, and every output path is checked before
any file is written.  Exit status: 0 on pass, 1 on tolerance failure,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import typing

from . import experiments

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
    "dimension-zonal": {"driver": experiments.run_zonal_dimension},
    "dimension-beam": {"driver": experiments.run_beam_dimension},
    "weyl": {"driver": experiments.run_weyl_decay},
    "strichartz": {"driver": experiments.run_bilinear_contrast},
    "nls-smoothing": {"driver": experiments.run_nls_smoothing},
    "zonal-holder": {"driver": experiments.run_zonal_holder},
    "resonance": {"driver": experiments.run_resonance_decay},
}

_GROUP = "dimension"
_DEFAULT_SEED = 1729


class UsageError(Exception):
    pass


def _converter(hint):
    """Flag text -> value, as the driver annotation ``hint`` says.

    ``X | None`` parses as X, a scalar type is its own parser, and
    ``tuple[X, Y]`` or ``tuple[X, ...]`` splits on "," (on ";" when the
    items are tuples themselves).
    """
    args = typing.get_args(hint)
    if type(None) in args:
        return _converter(next(a for a in args if a is not type(None)))
    if typing.get_origin(hint) is not tuple:
        return hint
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
                         f"(default {_DEFAULT_SEED})")
    hints = typing.get_type_hints(driver)
    for param in inspect.signature(driver).parameters.values():
        if param.name != "seed":
            sp.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                            type=_converter(hints[param.name]),
                            help=f"{param.annotation} (default {param.default!r})")


def build_parser() -> argparse.ArgumentParser:
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
        _add_study(owner.add_parser(command, help=summary, description=summary),
                   name, driver)
    return parser


def _effective_config(args: argparse.Namespace, driver) -> tuple[dict, int]:
    """The driver's keyword arguments and the seed, flags over file."""
    params = inspect.signature(driver).parameters
    config: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        bad = sorted(set(loaded) - set(params) - {"seed"})
        if bad:
            raise UsageError(
                f"unknown config keys for {args.study}: {', '.join(bad)}"
            )
        config.update(loaded)
    for key in params:
        value = getattr(args, key, None)
        if key != "seed" and value is not None:
            config[key] = value
    file_seed = config.pop("seed", _DEFAULT_SEED)
    seed = int(file_seed) if args.seed is None else args.seed
    if "seed" in params:
        config["seed"] = seed
    return config, seed


def _write_outputs(result, config: dict, seed: int, args) -> None:
    os.makedirs(args.out, exist_ok=True)
    bases = [os.path.join(args.out, stem) for stem in (result.name, *result.tables)]
    for path in (base + ext for base in bases for ext in (".csv", ".json")):
        if os.path.exists(path) and not args.force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")
    csv_path, json_path = bases[0] + ".csv", bases[0] + ".json"
    canonical = json.dumps(
        {"subcommand": result.name, "seed": seed, **config}, sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    experiments.write_rows(csv_path, result.rows)
    summary = result.summary(config=config, seed=seed, config_hash=digest)
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, default=str)
        fh.write("\n")
    status = "pass" if result.passed else "FAIL"
    print(f"{result.name}: {status}")
    if result.failure:
        print(f"  {result.failure}")
    for key, value in result.measured.items():
        print(f"  {key} = {value}")
    print(f"  wrote {csv_path}, {json_path}")
    for base, table in zip(bases[1:], result.tables.values()):
        table.save(base + ".json", base + ".csv")
        print(f"  wrote {base}.json, {base}.csv")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "study", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    driver = _SPECS[args.study]["driver"]
    try:
        config, seed = _effective_config(args, driver)
        result = driver(**config)
        _write_outputs(result, config, seed, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
