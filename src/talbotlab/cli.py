"""Command-line experiment driver.

Each subcommand runs one reproducible study and writes a CSV of row
data plus a JSON summary carrying the library version, the seed, the
effective configuration and its hash, the measured headline numbers,
and a pass/fail verdict against the configured tolerances.

Configuration precedence: built-in defaults, then a JSON config file
(``--config``), then explicit flags.  Outputs are never overwritten
unless ``--force`` is given.  Exit status: 0 on pass, 1 on tolerance
failure, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import experiments
from .gaunt import KappaTable

__all__ = ["main"]


def _int_list(text: str):
    return [int(part) for part in text.split(",") if part != ""]


def _int_pair(text: str):
    parts = _int_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers")
    return parts


def _float_pair(text: str):
    parts = [float(p) for p in text.split(",") if p != ""]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return parts


def _vertices(text: str):
    pairs = []
    for chunk in text.split(";"):
        xy = [float(p) for p in chunk.split(",")]
        if len(xy) != 2:
            raise argparse.ArgumentTypeError(
                "vertices look like 'x0,y0;x1,y1;x2,y2'"
            )
        pairs.append(tuple(xy))
    return pairs


class UsageError(Exception):
    pass


# Subcommand registry: driver, allowed parameter keys, whether the
# driver takes the panel seed.
_SPECS = {
    "specfun-check": {
        "driver": experiments.run_specialfun_checks,
        "keys": ("ortho_n_max", "szego_degrees", "theta_points", "d", "ortho_tol"),
        "seeded": False,
    },
    "kappa-table": {
        "driver": experiments.run_kappa_suite,
        "keys": ("n_max", "dims", "scan_n_max", "nonneg_tol", "support_tol",
                 "parseval_tol"),
        "seeded": False,
    },
    "quantize": {
        "driver": experiments.run_quantization,
        "keys": ("m_max", "q_max", "tol", "p", "q"),
        "seeded": False,
    },
    "dimension-torus-step": {
        "driver": experiments.run_torus_step_dimension,
        "keys": ("m_max", "grid", "window", "expected", "tol"),
        "seeded": True,
    },
    "dimension-torus-polygon": {
        "driver": experiments.run_polygon_dimension,
        "keys": ("vertices", "m_max", "grid", "window", "expected", "tol"),
        "seeded": True,
    },
    "dimension-zonal": {
        "driver": experiments.run_zonal_dimension,
        "keys": ("p", "n_max", "grid", "window", "band"),
        "seeded": True,
    },
    "dimension-beam": {
        "driver": experiments.run_beam_dimension,
        "keys": ("degree", "grid", "window", "band"),
        "seeded": True,
    },
    "weyl": {
        "driver": experiments.run_weyl_decay,
        "keys": ("p", "exponent_range", "grid_factor", "expected", "tol"),
        "seeded": True,
    },
    "strichartz": {
        "driver": experiments.run_bilinear_contrast,
        "keys": ("p", "block_n", "m_blocks", "beam_degrees", "bilinear_tol",
                 "beam_expected", "beam_tol"),
        "seeded": False,
    },
    "nls-smoothing": {
        "driver": experiments.run_nls_smoothing,
        "keys": ("p", "n_max", "dt", "t_final", "sign", "s", "eps",
                 "fit_n_min", "mass_tol", "gain_min", "single_mode_dt",
                 "single_mode_tol"),
        "seeded": False,
    },
    "zonal-holder": {
        "driver": experiments.run_zonal_holder,
        "keys": ("p", "n_max", "j_max", "weight_exponent", "window",
                 "slope_tol"),
        "seeded": True,
    },
    "resonance": {
        "driver": experiments.run_resonance_decay,
        "keys": ("n2", "n3", "d", "degrees", "max_exponent"),
        "seeded": False,
    },
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flat key map)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    parser.add_argument("--seed", type=int, default=1729,
                        help="time-panel seed, recorded in every summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotlab",
        description="Spectral experiments: dispersive flows on the torus "
                    "and sphere, their graph dimensions, exponential sums, "
                    "Gaunt integrals, space-time norms, and the zonal cubic "
                    "NLS.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    sp = sub.add_parser("specfun-check", help="orthonormality and asymptotics")
    _add_common(sp)
    sp.add_argument("--ortho-n-max", dest="ortho_n_max", type=int)
    sp.add_argument("--szego-degrees", dest="szego_degrees", type=_int_list)
    sp.add_argument("--theta-points", dest="theta_points", type=int)
    sp.add_argument("--ortho-tol", dest="ortho_tol", type=float)

    sp = sub.add_parser("kappa-table", help="Gaunt integral suite and table")
    _add_common(sp)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--dims", type=_int_list)
    sp.add_argument("--scan-n-max", dest="scan_n_max", type=int)
    sp.add_argument("--parseval-tol", dest="parseval_tol", type=float)

    sp = sub.add_parser("quantize", help="rational-time translate identity")
    _add_common(sp)
    sp.add_argument("--m-max", dest="m_max", type=int)
    sp.add_argument("--q-max", dest="q_max", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)

    sp = sub.add_parser("dimension", help="graph dimension experiments")
    sp.add_argument("variant", choices=["torus-step", "torus-polygon",
                                        "zonal", "beam"])
    _add_common(sp)
    sp.add_argument("--m-max", dest="m_max", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--window", type=_int_pair)
    sp.add_argument("--expected", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--band", type=_float_pair)
    sp.add_argument("--vertices", type=_vertices)

    sp = sub.add_parser("weyl", help="Weyl block supremum decay")
    _add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--exponent-range", dest="exponent_range", type=_int_pair)
    sp.add_argument("--grid-factor", dest="grid_factor", type=int)
    sp.add_argument("--expected", type=float)
    sp.add_argument("--tol", type=float)

    sp = sub.add_parser("strichartz", help="bilinear vs beam quartic contrast")
    _add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--block-n", dest="block_n", type=int)
    sp.add_argument("--m-blocks", dest="m_blocks", type=_int_list)
    sp.add_argument("--beam-degrees", dest="beam_degrees", type=_int_list)
    sp.add_argument("--bilinear-tol", dest="bilinear_tol", type=float)
    sp.add_argument("--beam-expected", dest="beam_expected", type=float)
    sp.add_argument("--beam-tol", dest="beam_tol", type=float)

    sp = sub.add_parser("nls-smoothing", help="cubic NLS smoothing measurement")
    _add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-final", dest="t_final", type=float)
    sp.add_argument("--sign", type=int, choices=[-1, 1])
    sp.add_argument("--s", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--fit-n-min", dest="fit_n_min", type=int)
    sp.add_argument("--mass-tol", dest="mass_tol", type=float)
    sp.add_argument("--gain-min", dest="gain_min", type=float)

    sp = sub.add_parser("zonal-holder", help="weighted dyadic sup-norm trend")
    _add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--j-max", dest="j_max", type=int)
    sp.add_argument("--weight-exponent", dest="weight_exponent", type=float)
    sp.add_argument("--window", type=_int_pair)
    sp.add_argument("--slope-tol", dest="slope_tol", type=float)

    sp = sub.add_parser("resonance", help="kappa resonance asymptotics")
    _add_common(sp)
    sp.add_argument("--n2", type=int)
    sp.add_argument("--n3", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--degrees", type=_int_list)
    sp.add_argument("--max-exponent", dest="max_exponent", type=float)

    return parser


def _effective_config(name: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[name]
    allowed = set(spec["keys"])
    config: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        bad = sorted(set(loaded) - allowed - {"seed"})
        if bad:
            raise UsageError(
                f"unknown config keys for {name}: {', '.join(bad)}"
            )
        config.update(loaded)
    for key in spec["keys"]:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if "seed" in config:
        args.seed = int(config.pop("seed"))
    if spec["seeded"]:
        config["seed"] = args.seed
    return config


def _write_outputs(result, config: dict, args: argparse.Namespace) -> None:
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, result.name)
    csv_path = base + ".csv"
    json_path = base + ".json"
    for path in (csv_path, json_path):
        if os.path.exists(path) and not args.force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")
    canonical = json.dumps(
        {"subcommand": result.name, "seed": args.seed, **config},
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    experiments.write_rows(csv_path, result.rows)
    summary = result.summary(config=config, seed=args.seed, config_hash=digest)
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


def _write_kappa_tables(config: dict, args: argparse.Namespace) -> None:
    for d in config.get("dims", (2, 3)):
        table = KappaTable.build(config.get("n_max", 12), d)
        base = os.path.join(args.out, f"kappa-values-d{d}")
        jp, cp = base + ".json", base + ".csv"
        for path in (jp, cp):
            if os.path.exists(path) and not args.force:
                raise UsageError(f"refusing to overwrite {path} (use --force)")
        table.save(jp, cp)
        print(f"  wrote {jp}, {cp}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    name = args.subcommand
    if name == "dimension":
        name = f"dimension-{args.variant}"
    try:
        config = _effective_config(name, args)
        result = _SPECS[name]["driver"](**config)
        if _SPECS[name]["seeded"]:
            config = dict(config)  # seed already inside
        _write_outputs(result, config, args)
        if name == "kappa-table":
            _write_kappa_tables(config, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
