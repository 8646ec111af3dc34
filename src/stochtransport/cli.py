"""Command-line entry point.

Subcommands mirror the experiment kinds; a ``validate`` subcommand checks a
config without running anything.  Every flag overrides the matching config
field, so a JSON config file is a complete reproduction recipe and the flags
are one-off tweaks on top of it.  Every subcommand takes every flag, and
validate refuses a field that the kind does not read unless it holds its
default, so an unread field cannot reach the config hash: a manifest's
``config`` object is itself such a file, with the same hash.

Exit codes: 0 all gated checks passed, 1 a check failed, 2 usage or config
error, 3 numeric failure inside a run.
"""

import argparse
import json
import sys
from dataclasses import fields

from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    ResolutionError,
    StochTransportError,
)
from .experiments import KINDS, ExperimentConfig, run, validate

_NUMERIC_ERRORS = (ConvergenceError, NumericError, ResolutionError)


def _parse_params(pairs):
    """['lam=0.5', 'a=1'] -> {'lam': 0.5, 'a': 1.0}; bad pairs raise ValueError."""
    out = {}
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value, got {item!r}")
        out[key] = float(raw)
    return out


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="JSON config file; flags override its fields")
    p.add_argument("--q", type=int, help="noise order (1 or 2)")
    p.add_argument("--H", type=float, help="Hurst index in (1/2, 1)")
    p.add_argument("--T", type=float, help="time horizon")
    p.add_argument("--n", type=int, help="number of lattice steps")
    p.add_argument("--drift", help="drift preset name")
    p.add_argument("--drift-param", action="append", metavar="KEY=VAL",
                   help="drift preset parameter (repeatable)")
    p.add_argument("--u0", help="initial-datum preset name")
    p.add_argument("--u0-param", action="append", metavar="KEY=VAL",
                   help="u0 preset parameter (repeatable)")
    p.add_argument("--paths", type=int, help="Monte Carlo ensemble size")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--eps", action="append", type=float, metavar="EPS",
                   dest="eps_schedule",
                   help="regularization width; repeat for a schedule")
    p.add_argument("--s", type=float, help="window start time")
    p.add_argument("--t", type=float, help="window end time (default T)")
    p.add_argument("--x0", type=float, help="spatial evaluation point")
    p.add_argument("--dx", type=float, help="spatial quadrature step")
    p.add_argument("--mollifier-eps", type=float,
                   help="weak-form regularization width")
    p.add_argument("--threads", type=int,
                   help="worker threads (0 = hardware parallelism)")
    p.add_argument("--out", dest="out_dir",
                   help="output directory for artifacts")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochtransport",
        description="Simulation and verification experiments for transport "
                    "driven by Hermite-class noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        _add_common_flags(p)
    v = sub.add_parser("validate", help="check a config without running it")
    v.add_argument("--kind", choices=KINDS, help="experiment kind override")
    _add_common_flags(v)
    return parser


def _config_from_args(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
    data["kind"] = kind or data.get("kind", "")
    for f in fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            data[f.name] = getattr(args, f.name)
    if args.drift_param:
        data["drift_params"] = _parse_params(args.drift_param)
    if args.u0_param:
        data["u0_params"] = _parse_params(args.u0_param)
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    checking = args.command == "validate"
    try:
        config = _config_from_args(
            args, (args.kind or "") if checking else args.command)
    except (DomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # validate is the one gate: the validate subcommand reports on stdout,
    # a refused run on stderr.
    diags = validate(config)
    for d in diags:
        print(f"invalid: {d}", file=sys.stdout if checking else sys.stderr)
    if diags:
        return 2
    if checking:
        print("config OK")
        return 0

    try:
        manifest = run(config)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except StochTransportError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2

    for line in manifest.summary_lines():
        print(line)
    print(f"artifacts: {config.out_dir}/ "
          f"({', '.join(manifest.files)})")
    print(f"wall clock: {manifest.wall_clock_s:.2f}s")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
