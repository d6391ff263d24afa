"""Command-line interface.

Subcommands:

* ``simulate``: run a JSON experiment config, write curve points as CSV.
* ``recipe``: print/write a preset config, optionally run it directly.
* ``closed-form``: sweep the closed-form NMSE expression.
* ``complexity``: sweep the operation-count models.
* ``verify``: run an acceptance suite; exit 1 when any check fails.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import analysis
from .errors import LinkSimError
from .harness import (
    CurvePoint,
    complexity_points,
    emit_csv,
    load_config,
    recipe,
    run_experiment,
    write_csv,
)
from .verification import DEFAULT_SEED, MUTATIONS, verify


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    """Parse ``name=v1,v2,...`` / ``name=start:stop[:step]`` / ``:xFACTOR``."""
    name, sep, body = spec.partition("=")
    if not sep or not name or not body:
        raise ValueError(f"sweep spec {spec!r} is not of the form name=values")
    if ":" in body:
        parts = body.split(":")
        if len(parts) == 2:
            start, stop, step = float(parts[0]), float(parts[1]), 1.0
            geometric = False
        elif len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            geometric = parts[2].startswith("x")
            step = float(parts[2][1:]) if geometric else float(parts[2])
        else:
            raise ValueError(f"sweep spec {spec!r} has too many ':' fields")
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"sweep bounds and step in {spec!r} must be finite")
        if step <= (1.0 if geometric else 0.0):
            raise ValueError(f"sweep step in {spec!r} must advance the sweep")
        if geometric and start <= 0:
            raise ValueError(f"geometric sweep {spec!r} must start above 0")
        values = []
        value = start
        while value <= stop * (1 + 1e-12):
            values.append(value)
            value = value * step if geometric else value + step
    else:
        values = [float(v) for v in body.split(",")]
    if not values:
        raise ValueError(f"sweep spec {spec!r} produced no values")
    return name, values


def _emit_or_print(points: list[CurvePoint], out: str | None) -> None:
    if out:
        emit_csv(points, out)
        print(f"wrote {len(points)} rows to {out}")
    else:
        write_csv(points, sys.stdout)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        cfg.validate()
    points = run_experiment(cfg, workers=args.workers)
    _emit_or_print(points, args.out or cfg.out)
    return 0


def _cmd_recipe(args) -> int:
    cfg = recipe(args.name)
    if args.config_out:
        with open(args.config_out, "w") as fh:
            json.dump(cfg.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote config to {args.config_out}")
    if args.out:
        points = run_experiment(cfg, workers=args.workers)
        emit_csv(points, args.out)
        print(f"wrote {len(points)} rows to {args.out}")
    if not args.config_out and not args.out:
        json.dump(cfg.to_dict(), sys.stdout, indent=2)
        print()
    return 0


def _integer_axis(name: str, value: float) -> int:
    """A sweep value on an integer axis, which must be a whole number."""
    if not value.is_integer():
        raise ValueError(f"{name} sweep values must be integers, got {value:g}")
    return int(value)


def _cmd_closed_form(args) -> int:
    name, values = _parse_sweep(args.sweep)
    if name not in ("m", "epsilon"):
        raise ValueError(f"closed-form sweeps support m or epsilon, not {name!r}")
    sigma2 = args.sigma2 if args.sigma2 is not None else 10.0 ** (-args.snr_db / 10.0)
    points = []
    for value in values:
        params = analysis.NmseParams(
            epsilon=value if name == "epsilon" else args.epsilon,
            n=args.n,
            l=args.l,
            l_cp=args.l_cp,
            m=_integer_axis(name, value) if name == "m" else args.m,
            sigma2=sigma2,
        )
        points.append(
            CurvePoint(
                x=float(value),
                metric="nmse_closed_form",
                mean=analysis.nmse_closed_form(params),
                ci95=0.0,
                trials=0,
            )
        )
    _emit_or_print(points, args.out)
    return 0


def _cmd_complexity(args) -> int:
    name, values = _parse_sweep(args.sweep)
    if name not in ("m", "l", "n_z"):
        raise ValueError(f"complexity sweeps support m, l or n_z, not {name!r}")
    n_p = args.n_p if args.n_p is not None else args.n
    points = []
    for value in values:
        axes = {"m": args.m, "l": args.l, "n_z": args.n_z, name: _integer_axis(name, value)}
        points += complexity_points(value, args.n, axes["l"], n_p, axes["m"], axes["n_z"])
    _emit_or_print(points, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify(
        args.suite, base_seed=args.seed, trials=args.trials, mutation=args.mutation
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risofdm",
        description="RIS-aided OFDM uplink link simulator: joint CFO and channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a JSON experiment config")
    p.add_argument("--config", required=True, help="path to JSON config")
    p.add_argument("--seed", type=int, help="override base_seed")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("recipe", help="preset experiment configurations")
    p.add_argument("name", choices=["fig2", "fig3", "fig4a", "fig4b"])
    p.add_argument("--config-out", help="write the preset config JSON here")
    p.add_argument("--out", help="run the preset and write CSV here")
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.set_defaults(func=_cmd_recipe)

    p = sub.add_parser("closed-form", help="sweep the closed-form NMSE")
    p.add_argument("--sweep", required=True, help="e.g. m=1:1024:x2 or epsilon=0,0.01,0.05")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--l", type=int, default=8)
    p.add_argument("--l-cp", type=int, default=10, dest="l_cp")
    p.add_argument("--snr-db", type=float, default=20.0, dest="snr_db")
    p.add_argument("--sigma2", type=float, help="noise variance (overrides --snr-db)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("complexity", help="sweep the operation-count models")
    p.add_argument("--sweep", required=True, help="e.g. m=1:1024:x2")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--l", type=int, default=102)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--n-z", type=int, default=4, dest="n_z")
    p.add_argument("--n-p", type=int, dest="n_p", help="pilot subcarriers (default: n)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("suite", choices=["closed_form", "exactness", "monotonicity", "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=5000)
    p.add_argument(
        "--mutation",
        choices=sorted(MUTATIONS),
        help="self-audit: rerun the exactness suite on a deliberately broken "
        "pipeline variant; the suite is expected to fail",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LinkSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
