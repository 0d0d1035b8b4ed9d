"""Command-line interface: run, sweep, compare, psd, windgen.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, windfield
from .codec import decode
from .harness import ExperimentConfig, Seeds
from .spectral import welch_psd


def _load_config(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_json(path) if path else ExperimentConfig()
    updates = {key: value for key, value in (
        ("mode", overrides.mode), ("controller", overrides.controller),
        ("mean_wind", overrides.mean_wind), ("duration", overrides.duration))
        if value is not None}
    if overrides.duration is not None and (
            config.eval_start_s >= overrides.duration):
        # Keep the metric window valid for short runs.
        updates["eval_start_s"] = overrides.duration / 4.0
    if overrides.seed is not None:
        updates["seeds"] = _seeds(overrides.seed)
    return replace(config, **updates)


def _seeds(seed: int) -> Seeds:
    """The run seeds `--seed n` sets: wind n, noise n+1, excitation n+2."""
    return decode(Seeds, {"wind": seed, "noise": seed + 1,
                          "excitation": seed + 2}, "seeds")


def _cmd_run(args: argparse.Namespace) -> None:
    config = _load_config(args.config, args)
    record = harness.run_experiment(config)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.controller}_{config.mode}_{config.mean_wind:g}"
    harness.export_csv(record, str(outdir / f"{stem}.csv"))
    harness.export_json(record, str(outdir / f"{stem}.json"))
    print(json.dumps(record.metrics, indent=2))


def _cmd_sweep(args: argparse.Namespace) -> None:
    base = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        base = ExperimentConfig.from_dict(data)
        for key in harness.SWEPT_FIELDS:
            if key in data:
                raise ValueError(f"{key}: set per cell by the sweep grid, "
                                 f"not by the base config")
    seeds = base.seeds if args.seed is None else _seeds(args.seed)
    table = {"modes": list(harness.SWEEP_MODES),
             "speeds": list(harness.SWEEP_SPEEDS),
             "reductions": {c: {} for c in args.controllers},
             "pitch_variance": {c: {} for c in args.controllers}}
    # Every config is built, and so checked, before the first run.
    grid = []
    for cell in harness.sweep_configs("none", seeds, base):
        try:
            grid.append((cell, [replace(cell, controller=c)
                                for c in args.controllers]))
        except ValueError as exc:
            raise ValueError(f"{exc} (cell {cell.mode} at "
                             f"{cell.mean_wind:g} m/s)") from None
    # Cell by cell, so that no earlier cell's records are kept.
    for cell, controlled in grid:
        baseline = harness.run_experiment(cell)
        label = f"{cell.mode}@{cell.mean_wind}"
        for c, config in zip(args.controllers, controlled):
            record = harness.run_experiment(config)
            table["reductions"][c][label] = harness.variance_reduction(
                baseline, record)["pooled"]
            table["pitch_variance"][c][label] = float(
                np.mean(harness.actuator_duty(record)))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep_table.json", "w") as fh:
        json.dump(table, fh, indent=2)
    print(json.dumps(table["reductions"], indent=2))


def _cmd_compare(args: argparse.Namespace) -> None:
    baseline = harness.run_experiment(ExperimentConfig.from_json(args.baseline))
    controlled = harness.run_experiment(
        ExperimentConfig.from_json(args.controlled))
    result = {
        "variance_reduction": harness.variance_reduction(baseline, controlled),
        "actuator_duty": harness.actuator_duty(controlled),
    }
    print(json.dumps(result, indent=2))


def _cmd_psd(args: argparse.Namespace) -> None:
    with open(args.series) as fh:
        names = [name.strip() for name in fh.readline().split(",")]
    if args.column not in names:
        raise ValueError(f"column {args.column!r} not found in {args.series}")
    series = np.loadtxt(args.series, delimiter=",", skiprows=1,
                        usecols=names.index(args.column), ndmin=1)
    freqs, power = welch_psd(series, args.rate, segment_length=args.segment)
    np.savetxt(sys.stdout, np.column_stack([freqs, power]), fmt="%.6g",
               delimiter=",", header="frequency_hz,power", comments="")


def _cmd_windgen(args: argparse.Namespace) -> None:
    mode = windfield.GridMode.from_label(args.mode)
    series = windfield.generate(mode, args.mean, args.duration, args.rate,
                                args.seed)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / f"wind_{args.mode}_{args.mean:g}_{args.seed}.csv",
               np.column_stack([series.time(), series.samples]),
               fmt=["%.6f", "%.9g"], delimiter=",", newline="\r\n",
               header="time,speed", comments="")
    stats = harness.wind_stats(series)
    with open(outdir / f"wind_{args.mode}_{args.mean:g}_{args.seed}.json",
              "w") as fh:
        json.dump(stats, fh, indent=2)
    print(json.dumps(stats, indent=2))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. It is built on first use: a parser
    holds reference cycles, so one built per `main` call would stay in
    memory until the cyclic collector ran."""
    parser = argparse.ArgumentParser(prog="sprclab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--mode", choices=[m.label for m in windfield.GridMode])
    run.add_argument("--controller", choices=harness.CONTROLLERS)
    run.add_argument("--mean-wind", dest="mean_wind", type=float)
    run.add_argument("--duration", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--output", default="out")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run the 12-cell grid")
    sweep.add_argument("--config", help="JSON base config")
    sweep.add_argument("--controllers", nargs="+",
                       default=["cipc", "sprc-1p2p"],
                       choices=[c for c in harness.CONTROLLERS if c != "none"])
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--output", default="out")
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser("compare", help="compare two configs")
    compare.add_argument("baseline")
    compare.add_argument("controlled")
    compare.set_defaults(func=_cmd_compare)

    psd = sub.add_parser("psd", help="Welch PSD of a CSV column")
    psd.add_argument("series")
    psd.add_argument("--column", default="y1")
    psd.add_argument("--rate", type=float, default=200.0)
    psd.add_argument("--segment", type=int)
    psd.set_defaults(func=_cmd_psd)

    windgen = sub.add_parser("windgen", help="generate a wind series")
    windgen.add_argument("--mode", default="lidar",
                         choices=[m.label for m in windfield.GridMode])
    windgen.add_argument("--mean", type=float, default=5.0)
    windgen.add_argument("--duration", type=float, default=120.0)
    windgen.add_argument("--rate", type=float, default=200.0)
    windgen.add_argument("--seed", type=int, default=0)
    windgen.add_argument("--output", default="out")
    windgen.set_defaults(func=_cmd_windgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # Before ValueError: LinAlgError is one of its subclasses.
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
