"""Command-line front end: run, sweep, and validate scenario files."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import (merge_scenario, results_to_csv, results_to_table,
                     run_scenario, sweep, sweep_to_plot_data,
                     validate_scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uccfsim",
        description="Link-level Monte-Carlo simulator for user-centric "
                    "cell-free OFDM networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads (results are identical)")
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--format", choices=("csv", "table", "plot"),
                       default="table")

    run_p = sub.add_parser("run", help="run one scenario")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    common(sweep_p)
    sweep_p.add_argument("--param", required=True,
                         help="dotted scenario path, e.g. topology.noise_variance")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values (JSON literals)")
    sweep_p.add_argument("--metric", default="sum_rate",
                         help="aggregate metric for plot output")
    sweep_p.add_argument("--independent-seeds", action="store_true",
                         help="derive a fresh seed per point instead of "
                              "common random numbers")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario", help="scenario JSON file")
    return parser


def load_scenario(path: str, args) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read scenario file: {exc}")
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: scenario file is not valid JSON: {exc}")
    if not isinstance(overrides, dict):
        raise SystemExit("error: scenario file must hold a JSON object")
    scenario = merge_scenario(overrides)
    if getattr(args, "seed", None) is not None:
        scenario["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        scenario["trials"] = args.trials
    return scenario


def emit(name: str, text: str, out_dir):
    if out_dir:
        try:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            (path / name).write_text(text)
        except OSError as exc:
            raise SystemExit(f"error: cannot write output: {exc}")
        print(f"wrote {path / name}")
    else:
        print(text)


def parse_values(raw: str) -> list:
    values = []
    for item in raw.split(","):
        item = item.strip()
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = load_scenario(args.scenario, args)
    errors = validate_scenario(scenario)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("scenario ok")
        return 0

    if args.command == "run":
        result = run_scenario(scenario, workers=args.workers)
        if args.format == "csv":
            emit("results.csv", results_to_csv(result), args.out)
        elif args.format == "plot":
            agg = result["aggregate"]["sum_rate"]
            text = "x,mean,ci_lo,ci_hi\n" + (
                f"0,{agg['mean']:.9g},{agg['ci_lo']:.9g},{agg['ci_hi']:.9g}\n")
            emit("plot_data.csv", text, args.out)
        else:
            emit("summary.txt", results_to_table(result), args.out)
        return 0

    if args.command == "sweep":
        values = parse_values(args.values)
        try:
            points = sweep(scenario, args.param, values, workers=args.workers,
                           common_random=not args.independent_seeds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.format == "csv":
            blocks = []
            for point in points:
                blocks.append(f"# {args.param} = {point['value']}")
                blocks.append(results_to_csv(point["result"]))
            emit("results.csv", "\n".join(blocks), args.out)
        elif args.format == "plot":
            rows = sweep_to_plot_data(points, args.metric)
            text = "x,mean,ci_lo,ci_hi\n" + "".join(
                f"{x},{m:.9g},{lo:.9g},{hi:.9g}\n" for x, m, lo, hi in rows)
            emit("plot_data.csv", text, args.out)
        else:
            lines = []
            for point in points:
                lines.append(f"=== {args.param} = {point['value']} ===")
                lines.append(results_to_table(point["result"]))
            emit("summary.txt", "\n".join(lines), args.out)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
