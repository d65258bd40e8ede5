"""Command-line entry point: bench {synth,prepare,train,evaluate,report}."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import pipeline
from .config import BenchConfig, load_config, write_default_config
from .errors import BenchError, DataError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Streaming heart-rate benchmark: tachycardia risk and one-step forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (defaults apply when omitted)")
        return p

    p = add("init-config", "write a default config file")
    p.add_argument("--out", default="bench.ini")

    p = add("synth", "generate a synthetic R-peak corpus")
    p.add_argument("--out", help="output directory (default: data.synth_dir)")

    add("prepare", "derive HR, select theta, window, split, standardize")

    def add_grid_flags(p):
        p.add_argument("--runs", help="runs directory (default: train.runs_dir)")
        p.add_argument("--hidden-sweep", help="comma list of extra GRU-D hidden sizes (A3)")
        p.add_argument("--target-mode", choices=["residual", "absolute"],
                       help="forecast target space (A4)")

    add_grid_flags(add("train", "train the (model x task x seed) grid"))

    p = add("evaluate", "score the grid's trained runs with grouped-bootstrap CIs")
    add_grid_flags(p)
    p.add_argument("--no-calibration", action="store_true",
                   help="evaluate with temperature fixed to 1 (A1)")
    p.add_argument("--beta", type=float, help="F-beta for threshold selection (A2)")

    p = add("report", "aggregate per-seed reports into mean +/- std tables")
    p.add_argument("--runs", help="runs directory (default: train.runs_dir)")
    return parser


def _load(args) -> BenchConfig:
    return load_config(args.config) if args.config else BenchConfig()


def _with_grid_flags(config: BenchConfig, args) -> BenchConfig:
    """Apply --hidden-sweep and --target-mode, which name the runs of the grid."""
    if args.hidden_sweep:
        try:
            sweep = tuple(int(v) for v in args.hidden_sweep.split(","))
            config = replace(config, hidden_sweep=sweep)
        except ValueError as exc:
            raise DataError(f"--hidden-sweep {args.hidden_sweep!r}: {exc}") from None
    if args.target_mode:
        config = replace(config, train=replace(config.train, target_mode=args.target_mode))
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            write_default_config(args.out)
            print(f"wrote {args.out}")
            return 0
        config = _load(args)
        if args.command == "synth":
            pipeline.run_synth(config, args.out)
        elif args.command == "prepare":
            pipeline.run_prepare(config)
        elif args.command == "train":
            pipeline.run_train(_with_grid_flags(config, args), args.runs)
        elif args.command == "evaluate":
            config = _with_grid_flags(config, args)
            if args.no_calibration:
                config = replace(config, calibration=replace(config.calibration, enabled=False))
            if args.beta is not None:
                config = replace(config, calibration=replace(config.calibration, beta=args.beta))
            pipeline.run_evaluate(config, args.runs)
        elif args.command == "report":
            runs = args.runs or config.runs_dir
            pipeline.run_report(runs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
