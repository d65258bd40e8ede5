"""Command-line entry point: bench {synth,prepare,train,evaluate,report}."""

from __future__ import annotations

import argparse
import os
import sys

# BLAS on one thread unless the environment says otherwise, set before numpy
# loads it; the helper processes of `train` inherit it. `train` keeps every
# core busy with a run of its own, so BLAS threads only compete for them: on
# a 2-vCPU Xeon, a desk `train` of seed 0 took 10.5-34.9 s with OpenBLAS's
# default of a thread per core, and 4.0-4.8 s with one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import pipeline
from .config import BenchConfig, load_config, override, write_default_config
from .errors import BenchError, DataError

# flag destination -> the setting it overrides, parsed and checked as the
# INI key of that setting is
FLAGS = {
    "out": "data.synth_dir",
    "runs": "runs_dir",
    "hidden_sweep": "hidden_sweep",
    "target_mode": "train.target_mode",
    "beta": "calibration.beta",
    "no_calibration": "calibration.enabled",
}


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

    p = add("init-config", "write a config file holding every default")
    p.add_argument("--out", default="bench.ini")

    p = add("synth", "generate a synthetic R-peak corpus")
    p.add_argument("--out", help="output directory (default: data.synth_dir)")

    add("prepare", "derive HR, select theta, window, split, standardize")

    def add_grid_flags(p):
        p.add_argument("--runs", help="runs directory (default: train.runs_dir)")
        p.add_argument("--hidden-sweep", help="comma list of extra GRU-D hidden sizes (A3)")
        p.add_argument("--target-mode", help="forecast target space: residual or absolute (A4)")

    add_grid_flags(add("train", "train the (model x task x seed) grid"))

    p = add("evaluate", "score the grid's trained runs with grouped-bootstrap CIs")
    add_grid_flags(p)
    p.add_argument("--no-calibration", action="store_const", const="false",
                   help="evaluate with temperature fixed to 1 (A1)")
    p.add_argument("--beta", help="F-beta for threshold selection (A2)")

    p = add("report", "aggregate per-seed reports into mean +/- std tables")
    p.add_argument("--runs", help="runs directory (default: train.runs_dir)")
    return parser


def _load(args) -> BenchConfig:
    """The config file's settings, or the defaults, with the flags given."""
    config = load_config(args.config) if args.config else BenchConfig()
    for dest, setting in FLAGS.items():
        raw = getattr(args, dest, None)
        if raw is not None:
            try:
                config = override(config, setting, raw)
            except ValueError as exc:
                raise DataError(f"--{dest.replace('_', '-')} {raw!r}: {exc}") from None
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
            pipeline.run_synth(config)
        elif args.command == "prepare":
            pipeline.run_prepare(config)
        elif args.command == "train":
            pipeline.run_train(config)
        elif args.command == "evaluate":
            pipeline.run_evaluate(config)
        elif args.command == "report":
            pipeline.run_report(config.runs_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
