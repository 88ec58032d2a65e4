"""Command line front end: matpow-lab <experiment> --config <path>."""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError
from .config import EXPERIMENT_NAMES, load_config
from .runner import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpow-lab",
        description="Run a bound-checking experiment grid and write CSV plus "
                    "JSON summary outputs.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment name; see --list-experiments")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, help="process count (overrides config)")
    parser.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
    parser.add_argument("--timings", action="store_true",
                        help="record wall time per instance (breaks byte "
                             "determinism across runs)")
    parser.add_argument("--list-experiments", action="store_true",
                        help="print the experiment names and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_experiments:
        print("\n".join(EXPERIMENT_NAMES))
        return 0
    if not args.experiment or not args.config:
        print("matpow-lab: need an experiment name and --config PATH "
              "(see --help)", file=sys.stderr)
        return 2
    overrides = {"experiment": args.experiment}
    if args.out is not None:
        overrides["out"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as err:
        print(f"matpow-lab: config error: {err}", file=sys.stderr)
        return 2
    return run_experiment(cfg, timings=args.timings)


if __name__ == "__main__":
    raise SystemExit(main())
