"""Command-line entry point for the experiment harness.

    mhenet <tag> [--config FILE] [--out DIR] [--seed INT]

where <tag> is one of simulate, train, drift-eval, adapt, sweep or
converge.  Exit codes: 0 success, 1 configuration error (a bad command
line too), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from . import experiments
from .experiments import ConfigError, ExperimentConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhenet",
        description="Moving-horizon adaptation experiments for RNN plant models")
    sub = parser.add_subparsers(dest="tag", required=True, metavar="tag")
    for tag in experiments.TAGS:
        p = sub.add_parser(tag, help=f"run the '{tag}' experiment")
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config (defaults per tag otherwise)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, metavar="INT",
                       help="base seed (overrides the config)")
    return parser


def resolve_config(args) -> ExperimentConfig:
    if args.config is not None:
        config = load_config(args.config)
        if config.tag != args.tag:
            raise ConfigError(
                f"tag: config file says {config.tag!r}, command says {args.tag!r}")
    else:
        config = ExperimentConfig(tag=args.tag)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    try:   # argparse has printed its message; --help exits 0
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        config = resolve_config(args)
        manifest = experiments.run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        print(f"runtime failure in experiment {args.tag!r}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({"tag": manifest.tag, "out_dir": config.out_dir,
                      "config_hash": manifest.config_hash,
                      "metrics": manifest.metrics}, indent=1))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
