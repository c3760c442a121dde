"""Command-line front end: run, validate, and list scenario models.

Exit codes: 0 success, 2 bad configuration or output directory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenario import (
    ConfigError,
    NumericalFailure,
    list_models,
    parse_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoherence",
        description="Run decoherence simulation scenarios from .cfg files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("config", help="path to the scenario .cfg file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("config", help="path to the scenario .cfg file")

    sub.add_parser("models", help="list models and parameter schemas")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "models":
        print(list_models())
        return EXIT_OK

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"ok: scenario '{cfg.name}' (model {cfg.model})")
        return EXIT_OK

    if args.seed is not None:
        if args.seed < 0:
            print("config error: --seed must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
        cfg.seed = args.seed
    try:
        summary = run_scenario(cfg, out_dir=args.out)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"scenario": summary["scenario"],
                      "files": summary["files"]}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
