"""Command line entry point: ``lab <experiment> --config <path>``.

Exit codes: 0 when the run completed and every asserted invariant held,
2 when the run completed but an invariant was violated (details are in
the written report), and 1 for configuration or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import BilliardLabError, ConfigError
from .experiments import (EXPERIMENTS, ExperimentConfig, apply_overrides,
                          run_experiment, write_report)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as configuration errors."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lab",
        description="Run a reproducible billiard/Diophantine experiment and "
                    "write CSV tables, a JSON report, and a manifest.")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                        help="which experiment pipeline to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON configuration file")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a configuration entry; dotted keys "
                             "descend into sub-objects (repeatable)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ConfigError("configuration must be a JSON object")
        obj = apply_overrides(obj, args.override)
        config = ExperimentConfig.from_json_obj(obj, experiment=args.experiment)
    except (ConfigError, OSError) as exc:
        print(f"lab: configuration error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"lab: configuration error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_experiment(config)
    except (BilliardLabError, ValueError) as exc:
        print(f"lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        files = write_report(report, config.out_dir)
    except OSError as exc:
        print(f"lab: cannot write report: {exc}", file=sys.stderr)
        return 1
    print(f"experiment: {report.experiment}")
    for note in report.notes:
        print(f"note: {note}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"outputs: {config.out_dir} ({', '.join(files)})")
    print(f"invariants: {'passed' if report.passed else 'VIOLATED'}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
