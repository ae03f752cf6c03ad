"""Command-line interface: ``payband run``, ``validate``, ``import`` and
``preset`` (README "Command line"). Exit codes: 0 success, 2 invalid
configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import harness, policies
from .environment import DatasetFormatError
from .model import most_that_fit

# The most classes an instance can have: the most arms a run fits at dim 1 and horizon 1.
MAX_CLASSES = most_that_fit(lambda n: harness.run_cells(policies.CHEAPEST_KIND, n, 1, 1))


def _int_at_least(low: int, high: Optional[int] = None):
    """An argparse type: the argument as an integer >= ``low`` (and <= ``high``)."""
    rule = f">= {low}" if high is None else f"in [{low}, {high}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be an integer {rule}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="payband",
        description="Incentivized-exploration bandit simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runs = argparse.ArgumentParser(add_help=False)  # the options of run and preset
    runs.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="maximum worker processes (>= 1)")
    runs.add_argument("--out", default=None, help="output directory override")

    run_p = sub.add_parser("run", help="run an experiment config", parents=[runs])
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("--config", required=True, help="path to a JSON config")

    val_p = sub.add_parser("validate", help="validate an experiment config")
    val_p.set_defaults(handler=_cmd_validate)
    val_p.add_argument("--config", required=True, help="path to a JSON config")

    imp_p = sub.add_parser("import", help="parse and summarize a dataset CSV")
    imp_p.set_defaults(handler=_cmd_import)
    imp_p.add_argument("--csv", required=True, help="path to the dataset CSV")
    imp_p.add_argument("--classes", required=True, type=_int_at_least(2, MAX_CLASSES),
                       help=f"number of classes (2 to {MAX_CLASSES})")
    imp_p.add_argument("--standardize", action="store_true",
                       help="z-score feature columns")
    imp_p.add_argument("--header", action="store_true",
                       help="skip the first row as a header")

    pre_p = sub.add_parser("preset", help="run a bundled experiment", parents=[runs])
    pre_p.set_defaults(handler=_cmd_preset)
    pre_p.add_argument("name", choices=list(harness.PRESETS))
    pre_p.add_argument("--dataset", default=None,
                       help="substitute a real dataset CSV (fig2-like only)")

    return parser


def _print_diagnostics(diags) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def _run(config, diags, args) -> int:
    """Run a loaded config and print where each strategy's curves went."""
    _print_diagnostics(diags)
    if config is None:
        return harness.EXIT_CONFIG_INVALID
    try:
        manifest = harness.run_experiment(config, jobs=args.jobs, out_dir=args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"run failed: {exc}", file=sys.stderr)
        return harness.EXIT_RUNTIME_FAILURE
    for entry in manifest["policies"]:
        print(f"{entry['label']}: {entry['aggregate']}")
    return harness.EXIT_OK


def _cmd_run(args) -> int:
    return _run(*harness.load_config_file(args.config), args)


def _cmd_validate(args) -> int:
    config, diags = harness.load_config_file(args.config)
    _print_diagnostics(diags)
    if config is None:
        return harness.EXIT_CONFIG_INVALID
    print("config valid")
    return harness.EXIT_OK


def _cmd_import(args) -> int:
    try:
        harness.import_dataset(args.csv, n_classes=args.classes,
                               standardize=args.standardize, has_header=args.header)
    except (OSError, DatasetFormatError, ValueError) as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return harness.EXIT_RUNTIME_FAILURE
    return harness.EXIT_OK


def _cmd_preset(args) -> int:
    config_path = harness.preset_config_path(args.name)
    if args.dataset is None:
        return _run(*harness.load_config_file(config_path), args)
    if args.name != "fig2-like":
        print("--dataset only applies to the fig2-like preset", file=sys.stderr)
        return harness.EXIT_CONFIG_INVALID
    data = json.loads(config_path.read_text())
    data["instance"]["context_source"]["path"] = args.dataset
    return _run(*harness.load_config_data(data), args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
