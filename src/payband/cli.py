"""Command-line interface.

Subcommands:
    run       execute a JSON experiment config and write CSV curves
    validate  check a config and print diagnostics
    import    parse a dataset CSV and print a summary
    preset    run a bundled experiment configuration

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .environment import DatasetFormatError


def _int_at_least(low: int):
    """An argparse type: the argument as an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="payband",
        description="Incentivized-exploration bandit simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="maximum worker processes (>= 1)")
    run_p.add_argument("--out", default=None, help="output directory override")

    val_p = sub.add_parser("validate", help="validate an experiment config")
    val_p.add_argument("--config", required=True, help="path to a JSON config")

    imp_p = sub.add_parser("import", help="parse and summarize a dataset CSV")
    imp_p.add_argument("--csv", required=True, help="path to the dataset CSV")
    imp_p.add_argument("--classes", required=True, type=_int_at_least(2),
                       help="number of classes (>= 2)")
    imp_p.add_argument("--standardize", action="store_true",
                       help="z-score feature columns")
    imp_p.add_argument("--header", action="store_true",
                       help="skip the first row as a header")

    pre_p = sub.add_parser("preset", help="run a bundled experiment")
    pre_p.add_argument("name", choices=list(harness.PRESET_NAMES))
    pre_p.add_argument("--dataset", default=None,
                       help="substitute a real dataset CSV (fig2-like only)")
    pre_p.add_argument("--out", default=None, help="output directory override")
    pre_p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="maximum worker processes (>= 1)")

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
    try:
        config_path = harness.preset_config_path(args.name)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return harness.EXIT_CONFIG_INVALID
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
    handler = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "import": _cmd_import,
        "preset": _cmd_preset,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
