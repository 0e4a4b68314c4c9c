"""Command-line entry point.

Subcommands:
  run   --config PATH [--out-dir PATH]   run one experiment from a JSON config
  check                                  run the standalone invariant battery
  demo  NAME [--out-dir PATH]            run a named built-in config

Exit codes: 0 success, 2 config error, 3 invariant violation,
4 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, DimensionCapError, InvariantViolation, StateValidationError
from .harness import DEMO_CONFIGS, demo_config, run, run_invariant_checks

EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_DIMENSION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lelab",
        description="Exact density-matrix evolution with energy-shell reduction, "
        "effective entropy, and a classical phase-space analogue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out-dir", default=".", help="directory for CSV and summary")

    sub.add_parser("check", help="run the invariant spot-check battery")

    p_demo = sub.add_parser("demo", help="run a named built-in config")
    p_demo.add_argument("name", choices=sorted(DEMO_CONFIGS))
    p_demo.add_argument("--out-dir", default=".", help="directory for CSV and summary")
    return parser


def _print_summary(summary) -> None:
    print(f"wrote {summary.csv_path}")
    print(f"final effective entropy: {summary.final_effective_entropy:.6g}")
    if summary.final_purity is not None:
        print(f"final purity: {summary.final_purity:.12g}")
    if summary.final_mass is not None:
        print(f"final mass: {summary.final_mass:.12g}")
    status = "pass" if summary.all_checks_pass else "FAIL"
    print(f"invariant checks: {status}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            results = run_invariant_checks()
            for name, ok in results.items():
                print(f"{'ok  ' if ok else 'FAIL'} {name}")
            return 0 if all(results.values()) else EXIT_INVARIANT
        if args.command == "demo":
            cfg = demo_config(args.name)
        else:
            try:
                cfg = load_config(args.config)
            except (OSError, UnicodeDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        _print_summary(run(cfg, out_dir=args.out_dir))
        return 0
    except ConfigError as exc:
        for path, message in exc.errors:
            where = path or "config"
            print(f"config error: {where}: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (InvariantViolation, StateValidationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
