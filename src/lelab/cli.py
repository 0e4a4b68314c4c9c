"""Command-line entry point.

Subcommands:
  run   --config PATH [--out-dir PATH]   run one experiment from a JSON config
  check                                  run the standalone invariant battery
  demo  NAME [--out-dir PATH]            run a named built-in config

Exit codes: 0 success, 2 config error (an unreadable ``--config``, or an
``--out-dir`` where the outputs cannot be created or written, or a stdout
that cannot be written: one "output error" line), 3 invariant violation,
4 dimension cap exceeded.

``entry`` is the process entry of both ``lelab`` and ``python -m
lelab.cli``: it runs ``main``, then the atexit handlers, flushes the
standard streams and leaves by ``os._exit`` without interpreter teardown.
``main`` is the same command called in process; it returns the code.
"""

from __future__ import annotations

import argparse
import atexit
import os
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
            code = 0 if all(results.values()) else EXIT_INVARIANT
        else:
            if args.command == "demo":
                cfg = demo_config(args.name)
            else:
                try:
                    cfg = load_config(args.config)
                except (OSError, UnicodeDecodeError) as exc:
                    print(f"config error: {exc}", file=sys.stderr)
                    return EXIT_CONFIG
            _print_summary(run(cfg, out_dir=args.out_dir))
            code = 0
        sys.stdout.flush()
        return code
    except OSError as exc:  # creating --out-dir, writing into it, or writing stdout
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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


def entry():
    """Run ``main()`` as the whole process and exit with its code.

    Once ``main`` returns, the atexit handlers run (``atexit._run_exitfuncs``
    is the call CPython's own shutdown makes: each handler once, then the
    list is cleared), stdout and stderr are flushed and the process leaves
    by ``os._exit``.  That skips interpreter teardown, whose module clearing
    and full collections walk the ~22,000 objects the imports made (README,
    start-up).  Nothing else is left to do: lelab starts no Python thread,
    and every file it opens is closed by a ``with`` block before ``main``
    returns.  A flush that fails is an unwritable stdout that ``main`` has
    already reported, so its code is kept.  An exception that escapes
    ``main`` (``SystemExit`` from argparse included) leaves through the
    normal shutdown."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
