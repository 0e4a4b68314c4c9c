"""Command-line entry point.

Commands (``USAGE`` is the grammar, parsed here without argparse):
  run   --config PATH [--out-dir DIR]   run one experiment from a JSON config
  check                                 run the standalone invariant battery
  demo  NAME [--out-dir DIR]            run a named built-in config

Exit codes: 0 success (``-h``/``--help`` prints ``USAGE``), 2 usage or config
error (an unreadable ``--config``, or an ``--out-dir`` where the outputs
cannot be created or written, or a stdout that cannot be written: one
"output error" line), 3 invariant violation, 4 dimension cap exceeded.

``entry`` is the process entry of both ``lelab`` and ``python -m
lelab.cli``: it runs ``main``, then the atexit handlers, flushes the
standard streams and leaves by ``os._exit`` without interpreter teardown.
``main`` is the same command called in process; it returns the code.
"""

from __future__ import annotations

import atexit
import os
import sys

from .config import load_config
from .errors import ConfigError, DimensionCapError, InvariantViolation, StateValidationError
from .harness import DEMO_CONFIGS, demo_config, run, run_invariant_checks

EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_DIMENSION = 4

USAGE = ("usage: lelab run --config PATH [--out-dir DIR]\n       lelab check\n"
         f"       lelab demo {{{','.join(sorted(DEMO_CONFIGS))}}} [--out-dir DIR]\n")
_COMMANDS = {"run": {"--config": None, "--out-dir": "."}, "check": {},
             "demo": {"NAME": None, "--out-dir": "."}}


class _UsageError(Exception):
    """A command line outside ``USAGE``; the message is its error line."""


def _parse(argv) -> tuple[str, dict[str, str]]:
    """(command, values) of ``argv``: the command's ``_COMMANDS`` defaults (None
    for a required one), then each ``--opt VALUE`` or ``--opt=VALUE`` in order,
    and demo's one positional word as "NAME"; ("help", {}) if ``argv`` holds -h
    or --help.  _UsageError for a command line outside ``USAGE``."""
    if {"-h", "--help"} & set(argv):
        return "help", {}
    command, *words = list(argv) or [None]
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}" if command else "no command given")
    values = dict(_COMMANDS[command])
    while words:
        word = words.pop(0)
        key, eq, value = word.partition("=") if word.startswith("-") else ("NAME", "=", word)
        if key not in values or key == "NAME" and values[key] is not None:
            raise _UsageError(f"unrecognized argument {word!r}")
        if not eq and (not words or words[0].startswith("-")):
            raise _UsageError(f"option {key} needs a value")
        values[key] = value if eq else words.pop(0)
    missing = [key for key, value in values.items() if value is None]
    if missing or command == "demo" and values["NAME"] not in DEMO_CONFIGS:
        raise _UsageError(f"{command} needs {missing[0]}" if missing else f"unknown demo "
                          f"{values['NAME']!r} (choose from {', '.join(sorted(DEMO_CONFIGS))})")
    return command, values


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
    try:
        command, values = _parse(sys.argv[1:] if argv is None else argv)
        if command == "help":
            print(USAGE, end="")
            code = 0
        elif command == "check":
            results = run_invariant_checks()
            for name, ok in results.items():
                print(f"{'ok  ' if ok else 'FAIL'} {name}")
            code = 0 if all(results.values()) else EXIT_INVARIANT
        else:
            if command == "demo":
                cfg = demo_config(values["NAME"])
            else:
                try:
                    cfg = load_config(values["--config"])
                except (OSError, UnicodeDecodeError) as exc:
                    print(f"config error: {exc}", file=sys.stderr)
                    return EXIT_CONFIG
            _print_summary(run(cfg, out_dir=values["--out-dir"]))
            code = 0
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"{USAGE}lelab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    already reported, so its code is kept.  ``main`` returns a code for
    every outcome, a usage error included; an exception that escapes it
    anyway leaves through the normal shutdown."""
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
