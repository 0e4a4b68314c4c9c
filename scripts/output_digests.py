#!/usr/bin/env python3
"""Print one sha256 line per deterministic output of lelab, so that two
checkouts can be compared output by output:

- the CSV and summary JSON of each built-in demo;
- the stdout of ``lelab check``;
- ``trace.csv`` and ``summary.json`` of the cubic-yukawa, line-long and
  classical-kick benchmark configs at seed 0 and their benchmark sizes,
  built by ``perfbench/workloads.make_config``;
- the JSON of ``perfbench/bohr_driver.drive`` at cubic M = 1 and 3, for
  seeds 0 and 7.

Each summary is rewritten without its ``wall_time_s``, the one value that
differs between reruns, before it is hashed.  Each line is
``<sha256>  <name>``, sorted by name.  With ``--out-dir`` the outputs are
kept there under those names, for a cell-by-cell comparison.

Usage: PYTHONPATH=src python scripts/output_digests.py [--out-dir DIR]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lelab import cli
from lelab.config import validate_config
from lelab.harness import DEMO_CONFIGS, demo_config, run

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import bohr_driver  # noqa: E402
import workloads  # noqa: E402

TRACE_WORKLOADS = ("cubic-yukawa", "line-long", "classical-kick")
BOHR_RUNS = ((1, 0), (1, 7), (3, 0), (3, 7))  # (M, seed)


def write_outputs(out: Path) -> None:
    """Write every output into ``out``, under the name its digest line shows."""
    for name in DEMO_CONFIGS:
        run(demo_config(name), out_dir=out / "demo")
    for w in TRACE_WORKLOADS:
        cfg = workloads.make_config(w, 0, workloads.BENCH_SIZE[w])
        run(validate_config(json.dumps(cfg)), out_dir=out / w)
    for m, seed in BOHR_RUNS:
        cfg = workloads.make_config("bohr-sectors", seed, m)
        result = bohr_driver.drive(json.dumps(cfg))
        (out / f"bohr-M{m}-seed{seed}.json").write_text(json.dumps(result))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["check"])
    if code != 0:
        raise SystemExit(f"lelab check exited {code}")
    (out / "check.txt").write_text(stdout.getvalue())
    for path in out.glob("*/*summary.json"):
        summary = json.loads(path.read_text())
        del summary["wall_time_s"]
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def digests(out: Path) -> list[str]:
    """``<sha256>  <name>`` of the check output, the CSVs, the summaries and the
    driver JSON."""
    files = [out / "check.txt", *out.glob("*/*.csv"), *out.glob("*/*summary.json"),
             *out.glob("*.json")]
    names = sorted(p.relative_to(out).as_posix() for p in files)
    return [f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}" for n in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out_dir or tmp)
        out.mkdir(parents=True, exist_ok=True)
        write_outputs(out)
        print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
