#!/usr/bin/env python3
"""Traced size-ladder sweep: per-layer cost against lattice size.

Runs once, outside the timed workloads.  Each point is one
``run.py --trace 1 --seconds 0`` child (a warm-up, then the minimum of
untraced and traced in-process runs) at the default seed; the sweep
records the child's wall time and peak RSS next to its per-layer values.

  cubic-yukawa    M = 1..5      (n = 27..1331)
  line-long       N = 64..1024
  classical-kick  64^2..1024^2
  bohr-sectors    M = 1..4; M = 5 is recorded as skipped, not failed: its
                  dense per-sector copies (149 of n^2 x 16 B at n = 1331)
                  would need about 4.2 GB.

Usage (from the repository root):

    python3 perfbench/ladder.py [--out .bench_build/perfbench/ladder.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run

LADDER = {
    "cubic-yukawa": (1, 2, 3, 4, 5),
    "line-long": (64, 128, 256, 512, 1024),
    "classical-kick": (64, 128, 256, 512, 1024),
    "bohr-sectors": (1, 2, 3, 4),
}
SKIPPED = {("bohr-sectors", 5): "149 dense per-sector copies at n = 1331: about 4.2 GB"}
POINT_TIMEOUT_S = 900.0
# Columns of the printed table, besides wall time and peak RSS.
SHOWN = ("basis.points", "dynamics.eigh_s", "dynamics.evolve_s", "states.validate_s",
         "states.global_entropy_s", "reduction.alpha_decompose_s", "koopman.free_flow_s",
         "harness.self_s")


def point(workload: str, size: int, out_dir: Path) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--size", str(size),
           "--seconds", "0", "--trace", "1"]
    wall, rss, code = run.run_process(cmd, None, out_dir, POINT_TIMEOUT_S)
    lines = (out_dir / "stdout.txt").read_text().strip().splitlines()
    if code != 0 or not lines:
        return {"workload": workload, "size": size, "status": f"exit code {code}",
                "stderr": run.tail_of(out_dir / "stderr.txt")}
    result = json.loads(lines[-1])
    return {
        "workload": workload, "size": size,
        "status": "ok" if result["correct"] else "failed check",
        "wall_s": wall, "peak_rss_mb": rss, "attempted": result["attempted"],
        "failed": result["failed"],
        "layers": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(run.BUILD / "ladder.json"))
    args = parser.parse_args(argv)
    work = run.BUILD / "ladder"
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(run.SRC))

    points = []
    print("workload size wall_s peak_rss_mb " + " ".join(SHOWN))
    for workload, sizes in LADDER.items():
        for size in sizes:
            out_dir = work / f"{workload}-{size}"
            out_dir.mkdir(exist_ok=True)
            p = point(workload, size, out_dir)
            points.append(p)
            layers = p.get("layers", {})
            print(f"{workload} {size} {p.get('wall_s', float('nan')):.2f} "
                  f"{p.get('peak_rss_mb', float('nan')):.0f} "
                  + " ".join(f"{layers.get(k, float('nan')):.4g}" for k in SHOWN)
                  + ("" if p["status"] == "ok" else f"  {p['status']}"), flush=True)
    for (workload, size), why in SKIPPED.items():
        points.append({"workload": workload, "size": size, "status": "skipped", "why": why})
        print(f"{workload} {size} skipped: {why}")
    Path(args.out).write_text(json.dumps({
        "provenance": run.provenance(), "when": time.strftime("%Y-%m-%d", time.gmtime()),
        "points": points,
    }, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(p["status"] in ("ok", "skipped") for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
