#!/usr/bin/env python3
"""Run three configs through ``lelab run``, each in its own child process,
and fail if a child's peak RSS is over its limit:

- a cubic M = 8 lattice for 4 steps, limit 256 MB.  The state is the seeded
  effectively pure mixture over every shell, the state of largest rank, so
  the run holds its largest n x r factor;
- a line lattice at its cap, N = 4096 (``basis.MAX_LINE_POINTS``), for 4
  steps, limit 800 MB.  It is one dense block, so the run holds the dense
  H and its eigenvectors; it peaked at 688.6 MB on a 2-CPU Xeon, in 52 s;
- a 2048 x 2048 classical grid (the ``MAX_GRID_CELLS`` cap) kicked from a
  single p row, for 4 steps, limit 64 MB.  A density holds only its support
  window, so this run must not hold a full grid.

Each child's peak is read on its own with ``os.wait4``; ``RUSAGE_CHILDREN``
would report the largest peak over all children.

Usage: PYTHONPATH=src python scripts/peak_rss_guard.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

M = 8
LINE_N = 4096
GRID_SIDE = 2048
STEPS = 4
LIMIT_MB = 256
LINE_LIMIT_MB = 800
CLASSICAL_LIMIT_MB = 64

QUANTUM = {
    "mode": "quantum",
    "lattice": {"M": M, "delta_k": 1.0},
    "potential": {"A": 0.2, "mu": 1.0},
    "initial_state": {"kind": "effectively-pure-mixed", "seed": 11},
    "time_grid": {"t_max": 5.0, "steps": STEPS},
}
LINE = {
    "mode": "quantum",
    "lattice": {"N": LINE_N, "delta_k": 1.0},
    "potential": {"A": 1.0, "mu": 1.0},
    "initial_state": {"kind": "pure-random", "seed": 3},
    "time_grid": {"t_max": 5.0, "steps": STEPS},
}
CLASSICAL = {
    "mode": "classical",
    "lattice": {"nq": GRID_SIDE, "np": GRID_SIDE, "dq": 2 * math.pi / GRID_SIDE,
                "dp": 6.4 / GRID_SIDE},
    "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
    "initial_state": {"kind": "single-p-row", "p0": 1.0},
    "time_grid": {"t_max": 2.0, "steps": STEPS},
}


def peak_mb(config: dict, tmp: Path) -> float:
    """Peak RSS in MB of one ``lelab run`` child on ``config``."""
    cfg = tmp / "guard.json"
    cfg.write_text(json.dumps(config))
    proc = subprocess.Popen([sys.executable, "-m", "lelab.cli", "run", "--config", str(cfg),
                             "--out-dir", str(tmp / "out")])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    ok = True
    for name, config, limit in ((f"cubic M = {M}", QUANTUM, LIMIT_MB),
                                (f"line N = {LINE_N}", LINE, LINE_LIMIT_MB),
                                (f"classical {GRID_SIDE}^2", CLASSICAL, CLASSICAL_LIMIT_MB)):
        with tempfile.TemporaryDirectory() as tmp:
            mb = peak_mb(config, Path(tmp))
        print(f"{name}, {STEPS} steps: peak RSS {mb:.1f} MB (limit {limit} MB)")
        ok &= mb <= limit
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
