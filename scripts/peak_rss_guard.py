#!/usr/bin/env python3
"""Run a cubic M = 8 lattice through ``lelab run`` for 4 steps in a child
process and fail if the child's peak RSS is over 256 MB.

The state is the seeded effectively pure mixture over every shell, the
state of largest rank, so the run holds its largest n x r factor.

Usage: PYTHONPATH=src python scripts/peak_rss_guard.py
"""

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

M = 8
STEPS = 4
LIMIT_MB = 256


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "guard.json"
        cfg.write_text(json.dumps({
            "mode": "quantum",
            "lattice": {"M": M, "delta_k": 1.0},
            "potential": {"A": 0.2, "mu": 1.0},
            "initial_state": {"kind": "effectively-pure-mixed", "seed": 11},
            "time_grid": {"t_max": 5.0, "steps": STEPS},
        }))
        subprocess.run([sys.executable, "-m", "lelab.cli", "run", "--config", str(cfg),
                        "--out-dir", str(Path(tmp) / "out")], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"cubic M = {M}, {STEPS} steps: peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB} MB)")
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
