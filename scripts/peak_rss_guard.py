#!/usr/bin/env python3
"""Run four configs through ``lelab run`` and the Bohr-sector library path
once, each in its own child process, and fail if a child's peak RSS is
over its limit:

- a cubic M = 8 lattice for 4 steps, limit 256 MB.  The state is the seeded
  effectively pure mixture over every shell, the state of largest rank, so
  the run holds its largest n x r factor;
- a line lattice at its cap, N = 4096 (``basis.MAX_LINE_POINTS``), for 4
  steps, limit 800 MB.  It is one dense block, so the run holds the dense
  H and its eigenvectors; it peaked at 688.6 MB on a 2-CPU Xeon, in 52 s;
- a 2048 x 2048 classical grid (the ``MAX_GRID_CELLS`` cap) kicked from a
  single p row, for 4 steps, limit 64 MB.  A density holds only its support
  window, so this run must not hold a full grid;
- a line of N = 1024 points (pure-random, seed 3) at the largest step count
  that the trace-cell cap (``config.MAX_TRACE_CELLS``) admits, 9698 steps
  of 1031 columns, limit 100 MB.  A run streams its rows to the CSV and keeps
  none, so it peaks as a 4-step run does: 83 MB on a 2-CPU Xeon, where
  keeping the rows took it to 148 MB;
- the Bohr-sector path at cubic M = 5 (``bohr_sectors``), limit 200 MB:
  ``alpha_decompose`` of a frozen rho(t), a ``np.linalg.norm`` sweep over
  its ``components``, ``reconstruct``, ``free_phase_law``, and
  ``DensityMatrix(m)`` with one free evolve.  A frozen matrix is held, not
  copied, no n x n label or mask array is built, and ``DensityMatrix(m)``
  forms no n x n temporary for this rank-45 rho(t): it peaked at 125.8 MB
  on a 2-CPU Xeon; 149.6 MB with an n x n mask per sector matrix and an
  n x n Cholesky buffer and residual, and 230.6 MB when each of
  ``alpha_decompose`` and ``DensityMatrix`` also copied the matrix and a
  whole int64 label matrix was held.

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
BOHR_M = 5
LONG_N = 1024
LONG_STEPS = 9698  # (9698 + 1) * (7 + 1024) cells: one step more is over the cap
LIMIT_MB = 256
LINE_LIMIT_MB = 800
CLASSICAL_LIMIT_MB = 64
LONG_LIMIT_MB = 100
BOHR_LIMIT_MB = 200

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
LONG = dict(LINE, lattice={"N": LONG_N, "delta_k": 1.0},
            time_grid={"t_max": 5.0, "steps": LONG_STEPS})
CLASSICAL = {
    "mode": "classical",
    "lattice": {"nq": GRID_SIDE, "np": GRID_SIDE, "dq": 2 * math.pi / GRID_SIDE,
                "dp": 6.4 / GRID_SIDE},
    "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
    "initial_state": {"kind": "single-p-row", "p0": 1.0},
    "time_grid": {"t_max": 2.0, "steps": STEPS},
}
BOHR = {
    "mode": "quantum",
    "lattice": {"M": BOHR_M, "delta_k": 1.0},
    "potential": {"A": 0.2, "mu": 1.0},
    "initial_state": {"kind": "effectively-pure-mixed", "seed": 11},
    "time_grid": {"t_max": 2.5, "steps": 1},
}


def bohr_sectors(config_path: str) -> None:
    """The Bohr-sector path on rho(t_max) of the config; runs in a child."""
    import numpy as np
    from lelab import config, dynamics, harness, reduction, states

    cfg = config.validate_config(Path(config_path).read_text())
    basis = harness.build_quantum_basis(cfg)
    pot, t = cfg.potential, cfg.time_grid.t_max
    h = dynamics.build_hamiltonian(basis, pot.coupling, pot.screening)
    m = h.propagator.evolve(harness.build_initial_state(cfg, basis), t).matrix  # read-only
    dec = reduction.alpha_decompose(m, basis)
    norms = [float(np.linalg.norm(c)) for c in dec.components]
    # disjoint sectors: the norms of the sectors have the matrix's norm
    if not (np.array_equal(dec.reconstruct(), m)
            and abs(np.linalg.norm(norms) - np.linalg.norm(m)) <= 1e-12):
        raise AssertionError("the Bohr sectors do not tile the matrix")
    free = dynamics.build_hamiltonian(basis, 0.0, pot.screening)
    err = np.abs(reduction.free_phase_law(dec, t) - free.propagator.evolve(states.DensityMatrix(m), t).matrix).max()
    if not err <= 1e-10:
        raise AssertionError(f"free_phase_law is off free evolution by {err:.3e}")


def peak_mb(config: dict, tmp: Path, bohr: bool = False) -> float:
    """Peak RSS in MB of one child on ``config``: ``lelab run``, or with
    ``bohr`` the ``bohr_sectors`` function of this script."""
    cfg = tmp / "guard.json"
    cfg.write_text(json.dumps(config))
    if bohr:
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                f"import peak_rss_guard; peak_rss_guard.bohr_sectors({str(cfg)!r})")
        argv = [sys.executable, "-c", code]
    else:
        argv = [sys.executable, "-m", "lelab.cli", "run", "--config", str(cfg),
                "--out-dir", str(tmp / "out")]
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    ok = True
    for name, config, limit in ((f"cubic M = {M}, {STEPS} steps", QUANTUM, LIMIT_MB),
                                (f"line N = {LINE_N}, {STEPS} steps", LINE, LINE_LIMIT_MB),
                                (f"classical {GRID_SIDE}^2, {STEPS} steps", CLASSICAL,
                                 CLASSICAL_LIMIT_MB),
                                (f"line N = {LONG_N}, {LONG_STEPS} steps", LONG, LONG_LIMIT_MB),
                                (f"Bohr sectors, cubic M = {BOHR_M}", BOHR, BOHR_LIMIT_MB)):
        with tempfile.TemporaryDirectory() as tmp:
            mb = peak_mb(config, Path(tmp), bohr=config is BOHR)
        print(f"{name}: peak RSS {mb:.1f} MB (limit {limit} MB)")
        ok &= mb <= limit
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
