"""Workload inputs, the output checker and the stored references.

Every workload is a function of (seed, size): the seed draws the
initial-state seed (or the classical start row), the size picks the
lattice.  Work per run does not depend on the seed, so timings from
different seeds are comparable.  Steps are fixed per workload; the size
alone scales a run, which is what the size ladder varies.

The checker applies the README's own tolerances to every run and, where
a reference is stored for the inputs, compares the trace with it to
1e-9: a rewrite that only changes roundoff passes, one that changes the
physics fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
REFERENCE_TOL = 1e-9

# README tolerances.
PURITY_DRIFT_TOL = 1e-10
EFFECTIVELY_PURE_TOL = 1e-9
GROWTH_MIN = 1e-4
NO_MIXING_TOL = 1e-9
MASS_TOL = 1e-6
FREE_PHASE_TOL = 1e-10

# Why each workload exists, and which layers it stresses.
WHY = {
    "cubic-yukawa": "headline physics: degenerate cubic lattice, Yukawa mixing; "
    "LAPACK-bound and setup-heavy, where the time-grid thread pool competes with BLAS",
    "line-long": "same layers, opposite mix: small matrices, many rows, 256 one-member "
    "shells and a wide CSV, so per-row cost dominates and setup is small",
    "classical-kick": "classical grid: only koopman and harness run, so quantum-side "
    "changes must show no change here",
    "bohr-sectors": "library driver for the Bohr-sector API, which lelab run never "
    "calls: dense per-sector copies set its memory and time",
}
WORKLOADS = tuple(WHY)
# Lattice size of the timed runs and of the smoke test: M (cubic,
# bohr-sectors), N (line) or grid side (classical).
BENCH_SIZE = {"cubic-yukawa": 3, "line-long": 256, "classical-kick": 1024, "bohr-sectors": 3}
TINY_SIZE = {"cubic-yukawa": 1, "line-long": 16, "classical-kick": 64, "bohr-sectors": 1}
STEPS = {"cubic-yukawa": 8, "line-long": 20, "classical-kick": 10, "bohr-sectors": 2}


def is_driver(workload: str) -> bool:
    """True for the library-driver workload, False for `lelab run` ones."""
    return workload == "bohr-sectors"


def make_config(workload: str, seed: int, size: int, setup: bool = False) -> dict:
    """The lelab config for one run; ``setup`` cuts it to one time step."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    steps = 1 if setup and not is_driver(workload) else STEPS[workload]
    outputs = {"csv": "trace.csv", "summary": "summary.json"}
    if workload in ("cubic-yukawa", "bohr-sectors"):
        return {
            "mode": "quantum",
            "lattice": {"M": size, "delta_k": 1.0},
            "potential": {"A": 0.2, "mu": 1.0},
            "initial_state": {"kind": "effectively-pure-mixed", "seed": int(rng.integers(2**31))},
            "time_grid": {"t_max": 5.0, "steps": steps},
            "outputs": outputs,
        }
    if workload == "line-long":
        return {
            "mode": "quantum",
            "lattice": {"N": size, "delta_k": 1.0},
            "potential": {"A": 1.0, "mu": 1.0},
            "initial_state": {"kind": "pure-random", "seed": int(rng.integers(2**31))},
            "time_grid": {"t_max": 10.0, "steps": steps},
            "outputs": outputs,
        }
    if workload == "classical-kick":
        # Same physical grid at every size: q in [0, 2 pi), p in [-3.2, 3.2];
        # a 0.3 kick from p0 <= 1.5 stays far inside it.
        return {
            "mode": "classical",
            "lattice": {"nq": size, "np": size, "dq": 2 * math.pi / size, "dp": 6.4 / size},
            "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
            "initial_state": {"kind": "single-p-row", "p0": float(0.5 + rng.random())},
            "time_grid": {"t_max": 2.0, "steps": steps},
            "outputs": outputs,
        }
    raise KeyError(f"unknown workload {workload!r}")


def read_result(workload: str, out_dir: Path) -> dict:
    """The numbers a run produced, as plain lists, for checking and references."""
    if is_driver(workload):
        return json.loads((out_dir / "driver.json").read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    lines = (out_dir / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {
        "all_checks_pass": summary["all_checks_pass"],
        "columns": {name: rows[:, j].tolist() for j, name in enumerate(header)},
    }


def physics_problems(workload: str, cfg: dict, result: dict) -> list[str]:
    """Violations of the README tolerances in one run's result."""
    if is_driver(workload):
        return _driver_problems(cfg, result)
    problems = []
    if not result["all_checks_pass"]:
        problems.append("summary reports a failed invariant check")
    cols = {k: np.array(v) for k, v in result["columns"].items()}
    steps = cfg["time_grid"]["steps"]
    expected_t = np.linspace(0.0, cfg["time_grid"]["t_max"], steps + 1)
    if len(cols["t"]) != steps + 1 or not np.array_equal(cols["t"], expected_t):
        problems.append(f"time column is not the {steps + 1}-point grid")
        return problems
    if workload == "classical-kick":
        defect = np.abs(cols["mass"] - 1.0).max()
        if not defect <= MASS_TOL:
            problems.append(f"mass defect {defect:.3e} > {MASS_TOL}")
        return problems
    s_eff = cols["S_eff"]
    drift = np.abs(cols["tr_rho2"] - cols["tr_rho2"][0]).max()
    if not drift <= PURITY_DRIFT_TOL:
        problems.append(f"purity drift {drift:.3e} > {PURITY_DRIFT_TOL}")
    shell_sum = sum(v for k, v in cols.items() if k.startswith("S_E_"))
    if not np.abs(shell_sum - s_eff).max() <= REFERENCE_TOL:
        problems.append("S_eff is not the sum of the S_E_* columns")
    if workload == "cubic-yukawa":
        if not s_eff[0] <= EFFECTIVELY_PURE_TOL:
            problems.append(f"S_eff(0) = {s_eff[0]:.3e} > {EFFECTIVELY_PURE_TOL}")
        if not s_eff.max() - s_eff[0] > GROWTH_MIN:
            problems.append(f"S_eff growth {s_eff.max() - s_eff[0]:.3e} <= {GROWTH_MIN}")
    if workload == "line-long" and not s_eff.max() <= NO_MIXING_TOL:
        problems.append(f"max S_eff {s_eff.max():.3e} > {NO_MIXING_TOL} on a nondegenerate line")
    return problems


def _driver_problems(cfg: dict, result: dict) -> list[str]:
    problems = []
    if result.get("setup_only"):
        if len(result["times"]) != cfg["time_grid"]["steps"]:
            problems.append("driver evolved to the wrong number of times")
        return problems
    for t, exact, err in zip(result["times"], result["reconstruct_exact"], result["free_phase_err"]):
        if not exact:
            problems.append(f"reconstruct() at t={t} is not bit-exact")
        if not err <= FREE_PHASE_TOL:
            problems.append(f"free-phase error {err:.3e} > {FREE_PHASE_TOL} at t={t}")
    if len(result["reconstruct_exact"]) != cfg["time_grid"]["steps"]:
        problems.append("driver decomposed the wrong number of times")
    return problems


def reference_path(workload: str, size: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def load_reference(workload: str, size: int) -> dict | None:
    """Stored result for the default seed at this size, if one is kept."""
    path = reference_path(workload, size)
    return json.loads(path.read_text()) if path.is_file() else None


def reference_problems(result: dict, ref: dict) -> list[str]:
    """Differences from the stored reference beyond REFERENCE_TOL."""
    problems = []
    have = _numbers(result)
    for key, want in _numbers(ref).items():
        got = have.get(key)
        if got is None or got.shape != want.shape:
            problems.append(f"{key}: shape differs from the reference")
        elif not np.abs(got - want).max(initial=0.0) <= REFERENCE_TOL:
            problems.append(f"{key}: differs from the reference by {np.abs(got - want).max():.3e}")
    return problems


def _numbers(result: dict) -> dict[str, np.ndarray]:
    """Flatten a result into named float arrays (booleans count as 0/1)."""
    flat = {}
    for key, value in result.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in _numbers(value).items()})
        elif isinstance(value, (list, bool, int, float)):
            try:
                flat[key] = np.array(value, dtype=float)
            except ValueError:  # ragged nesting: can never match a reference
                flat[key] = np.array([np.nan])
    return flat
