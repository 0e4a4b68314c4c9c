"""Config-driven experiment runner.

Builds the system described by an ExperimentConfig, produces an entropy
trace (quantum) or a kick trace (classical), writes a CSV and a JSON run
summary, and re-asserts the library invariants on its own output.  CSV
content is a pure function of the config: floats are written with
``repr`` and rows follow the time grid, so identical configs give
byte-identical files.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from . import dynamics, koopman, reduction, states
from ._record import asdict, record
from ._rng import default_rng
from .basis import MomentumBasis, build_basis, build_basis_1d
from .config import ExperimentConfig, LineLattice, quantum_basis, validate_config
from .errors import ConfigError, InvariantViolation
from .states import DensityMatrix

PURITY_DRIFT_TOL = 1e-10
EIGENBASIS_ORTHONORMAL_TOL = 1e-10  # max_b max |Q_b^dagger Q_b - I|
EIGENBASIS_RESIDUAL_TOL = 1e-10  # max_b max |H_b Q_b - Q_b diag(w_b)| / max_b max |H_b|
FREE_ENTROPY_TOL = 1e-9
FREE_PERIOD_TOL = 1e-12  # max |rho(2 pi / delta_k^2) - rho(0)| under free evolution
NO_MIXING_TOL = 1e-9
MASS_TOL = 1e-6


def worker_count() -> int:
    """Threads that compute trace rows: always 1, rows run serially.

    Kept so that run provenance (``perfbench/run.py``) can record it.
    """
    return 1


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)  # + 0.0 normalizes -0.0


@record(by_value=True)
class RunSummary:
    """Run outcome; identical across reruns except for wall_time_s.  A final
    value is None where the mode has none, or when no row ran."""

    mode: str
    config: dict
    csv_path: str
    wall_time_s: float
    invariant_checks: dict
    final_effective_entropy: float | None = None
    final_purity: float | None = None
    final_mass: float | None = None
    effectively_pure_initial: bool | None = None
    effectively_pure_final: bool | None = None

    @property
    def all_checks_pass(self) -> bool:
        return all(self.invariant_checks.values())

    def to_dict(self) -> dict:
        d = asdict(self)
        # file name only: the summary must not depend on where it was run
        d["csv"] = Path(d.pop("csv_path")).name
        d["all_checks_pass"] = self.all_checks_pass
        return d


def build_quantum_basis(cfg: ExperimentConfig) -> MomentumBasis:
    return quantum_basis(cfg.lattice)


def build_initial_state(cfg: ExperimentConfig, basis: MomentumBasis) -> DensityMatrix:
    """The configured initial state, built from its n x r factor.

    The rank r is 1 for ``pure-random``, the shell's degeneracy for
    ``shell-mixed`` and at most the number of listed shells for
    ``effectively-pure-mixed``.
    """
    st = cfg.initial_state
    if st.kind == "pure-random":
        rng = default_rng(st.seed)
        return states.pure_to_density(states.random_pure_state(basis.size, rng))
    if st.kind == "effectively-pure-mixed":
        rng = default_rng(st.seed)
        mu = None if st.mu is None else np.array(st.mu, dtype=float)
        return states.random_effectively_pure_state(basis, rng, shell_ids=st.shells, mu=mu)
    members = basis.shells.members[st.shell]  # shell-mixed: I / deg on the shell
    b = np.zeros((basis.size, len(members)), dtype=complex)
    b[members, np.arange(len(members))] = 1.0 / np.sqrt(len(members))
    return DensityMatrix(factor=b)


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]):
    """Write ``header``, then each row of cells as ``rows`` formats it, so that
    a run holds one row of strings at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


def _run_quantum(cfg: ExperimentConfig) -> tuple[list[str], Iterable[list[str]], dict, dict]:
    basis = build_quantum_basis(cfg)
    pot = cfg.potential
    h = dynamics.build_hamiltonian(basis, pot.coupling, pot.screening)
    header = ["t", "S_eff", "S_global", "tr_rho2", "effectively_pure"]
    header += [f"S_E_{e:g}" for e in basis.shells.energies]

    # Each row holds rho(t) = C C^dagger, Hermitian and PSD by construction,
    # and refuses a trace off by more than TRACE_TOL; what every row trusts
    # is H_b = Q_b diag(w_b) Q_b^dagger on each symmetry block, so that is
    # checked first, in H's own arithmetic, and a decomposition that fails
    # it computes no row.
    orthonormality, residual = h.propagator.eigenbasis_errors(h)
    checks = {
        "eigenbasis_orthonormal": orthonormality <= EIGENBASIS_ORTHONORMAL_TOL,
        "eigenbasis_residual": residual <= EIGENBASIS_RESIDUAL_TOL,
    }
    if not all(checks.values()):
        return header, [], checks, {}

    rho0 = build_initial_state(cfg, basis)
    rows = reduction.entropy_trace(rho0, h, cfg.time_grid.times(), basis)
    s_eff = np.array([r.effective_entropy for r in rows])
    purity = np.array([r.purity for r in rows])
    checks["purity_constant"] = bool(np.abs(purity - purity[0]).max() <= PURITY_DRIFT_TOL)
    if pot.coupling == 0.0:
        checks["free_entropy_constant"] = bool(
            np.abs(s_eff - s_eff[0]).max() <= FREE_ENTROPY_TOL
        )
    if isinstance(cfg.lattice, LineLattice):
        checks["nondegenerate_no_mixing"] = bool(s_eff.max() <= NO_MIXING_TOL)

    cells = ([_fmt(r.t), _fmt(r.effective_entropy), _fmt(r.global_entropy), _fmt(r.purity),
              str(int(r.effectively_pure)), *map(_fmt, r.shell_entropies)] for r in rows)
    return header, cells, checks, {
        "final_effective_entropy": rows[-1].effective_entropy,
        "final_purity": rows[-1].purity,
        "effectively_pure_initial": rows[0].effectively_pure,
        "effectively_pure_final": rows[-1].effectively_pure,
    }


def _run_classical(cfg: ExperimentConfig) -> tuple[list[str], Iterable[list[str]], dict, dict]:
    rho0 = koopman.single_p_row_density(cfg.lattice, cfg.initial_state.p0)
    kick = cfg.potential
    grad_v = koopman.kick_gradient(kick.shape)

    # Each output time is reached by one exact flow from an anchor state
    # (initial, or post-kick), so interpolation diffusion never compounds.
    kicked = None
    rows = []
    for t in cfg.time_grid.times():
        t = float(t)
        if kick.strength == 0.0 or t <= kick.time:
            state = koopman.classical_free_flow(rho0, t)
        else:
            if kicked is None:  # keeps no pre-kick state alive, only the anchors
                kicked = koopman.apply_kick(
                    koopman.classical_free_flow(rho0, kick.time), grad_v, kick.strength)
            state = koopman.classical_free_flow(kicked, t - kick.time)
        marginal = koopman.classical_reduce(state)
        rows.append((t, koopman.classical_effective_entropy(marginal), state.mass))

    masses = np.array([m for _, _, m in rows])
    checks = {"mass_conserved": bool(np.abs(masses - 1.0).max() <= MASS_TOL)}
    cells = ([_fmt(x) for x in row] for row in rows)
    return ["t", "S_classical", "mass"], cells, checks, {
        "final_effective_entropy": rows[-1][1], "final_mass": rows[-1][2]}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> RunSummary:
    """Run the experiment, write CSV + summary JSON, re-assert invariants.

    ``cfg`` must come from ``validate_config`` or ``demo_config``; it is
    not checked again here.  A quantum run checks the eigendecomposition
    of H before it builds the initial state; if that check fails, no row
    is computed, the CSV holds only its header and the summary holds the
    two eigenbasis checks with null final values.  Artifacts are written
    even when an invariant check fails; the failure is then raised as
    InvariantViolation so callers can exit nonzero.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    mode_run = _run_quantum if cfg.mode == "quantum" else _run_classical
    header, rows, checks, finals = mode_run(cfg)
    csv_path = out_dir / cfg.outputs.csv
    _write_csv(csv_path, header, rows)
    summary = RunSummary(mode=cfg.mode, config=cfg.echo, csv_path=str(csv_path),
                         wall_time_s=time.perf_counter() - t_start,
                         invariant_checks=checks, **finals)
    with open(out_dir / cfg.outputs.summary, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not summary.all_checks_pass:
        failed = sorted(k for k, ok in checks.items() if not ok)
        raise InvariantViolation(f"invariant checks failed: {', '.join(failed)}")
    return summary


DEMO_CONFIGS = {
    "free-invariance": {
        "mode": "quantum",
        "lattice": {"M": 1, "delta_k": 1.0},
        "potential": {"A": 0.0, "mu": 1.0},
        "initial_state": {"kind": "shell-mixed", "shell": 1},
        "time_grid": {"t_max": 5.0, "steps": 25},
        "outputs": {"csv": "free-invariance.csv", "summary": "free-invariance.summary.json"},
    },
    "nondegenerate": {
        "mode": "quantum",
        "lattice": {"N": 16, "delta_k": 1.0},
        "potential": {"A": 1.0, "mu": 1.0},
        "initial_state": {"kind": "pure-random", "seed": 3},
        "time_grid": {"t_max": 10.0, "steps": 40},
        "outputs": {"csv": "nondegenerate.csv", "summary": "nondegenerate.summary.json"},
    },
    "yukawa-mixing": {
        "mode": "quantum",
        "lattice": {"M": 1, "delta_k": 1.0},
        "potential": {"A": 0.2, "mu": 1.0},
        "initial_state": {"kind": "effectively-pure-mixed", "seed": 11},
        "time_grid": {"t_max": 5.0, "steps": 50},
        "outputs": {"csv": "yukawa-mixing.csv", "summary": "yukawa-mixing.summary.json"},
    },
    "classical-kick": {
        "mode": "classical",
        "lattice": {"nq": 64, "np": 64, "dq": 0.09817477042468103, "dp": 0.1},
        "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
        "initial_state": {"kind": "single-p-row", "p0": 1.0},
        "time_grid": {"t_max": 2.0, "steps": 20},
        "outputs": {"csv": "classical-kick.csv", "summary": "classical-kick.summary.json"},
    },
}


def demo_config(name: str) -> ExperimentConfig:
    """Named built-in config, validated through the same strict schema."""
    if name not in DEMO_CONFIGS:
        known = ", ".join(sorted(DEMO_CONFIGS))
        raise ConfigError([("demo", f"unknown demo {name!r} (known: {known})")])
    return validate_config(json.dumps(DEMO_CONFIGS[name]))


def run_invariant_checks() -> dict:
    """Fast standalone battery of the library's core invariants.

    Backs the ``check`` CLI subcommand: a handful of seeded spot checks
    across evolution, reduction and the classical transport, each one a
    scaled-down version of an acceptance property.
    """
    rng = default_rng(2024)
    results = {}

    basis = build_basis(1, 1.0)
    h = dynamics.build_hamiltonian(basis, 0.3, 1.0)
    rho = states.random_density_matrix(basis.size, rng, rank=4)
    rho_t = dynamics.evolve(rho, h, 1.7)
    results["purity_conserved"] = bool(
        abs(states.global_purity(rho_t) - states.global_purity(rho)) <= PURITY_DRIFT_TOL
    )

    h0 = dynamics.build_hamiltonian(basis, 0.0, 1.0)
    rows = reduction.entropy_trace(rho, h0, (0.0, 0.9, 2.3, 4.1), basis)
    drift = max(abs(row.effective_entropy - rows[0].effective_entropy) for row in rows[1:])
    results["free_entropy_invariant"] = bool(drift <= FREE_ENTROPY_TOL)

    dec = reduction.alpha_decompose(rho.matrix, basis)
    results["alpha_reconstruction"] = bool(
        np.abs(dec.reconstruct() - rho.matrix).max() == 0.0
    )

    small = build_basis_1d(5, 1.0)
    hs = dynamics.build_hamiltonian(small, 0.4, 1.0)
    sup = dynamics.liouvillian_superoperator(hs)
    r = states.random_density_matrix(small.size, rng)
    lhs = sup.apply(r.matrix)
    rhs = hs.matrix @ r.matrix - r.matrix @ hs.matrix
    results["superoperator_matches_commutator"] = bool(np.abs(lhs - rhs).max() <= 1e-10)

    grid = koopman.PhaseSpaceGrid(nq=32, n_p=32, dq=2 * np.pi / 32, dp=0.2)
    f0 = koopman.gaussian_density(grid, q0=np.pi, p0=1.0, sigma_q=0.7, sigma_p=0.4)
    f1 = koopman.classical_free_flow(f0, 1.3)
    g0, g1 = koopman.classical_reduce(f0), koopman.classical_reduce(f1)
    results["classical_mass_conserved"] = bool(abs(f1.mass - 1.0) <= MASS_TOL)
    results["classical_marginal_invariant"] = bool(
        np.abs(g1.density - g0.density).max() <= MASS_TOL
    )

    # Every Bohr frequency is an integer times delta_k^2, so free evolution
    # returns every state at T = 2 pi / delta_k^2; one step there tests the
    # blocks' eigenpairs, their phases and the orbit map together.
    cubic = build_basis(2, 0.7)
    rho0 = states.random_effectively_pure_state(cubic, rng)
    free = dynamics.build_hamiltonian(cubic, 0.0, 1.0)
    rho_t = dynamics.evolve(rho0, free, 2 * np.pi / cubic.delta_k**2)
    results["free_period_returns_the_state"] = bool(
        np.abs(rho_t.matrix - rho0.matrix).max() <= FREE_PERIOD_TOL
    )
    return results
