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
import math
import os
import time
from pathlib import Path

import numpy as np

from . import dynamics, koopman, reduction, states
from ._record import asdict, record
from ._rng import default_rng
from .basis import MomentumBasis, build_basis, build_basis_1d
from .config import (QUANTUM_HEAD_COLUMNS, QUANTUM_TAIL_COLUMNS, ExperimentConfig,
                     LineLattice, quantum_basis, validate_config)
from .errors import ConfigError, InvariantViolation
from .states import DensityMatrix

PURITY_DRIFT_TOL = 1e-10
EIGENBASIS_ORTHONORMAL_TOL = 1e-10  # max_b max |Q_b^dagger Q_b - I|
EIGENBASIS_RESIDUAL_TOL = 1e-10  # max_b max |H_b Q_b - Q_b diag(w_b)| / max_b max |H_b|
FREE_ENTROPY_TOL = 1e-9
FREE_PERIOD_TOL = 1e-12  # max |rho(2 pi / delta_k^2) - rho(0)| under free evolution
NO_MIXING_TOL = 1e-9
ALPHA0_PURITY_TOL = 1e-10  # drift of P0 under free evolution
COARSE_ENTROPY_TOL = 1e-10  # S_global <= S_cg and -ln P0 <= S_cg, up to this
MASS_TOL = 1e-6


def worker_count() -> int:
    """Threads that compute trace rows: always 1, rows run serially.

    Kept so that run provenance (``perfbench/run.py``) can record it.
    """
    return 1


@record(by_value=True)
class RunSummary:
    """Run outcome; identical across reruns except for wall_time_s.  A final
    value is None where the mode has none, or when no row ran.  Each
    invariant check is its margin ``{"measured", "tolerance"}``, passed when
    measured <= tolerance; ``run`` writes both maps."""

    mode: str
    config: dict
    csv_path: str
    wall_time_s: float
    invariant_checks: dict
    invariant_margins: dict | None = None
    final_effective_entropy: float | None = None
    final_purity: float | None = None
    final_mass: float | None = None
    effectively_pure_initial: bool | None = None
    effectively_pure_final: bool | None = None
    alpha0_purity: dict | None = None  # {"first", "last", "min", "max"} of P0
    alpha0_flow: dict | None = None  # {"c1", "kappa"}: P0's short-time law, before any row

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
    lo, hi = basis.shells.bounds[st.shell:st.shell + 2]  # shell-mixed: I / deg on the shell
    b = np.zeros((basis.size, hi - lo), dtype=complex)
    b[lo:hi] = np.eye(hi - lo) / np.sqrt(hi - lo)
    return DensityMatrix(factor=b)


class _Fold:
    """Sink for a run's rows in grid order that holds none of them: ``append``
    writes the CSV cells that ``line`` gives for a row and keeps the first,
    last, min and max of each value it gives (``stats``); ``len`` counts rows."""

    def __init__(self, fh, header: list[str], line):
        fh.write(",".join(header) + "\n")
        self._fh, self._line, self._rows = fh, line, 0

    def append(self, row) -> None:
        cells, values = self._line(row)
        self._fh.write(",".join(cells) + "\n")
        v = np.array(values, dtype=float)
        if not self._rows:
            self._acc = np.tile(v, (4, 1))
        self._acc[1] = v
        np.minimum(self._acc[2], v, out=self._acc[2])  # a NaN is kept to the end
        np.maximum(self._acc[3], v, out=self._acc[3])
        self._rows += 1

    def __len__(self) -> int:
        return self._rows

    def stats(self) -> list[dict]:
        return [dict(zip(("first", "last", "min", "max"), map(float, a))) for a in self._acc.T]


def _drift(stats: dict, x0: float | None = None) -> float:
    """max |x - x0| over the rows, x0 the first value unless given: rounding is
    monotone, so max(max - x0, x0 - min) is that float (NaN after a NaN row)."""
    x0 = stats["first"] if x0 is None else x0
    return max(stats["max"] - x0, x0 - stats["min"])


def _margin(measured: float, tolerance: float) -> dict:
    return {"measured": float(measured), "tolerance": tolerance}


def _passes(margin: dict) -> bool:
    return margin["measured"] <= margin["tolerance"]  # written so that NaN fails


def _cells(row) -> list[str]:
    return list(map(repr, (np.asarray(row, dtype=float) + 0.0).tolist()))  # + 0.0: no -0.0


def _quantum_line(r: reduction.TraceRow):
    cells = _cells(np.concatenate(([r.t, r.effective_entropy, r.global_entropy, r.purity],
                                   r.shell_entropies, [r.alpha0_purity, r.coarse_entropy])))
    cells.insert(4, str(int(r.effectively_pure)))
    return cells, (r.effective_entropy, r.purity, r.effectively_pure, r.alpha0_purity,
                   r.global_entropy - r.coarse_entropy,  # pinching never lowers entropy
                   -math.log(r.alpha0_purity) - r.coarse_entropy)  # nor below -ln P0


def _run_quantum(cfg: ExperimentConfig, fh) -> dict:
    """Write the trace to ``fh``; return the summary's margins and final values."""
    basis = build_quantum_basis(cfg)
    pot = cfg.potential
    h = dynamics.build_hamiltonian(basis, pot.coupling, pot.screening)
    header = [*QUANTUM_HEAD_COLUMNS, *(f"S_E_{e:g}" for e in basis.shells.energies),
              *QUANTUM_TAIL_COLUMNS]
    fold = _Fold(fh, header, _quantum_line)

    # Each row holds rho(t) = C C^dagger, Hermitian and PSD by construction,
    # and refuses a trace off by more than TRACE_TOL; what every row trusts
    # is H_b = Q_b diag(w_b) Q_b^dagger on each symmetry block, so that is
    # checked first, in H's own arithmetic, and a decomposition that fails
    # it computes no row.
    orthonormality, residual = h.propagator.eigenbasis_errors(h)
    margins = {"eigenbasis_orthonormal": _margin(orthonormality, EIGENBASIS_ORTHONORMAL_TOL),
               "eigenbasis_residual": _margin(residual, EIGENBASIS_RESIDUAL_TOL)}
    if not all(map(_passes, margins.values())):
        return {"invariant_margins": margins}

    rho0 = build_initial_state(cfg, basis)
    c1, kappa = reduction.alpha0_flow(rho0, h, basis)
    s_eff, purity, pure, p0, over_cg, floor_over_cg = reduction.entropy_trace(
        rho0, h, cfg.time_grid.times(), basis, fold).stats()
    margins["purity_constant"] = _margin(_drift(purity), PURITY_DRIFT_TOL)
    margins["coarse_entropy_bound"] = _margin(over_cg["max"], COARSE_ENTROPY_TOL)
    margins["coarse_entropy_floor"] = _margin(floor_over_cg["max"], COARSE_ENTROPY_TOL)
    if pot.coupling == 0.0:
        margins["free_entropy_constant"] = _margin(_drift(s_eff), FREE_ENTROPY_TOL)
        margins["alpha0_purity_constant"] = _margin(_drift(p0), ALPHA0_PURITY_TOL)
    if isinstance(cfg.lattice, LineLattice):
        margins["nondegenerate_no_mixing"] = _margin(s_eff["max"], NO_MIXING_TOL)
    return {"invariant_margins": margins, "final_effective_entropy": s_eff["last"],
            "final_purity": purity["last"], "effectively_pure_initial": bool(pure["first"]),
            "effectively_pure_final": bool(pure["last"]), "alpha0_purity": p0,
            "alpha0_flow": {"c1": c1, "kappa": kappa}}


def _run_classical(cfg: ExperimentConfig, fh) -> dict:
    """Write the kick trace to ``fh``; return the summary's margins and final values."""
    rho0 = koopman.single_p_row_density(cfg.lattice, cfg.initial_state.p0)
    kick = cfg.potential
    grad_v = koopman.kick_gradient(kick.shape)
    fold = _Fold(fh, ["t", "S_classical", "mass"], lambda row: (_cells(row), row[1:]))

    # Each output time is reached by one exact flow from an anchor state
    # (initial, or post-kick), so interpolation diffusion never compounds.
    kicked = None
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
        fold.append((t, koopman.classical_effective_entropy(marginal), state.mass))

    s, mass = fold.stats()
    return {"invariant_margins": {"mass_conserved": _margin(_drift(mass, 1.0), MASS_TOL)},
            "final_effective_entropy": s["last"], "final_mass": mass["last"]}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> RunSummary:
    """Run the experiment, write CSV + summary JSON, re-assert invariants.

    ``cfg`` must come from ``validate_config`` or ``demo_config``; it is
    not checked again here.  A quantum run checks the eigendecomposition
    of H before it builds the initial state; if that check fails, no row
    is computed, the CSV holds only its header and the summary holds the
    two eigenbasis checks with null final values.  The CSV is streamed to
    a temporary name, so a row that raises (``StateValidationError``)
    leaves no CSV and no summary.  Artifacts are written even when an
    invariant check fails; the failure is then raised as
    InvariantViolation so callers can exit nonzero.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    mode_run = _run_quantum if cfg.mode == "quantum" else _run_classical
    csv_path = out_dir / cfg.outputs.csv
    part = csv_path.with_name(csv_path.name + ".part")
    try:  # the CSV gets its name once complete; a run that raises leaves none
        with open(part, "w", encoding="utf-8", newline="") as fh:
            fields = mode_run(cfg, fh)
        os.replace(part, csv_path)
    finally:
        part.unlink(missing_ok=True)
    checks = {name: _passes(m) for name, m in fields["invariant_margins"].items()}
    summary = RunSummary(mode=cfg.mode, config=cfg.echo, csv_path=str(csv_path),
                         wall_time_s=time.perf_counter() - t_start,
                         invariant_checks=checks, **fields)
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
    rho_t = h.propagator.evolve(rho, 1.7)
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
    rho_t = free.propagator.evolve(rho0, 2 * np.pi / cubic.delta_k**2)
    results["free_period_returns_the_state"] = bool(
        np.abs(rho_t.matrix - rho0.matrix).max() <= FREE_PERIOD_TOL
    )
    return results
