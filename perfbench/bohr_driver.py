"""Library driver for the Bohr-sector API, which `lelab run` never calls.

It reads a lelab config (validated by ``lelab.config.validate_config``),
builds the system, evolves rho0 to each time of the grid after t = 0 and,
at each, runs ``alpha_decompose``.  It checks that ``reconstruct()``
gives the evolved matrix back bit for bit and that ``free_phase_law``
agrees with direct free evolution over one grid step.  With
``--setup-only`` it stops before the first decomposition.

Usage: PYTHONPATH=src python3 perfbench/bohr_driver.py --config CFG --out OUT [--setup-only]
"""

from __future__ import annotations

import argparse
import json

import numpy as np
from lelab import config, dynamics, harness, reduction, states


def drive(config_text: str, setup_only: bool = False) -> dict:
    """Run the driver on one config; returns the numbers it checks."""
    cfg = config.validate_config(config_text)
    basis = harness.build_quantum_basis(cfg)
    pot = cfg.potential
    prop = dynamics.Propagator.from_hamiltonian(
        dynamics.build_hamiltonian(basis, pot.coupling, pot.screening)
    )
    rho0 = harness.build_initial_state(cfg, basis)
    times = [float(t) for t in cfg.time_grid.times()[1:]]
    evolved = [prop.evolve(rho0, t).matrix for t in times]
    out = {"times": times, "setup_only": setup_only}
    if setup_only:
        return out

    free = dynamics.Propagator.from_hamiltonian(
        dynamics.build_hamiltonian(basis, 0.0, pot.screening)
    )
    tau = times[0]
    out.update(sectors=[], alphas=[], sector_norms=[], reconstruct_exact=[], free_phase_err=[])
    for m in evolved:
        dec = reduction.alpha_decompose(m, basis)
        direct = free.evolve(states.DensityMatrix(m), tau).matrix
        out["sectors"].append(len(dec.alphas))
        out["alphas"].append(dec.alphas.tolist())
        out["sector_norms"].append([float(np.linalg.norm(c)) for c in dec.components])
        out["reconstruct_exact"].append(bool(np.array_equal(dec.reconstruct(), m)))
        out["free_phase_err"].append(float(np.abs(reduction.free_phase_law(dec, tau) - direct).max()))
        del dec  # hold one decomposition at a time
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        result = drive(fh.read(), setup_only=args.setup_only)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
