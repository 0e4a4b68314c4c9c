#!/usr/bin/env python3
"""Scan the interaction strength and record how much effective entropy
the evolution generates from an effectively pure start.

For each coupling A the initial state is the same seeded effectively pure
mixture on the M=1 momentum basis; we evolve to t_max, reduce at each grid
time, and record the largest and the final effective entropy.  Global
purity is carried along as a sanity column — it must stay constant.

Usage: python scripts/entropy_vs_coupling.py [--steps 100] [--out entropy_vs_coupling.csv]
"""

import argparse

import numpy as np

from lelab._rng import default_rng
from lelab.basis import build_basis
from lelab.dynamics import build_hamiltonian
from lelab.reduction import entropy_trace
from lelab.states import random_effectively_pure_state

SEED = 11
T_MAX = 5.0
SCREENING = 1.0
COUPLINGS = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="entropy_vs_coupling.csv")
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args()

    basis = build_basis(1, 1.0)
    rho0 = random_effectively_pure_state(basis, default_rng(SEED))
    times = np.linspace(0.0, T_MAX, args.steps + 1)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("A,max_S_eff,final_S_eff,purity_drift\n")
        print(f"{'A':>6} {'max S_eff':>12} {'final S_eff':>12} {'purity drift':>13}")
        for coupling in COUPLINGS:
            h = build_hamiltonian(basis, coupling, SCREENING)
            rows = entropy_trace(rho0, h, times, basis)
            s = np.array([r.effective_entropy for r in rows])
            purity = np.array([r.purity for r in rows])
            drift = float(np.abs(purity - purity[0]).max())
            # repr of a numpy scalar reads np.float64(...) under numpy 2
            fh.write(",".join(repr(float(x)) for x in (coupling, s.max(), s[-1], drift)) + "\n")
            print(f"{coupling:6.2f} {s.max():12.6f} {s[-1]:12.6f} {drift:13.2e}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
