"""Acceptance suite: the headline guarantees, each at its stated tolerance.

Every test prints a single verdict line (visible with ``pytest -s`` and
in failure reports), so a run of this module reads as a checklist.
"""

import time

import numpy as np
import scipy.linalg

from lelab import cli
from lelab.basis import build_basis, build_basis_1d
from lelab.dynamics import (
    Hamiltonian,
    alpha_offblock_norm,
    build_hamiltonian,
    commutator_superoperator,
    evolve,
    liouvillian_superoperator,
)
from lelab.koopman import (
    PhaseSpaceGrid,
    apply_kick,
    classical_effective_entropy,
    classical_free_flow,
    classical_reduce,
    density_from_values,
    single_p_row_density,
    xi_beta_coordinates,
)
from lelab.reduction import (
    alpha_decompose,
    entropy_trace,
    first_order_reduced_step,
    free_phase_law,
)
from lelab.states import (
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
)


def _verdict(number: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_hamiltonian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(h0_diag=rng.uniform(0.0, 5.0, dim), v=(g + g.conj().T) / 2)


def test_01_unitarity_conservation():
    basis = build_basis(1, 1.0)
    t_start = time.perf_counter()
    worst_drift = 0.0
    worst_entropy = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        if i % 2 == 0:
            h = _random_hamiltonian(basis.size, rng)
        else:
            h = build_hamiltonian(basis, float(rng.uniform(0.05, 2.0)),
                                  float(rng.uniform(0.5, 3.0)))
        t = float(rng.uniform(0.0, 10.0))
        rho = random_density_matrix(basis.size, rng, rank=int(rng.integers(1, 28)))
        drift = abs(global_purity(evolve(rho, h, t)) - global_purity(rho))
        worst_drift = max(worst_drift, drift)
        psi = pure_to_density(random_pure_state(basis.size, rng))
        worst_entropy = max(worst_entropy, global_entropy(evolve(psi, h, t)))
    elapsed = time.perf_counter() - t_start
    ok = worst_drift <= 1e-10 and worst_entropy <= 1e-9 and elapsed < 10.0
    _verdict(1, "unitarity-conservation", ok,
             f"purity drift {worst_drift:.1e}, pure entropy {worst_entropy:.1e}, "
             f"{elapsed:.2f}s of 10s")


def test_02_free_evolution_entropy_invariance():
    basis = build_basis(1, 1.0)
    h0 = build_hamiltonian(basis, 0.0, 1.0)
    times = np.linspace(0.0, 10.0, 50)
    worst = 0.0
    for i in range(20):
        rho = random_density_matrix(basis.size, np.random.default_rng(2000 + i))
        s = np.array([r.effective_entropy for r in entropy_trace(rho, h0, times, basis)])
        worst = max(worst, float(np.abs(s - s[0]).max()))
    ok = worst <= 1e-9
    _verdict(2, "free-evolution-invariance", ok, f"max |S(t) - S(0)| = {worst:.1e}")


def test_03_nondegenerate_spectrum_cannot_mix():
    basis = build_basis_1d(16, 1.0)
    times = np.linspace(0.0, 10.0, 41)
    worst = 0.0
    always_pure = True
    for j, coupling in enumerate((0.1, 1.0, 5.0)):
        h = build_hamiltonian(basis, coupling, 1.0)
        rho0 = pure_to_density(random_pure_state(basis.size, np.random.default_rng(30 + j)))
        rows = entropy_trace(rho0, h, times, basis)
        worst = max(worst, max(r.effective_entropy for r in rows))
        always_pure &= all(r.effectively_pure for r in rows)
    ok = worst <= 1e-9 and always_pure
    _verdict(3, "nondegenerate-no-mixing", ok,
             f"max S_eff = {worst:.1e}, effectively pure throughout: {always_pure}")


def test_04_interaction_generates_effective_entropy():
    t_start = time.perf_counter()
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    rho0 = random_effectively_pure_state(basis, np.random.default_rng(11))
    rows = entropy_trace(rho0, h, np.linspace(0.0, 5.0, 51), basis)
    s = np.array([r.effective_entropy for r in rows])
    purity = np.array([r.purity for r in rows])
    purity_drift = float(np.abs(purity - purity[0]).max())
    elapsed = time.perf_counter() - t_start
    ok = (s[0] <= 1e-9 and s.max() >= 1e-4 and purity_drift <= 1e-10
          and elapsed < 30.0)
    _verdict(4, "interaction-entropy-generation", ok,
             f"S(0) = {s[0]:.1e}, max S = {s.max():.3f}, purity drift {purity_drift:.1e}, "
             f"{elapsed:.2f}s of 30s")


def test_05_superoperator_matches_conjugation():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        dim = int(rng.integers(2, 9))
        h = _random_hamiltonian(dim, rng)
        rho = random_density_matrix(dim, rng)
        t = float(rng.uniform(-3.0, 3.0))
        sup = liouvillian_superoperator(h)
        phases = scipy.linalg.expm(-1j * t * sup.matrix)
        via_superop = (phases @ rho.matrix.reshape(-1)).reshape(dim, dim)
        via_conjugation = evolve(rho, h, t).matrix
        worst = max(worst, float(np.abs(via_superop - via_conjugation).max()))
    ok = worst <= 1e-9
    _verdict(5, "superoperator-oracle-equivalence", ok, f"max elementwise gap {worst:.1e}")


def test_06_first_order_reduced_step_error_scaling():
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.05, 1.0)
    rho0 = random_effectively_pure_state(basis, np.random.default_rng(5))
    ts = np.array([0.01, 0.02, 0.04, 0.08])
    errs = []
    for t in ts:
        # dense oracle of the exact reduction: the evolved state's raw shell blocks
        rho_t = evolve(rho0, h, float(t)).matrix
        approx = first_order_reduced_step(rho0, h, float(t), basis)
        sq = 0.0
        for members, w, g in zip(basis.shells.members, approx.weights, approx.grams):
            block = np.array([[w]]) if g is None else g  # the step's grams are its blocks
            sq += np.linalg.norm(rho_t[np.ix_(members, members)] - block) ** 2
        errs.append(np.sqrt(sq))
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.1
    _verdict(6, "first-order-error-is-quadratic", ok, f"log-log slope {slope:.3f}")


def test_07_alpha_diagonality():
    basis = build_basis(1, 1.0)
    l0 = liouvillian_superoperator(build_hamiltonian(basis, 0.0, 1.0))
    free_diagonal = alpha_offblock_norm(l0.matrix, basis)[0] <= 1e-10
    v = build_hamiltonian(basis, 1.0, 1.0).v
    li = commutator_superoperator(v)
    interaction_mixes = not alpha_offblock_norm(li.matrix, basis)[0] <= 1e-10
    _, off_fro = alpha_offblock_norm(li.matrix, basis)
    violation_floor = 1e-3 * float(np.linalg.norm(li.matrix))
    ok = free_diagonal and interaction_mixes and off_fro >= violation_floor
    _verdict(7, "alpha-diagonality", ok,
             f"free diagonal: {free_diagonal}, interaction off-sector {off_fro:.3g} "
             f">= {violation_floor:.3g}")


def test_08_alpha_decomposition_and_phase_law():
    basis = build_basis(1, 1.0)
    h0 = build_hamiltonian(basis, 0.0, 1.0)
    reconstruction_exact = True
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(800 + i)
        rho = random_density_matrix(basis.size, rng)
        dec = alpha_decompose(rho.matrix, basis)
        reconstruction_exact &= bool(np.array_equal(dec.reconstruct(), rho.matrix))
        t = float(rng.uniform(-10.0, 10.0))
        gap = np.abs(free_phase_law(dec, t) - evolve(rho, h0, t).matrix).max()
        worst = max(worst, float(gap))
    ok = reconstruction_exact and worst <= 1e-10
    _verdict(8, "alpha-decomposition-exactness", ok,
             f"reconstruction exact: {reconstruction_exact}, phase law gap {worst:.1e}")


def test_09_classical_suite():
    grid = PhaseSpaceGrid(nq=64, n_p=64, dq=2 * np.pi / 64, dp=0.1)
    rng = np.random.default_rng(9)
    f0 = density_from_values(grid, rng.uniform(0.0, 1.0, (grid.nq, grid.n_p)))
    mass_ok = marginal_ok = True
    for t in (0.3, 1.0, 4.0):
        flowed = classical_free_flow(f0, t)
        mass_ok &= abs(flowed.mass - 1.0) <= 1e-6
        drift = np.abs(classical_reduce(flowed).density - classical_reduce(f0).density)
        marginal_ok &= float(drift.max()) <= 1e-6

    q = rng.uniform(0.0, 2 * np.pi, 500)
    p = rng.uniform(grid.dp / 2, 3.0, 500) * rng.choice([-1.0, 1.0], 500)
    xi0, _ = xi_beta_coordinates(q, p, p_min=grid.dp / 2)
    xi1, _ = xi_beta_coordinates(q + 2 * p * 1.7, p, p_min=grid.dp / 2)
    xi_ok = float(np.abs(xi1 - (xi0 + 1.7)).max()) <= 1e-12

    row = single_p_row_density(grid, p0=1.0)
    s_before = classical_effective_entropy(classical_reduce(row))
    kicked = apply_kick(classical_free_flow(row, 1.0), lambda x: -np.sin(x), 0.3)
    mass_ok &= abs(kicked.mass - 1.0) <= 1e-6
    s_after = classical_effective_entropy(classical_reduce(kicked))
    kick_ok = s_after - s_before >= 1e-3

    ok = mass_ok and marginal_ok and xi_ok and kick_ok
    _verdict(9, "classical-suite", ok,
             f"mass ok: {mass_ok}, marginal ok: {marginal_ok}, xi identity ok: {xi_ok}, "
             f"kick raised S by {s_after - s_before:.3f}")


def test_10_demo_run_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["demo", "yukawa-mixing", "--out-dir", str(first)]) == 0
    assert cli.main(["demo", "yukawa-mixing", "--out-dir", str(second)]) == 0
    a = (first / "yukawa-mixing.csv").read_bytes()
    b = (second / "yukawa-mixing.csv").read_bytes()
    ok = a == b and len(a) > 0
    _verdict(10, "demo-byte-determinism", ok, f"{len(a)} bytes, identical: {a == b}")
