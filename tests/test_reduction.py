import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab import config, harness, koopman
from lelab._record import _DenseOnDemand
from lelab.basis import build_basis, build_basis_1d
from lelab.config import validate_config
from lelab.dynamics import Propagator, build_hamiltonian, commutator_superoperator, evolve
from lelab.errors import StateValidationError
from lelab.reduction import (
    RANK_TOL,
    TAU_LAMBDA,
    alpha_decompose,
    assemble_block_diagonal,
    effective_entropy,
    entropy_trace,
    first_order_reduced_step,
    free_phase_law,
    is_effectively_pure,
    reduce,
    shell_entropies,
)
from lelab.states import (
    DensityMatrix,
    PureState,
    entropy_from_eigenvalues,
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
    validated_spectrum,
)

BASIS = build_basis(1, 1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_alpha_decomposition_reconstructs_exactly(seed):
    rho = random_density_matrix(BASIS.size, np.random.default_rng(seed))
    dec = alpha_decompose(rho.matrix, BASIS)
    # components tile the matrix with disjoint supports: equality is exact
    np.testing.assert_array_equal(dec.reconstruct(), rho.matrix)


def test_alpha_components_are_disjoint_and_sum_to_the_input():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(4))
    dec = alpha_decompose(rho.matrix, BASIS)
    assert len(dec.components) == len(dec.alphas)
    total = np.zeros_like(rho.matrix)
    covered = np.zeros(rho.matrix.shape, dtype=int)
    for comp in dec.components:
        total = total + comp
        covered += comp != 0
    assert covered.max() == 1  # every element sits in at most one sector
    np.testing.assert_array_equal(total, rho.matrix)
    np.testing.assert_array_equal(dec.components[-1], dec.component(dec.alphas[-1]))
    with pytest.raises(IndexError):
        dec.components[len(dec.alphas)]


def test_alpha_decomposition_does_not_follow_later_writes_to_the_input():
    m = random_density_matrix(BASIS.size, np.random.default_rng(6)).matrix.copy()
    dec = alpha_decompose(m, BASIS)
    before = [c.copy() for c in dec.components]
    m[:] = 0.0
    np.testing.assert_array_equal(dec.reconstruct(), sum(before))
    for comp, old in zip(dec.components, before):
        np.testing.assert_array_equal(comp, old)


def test_alpha_decomposition_holds_no_per_sector_copy():
    basis = build_basis(2, 1.0)
    m = random_density_matrix(basis.size, np.random.default_rng(9)).matrix
    dense = m.nbytes  # one n x n complex array
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = alpha_decompose(m, basis)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dec.alphas) == 25
    # the matrix copy plus its integer labels, not 25 sector matrices
    assert held <= 3 * dense


def test_alpha_labels_are_energy_differences():
    dec = alpha_decompose(np.eye(BASIS.size), BASIS)
    # diagonal matrix lives purely in the alpha = 0 sector
    assert dec.alphas.tolist() == [0.0]
    i = BASIS.index_of((0, 0, 0))
    j = BASIS.index_of((1, 0, 0))
    m = np.zeros((BASIS.size, BASIS.size))
    m[i, j] = 1.0  # |E=0><E=1|: column energy minus row energy = +1
    dec = alpha_decompose(m, BASIS)
    assert dec.alphas.tolist() == [1.0]


def test_alpha_sector_count_for_generic_matrix():
    # shell energies {0,1,2,3}: pairwise differences give 7 sectors
    rho = random_density_matrix(BASIS.size, np.random.default_rng(5))
    dec = alpha_decompose(rho.matrix, BASIS)
    assert dec.alphas.tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]


def test_alpha_zero_component_is_shell_block_diagonal():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(2))
    dec = alpha_decompose(rho.matrix, BASIS)
    block_diag = assemble_block_diagonal(reduce(rho, BASIS), BASIS)
    np.testing.assert_array_equal(dec.component(0.0), block_diag)


LABEL_BASES = {"M1": BASIS, "M2": build_basis(2, 0.7), "N16": build_basis_1d(16, 1.3)}


@pytest.mark.parametrize("lattice", sorted(LABEL_BASES))
def test_sector_labels_are_the_distinct_labels_of_the_nonzero_elements(lattice):
    basis = LABEL_BASES[lattice]
    rho = random_density_matrix(basis.size, np.random.default_rng(3))
    zero = np.zeros((basis.size, basis.size))
    for m in (zero, rho.matrix, assemble_block_diagonal(reduce(rho, basis), basis)):
        dec = alpha_decompose(m, basis)
        expected = np.unique(dec.labels[m != 0]) if m.any() else np.zeros(1, dtype=dec.labels.dtype)
        assert dec.sector_labels.dtype == expected.dtype
        np.testing.assert_array_equal(dec.sector_labels, expected)


@pytest.mark.parametrize("t", [0.0, 0.37, -2.5, 1e6])
@pytest.mark.parametrize("lattice", sorted(LABEL_BASES))
def test_free_phase_law_is_the_elementwise_formula(lattice, t):
    basis = LABEL_BASES[lattice]
    dec = alpha_decompose(random_density_matrix(basis.size, np.random.default_rng(1)).matrix, basis)
    elementwise = np.exp(1j * (dec.labels * dec.delta_k**2) * t) * dec.matrix
    assert free_phase_law(dec, t).tobytes() == elementwise.tobytes()


@given(seed=st.integers(0, 10_000), t=st.floats(-10.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_free_phase_law_matches_exact_evolution(seed, t):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(BASIS.size, rng)
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    via_phases = free_phase_law(alpha_decompose(rho.matrix, BASIS), t)
    via_evolution = evolve(rho, h0, t).matrix
    assert np.abs(via_phases - via_evolution).max() <= 1e-10


def test_reduce_weights_are_shell_traces():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(11))
    dec = reduce(rho, BASIS)
    assert dec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for s, members in enumerate(BASIS.shells.members):
        block = rho.matrix[np.ix_(members, members)]
        assert dec.weights[s] == pytest.approx(np.trace(block).real, abs=1e-14)
        normalized = dec.rho_hat(s)
        np.testing.assert_allclose(normalized * dec.weights[s], block, atol=1e-14)


def test_reduce_is_idempotent():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(13))
    once = reduce(rho, BASIS)
    again = reduce(assemble_block_diagonal(once, BASIS), BASIS)
    np.testing.assert_array_equal(once.weights, again.weights)
    for b1, b2 in zip(once.blocks, again.blocks):
        np.testing.assert_array_equal(b1, b2)


def test_effective_entropy_of_shell_mixture():
    # maximally mixed on the 6-fold shell: S_eff = ln 6 regardless of weight
    members = BASIS.shells.members[1]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[members, members] = 1.0 / len(members)
    dec = reduce(DensityMatrix(m), BASIS)
    assert effective_entropy(dec) == pytest.approx(np.log(6), abs=1e-12)
    assert not is_effectively_pure(dec)


def test_shell_entropies_are_per_shell():
    rho = random_effectively_pure_state(BASIS, np.random.default_rng(8))
    per_shell = shell_entropies(reduce(rho, BASIS))
    assert per_shell.shape == (BASIS.n_shells,)
    np.testing.assert_allclose(per_shell, 0.0, atol=1e-12)


def test_pure_states_are_effectively_pure():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        rho = pure_to_density(random_pure_state(BASIS.size, rng))
        assert is_effectively_pure(reduce(rho, BASIS))


def test_globally_mixed_shell_blocks_detected():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(22))
    assert not is_effectively_pure(reduce(rho, BASIS))


def test_empty_shells_do_not_contribute():
    # support the state on the |n|^2 = 0 shell only
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    i = BASIS.index_of((0, 0, 0))
    m[i, i] = 1.0
    dec = reduce(DensityMatrix(m), BASIS)
    np.testing.assert_array_equal(dec.occupied, [True, False, False, False])
    assert dec.rho_hat(2) is None
    assert effective_entropy(dec) == 0.0
    assert is_effectively_pure(dec)


def _shell_expectation(shell_ops, rho, basis):
    """Tr(A rho) of a shell-block-diagonal A, one Hermitian block per shell,
    read from the reduction's raw shell blocks alone."""
    dec = reduce(rho, basis)
    return float(sum(np.trace(op @ b) for op, b in zip(shell_ops, dec.blocks)).real)


def test_expectation_xi_independent_under_free_flow():
    # shell-wise observables see only the alpha = 0 part, which free
    # evolution multiplies by unit phases: expectations are stationary
    rng = np.random.default_rng(31)
    rho = random_density_matrix(BASIS.size, rng)
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    ops = []
    for members in BASIS.shells.members:
        d = len(members)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops.append((g + g.conj().T) / 2)
    before = _shell_expectation(ops, rho, BASIS)
    after = _shell_expectation(ops, evolve(rho, h0, 3.7), BASIS)
    assert after == pytest.approx(before, abs=1e-10)


def test_first_order_step_error_is_second_order():
    h = build_hamiltonian(BASIS, 0.05, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(5))
    errs = []
    ts = [0.02, 0.04]
    for t in ts:
        exact = assemble_block_diagonal(reduce(evolve(rho0, h, t), BASIS), BASIS)
        approx = assemble_block_diagonal(first_order_reduced_step(rho0, h, t, BASIS), BASIS)
        errs.append(np.linalg.norm(exact - approx))
    # doubling t quadruples the error
    assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.05)


def test_first_order_step_is_exact_for_free_evolution():
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    rho0 = random_density_matrix(BASIS.size, np.random.default_rng(17))
    exact = reduce(evolve(rho0, h0, 0.3), BASIS)
    approx = first_order_reduced_step(rho0, h0, 0.3, BASIS)
    for b1, b2 in zip(exact.blocks, approx.blocks):
        np.testing.assert_allclose(b1, b2, atol=1e-12)


def test_entropy_trace_rows_follow_grid():
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    times = np.linspace(0.0, 2.0, 9)
    rows = entropy_trace(rho0, h, times, BASIS)
    assert [r.t for r in rows] == times.tolist()
    assert rows[0].effective_entropy <= 1e-12
    assert rows[0].effectively_pure


@pytest.mark.parametrize("lattice", ["cubic", "line"])
def test_entropy_trace_matches_momentum_basis_oracle(lattice):
    # Oracle: evolve in the momentum basis, reduce, and take the global
    # invariants there, one time point at a time.
    if lattice == "cubic":
        basis = build_basis(2, 1.0)
        h = build_hamiltonian(basis, 0.2, 1.0)
        rho0 = random_effectively_pure_state(basis, np.random.default_rng(21))
    else:
        basis = build_basis_1d(32, 1.0)
        h = build_hamiltonian(basis, 1.0, 1.0)
        rho0 = pure_to_density(random_pure_state(basis.size, np.random.default_rng(22)))
    times = np.linspace(0.0, 5.0, 6)
    rows = entropy_trace(rho0, h, times, basis)
    assert len(rows) == len(times)
    for row, t in zip(rows, times):
        rho_t = evolve(rho0, h, t)
        dec = reduce(rho_t, basis)
        per_shell = shell_entropies(dec)
        assert row.t == t
        assert row.effective_entropy == pytest.approx(per_shell.sum(), abs=1e-12)
        np.testing.assert_allclose(row.shell_entropies, per_shell, rtol=0, atol=1e-12)
        assert row.global_entropy == pytest.approx(global_entropy(rho_t), abs=1e-12)
        assert row.purity == pytest.approx(global_purity(rho_t), abs=1e-12)
        assert row.effectively_pure == is_effectively_pure(dec)
    if lattice == "cubic":
        assert rows[-1].effective_entropy > 1e-4  # the comparison covers mixing rows


def _dense_eigenbasis_trace(rho0, h, times, basis):
    """The dense trace that the factored one replaced: X(t) = e^{-iwt} X0 e^{+iwt}
    with X0 = Q^dagger rho0 Q, validated with an n x n eigh per row, and
    each multi-member shell block taken from Q[members] X(t) Q[members]^dagger.
    Q and w are a dense eigh of the n x n H, not the propagator's blocks.
    Returns (t, S_eff, S_global, tr_rho2, effectively_pure, S_E) per row."""
    w, q = np.linalg.eigh(h.matrix)
    x0 = q.conj().T @ rho0.matrix @ q
    rows = []
    for t in times:
        phase = np.exp(-1j * w * t)
        x = phase[:, None] * x0 * phase.conj()
        spectrum, _ = validated_spectrum(x)
        per_shell = np.zeros(basis.n_shells)
        pure = True
        for s, mem in enumerate(basis.shells.members):
            if len(mem) == 1:
                continue
            block = q[mem] @ x @ q[mem].conj().T
            weight = float(np.trace(block).real)
            if weight <= TAU_LAMBDA:
                continue
            eigs = np.linalg.eigvalsh(block / weight)
            per_shell[s] = entropy_from_eigenvalues(eigs)
            pure = pure and bool(eigs[-2] < RANK_TOL)
        rows.append((t, per_shell.sum(), entropy_from_eigenvalues(spectrum),
                     float(np.vdot(x, x).real), pure, per_shell))
    return rows


def _config_state(lattice, initial_state):
    """A harness-built initial state, with its basis, for a quantum config."""
    cfg = validate_config(json.dumps({
        "mode": "quantum", "lattice": lattice, "potential": {"A": 0.2, "mu": 1.0},
        "initial_state": initial_state, "time_grid": {"t_max": 5.0, "steps": 5},
    }))
    basis = harness.build_quantum_basis(cfg)
    return harness.build_initial_state(cfg, basis), basis


ORACLE_LATTICES = {"cubic-2": {"M": 2, "delta_k": 1.0}, "cubic-3": {"M": 3, "delta_k": 1.0},
                   "line-32": {"N": 32, "delta_k": 1.0}}


@pytest.mark.parametrize("lattice", sorted(ORACLE_LATTICES))
@pytest.mark.parametrize("rank", ["one", "degeneracy", "shell-count", "n", "unfactored"])
def test_factored_trace_matches_dense_eigenbasis_oracle(lattice, rank):
    if rank == "one":
        rho0, basis = _config_state(ORACLE_LATTICES[lattice], {"kind": "pure-random", "seed": 4})
        want_rank = 1
    elif rank == "degeneracy":
        rho0, basis = _config_state(ORACLE_LATTICES[lattice], {"kind": "shell-mixed", "shell": 2})
        want_rank = len(basis.shells.members[2])
    elif rank == "shell-count":
        rho0, basis = _config_state(ORACLE_LATTICES[lattice],
                                    {"kind": "effectively-pure-mixed", "seed": 4})
        want_rank = basis.n_shells
    else:
        _, basis = _config_state(ORACLE_LATTICES[lattice], {"kind": "pure-random", "seed": 4})
        rho0 = random_density_matrix(basis.size, np.random.default_rng(4))
        want_rank = None
        if rank == "unfactored":  # rank shell count, factored by entropy_trace's own eigh
            rho0 = DensityMatrix(random_effectively_pure_state(
                basis, np.random.default_rng(4)).matrix)
    if want_rank is not None:
        assert rho0.factor.shape == (basis.size, want_rank)
    coupling = 1.0 if lattice.startswith("line") else 0.2
    h = build_hamiltonian(basis, coupling, 1.0)
    times = np.linspace(0.0, 5.0, 6)
    rows = entropy_trace(rho0, h, times, basis)
    oracle = _dense_eigenbasis_trace(rho0, h, times, basis)
    for row, (t, s_eff, s_global, purity, pure, per_shell) in zip(rows, oracle, strict=True):
        assert row.t == t
        assert abs(row.effective_entropy - s_eff) <= 1e-12
        assert abs(row.global_entropy - s_global) <= 1e-12
        assert abs(row.purity - purity) <= 1e-12
        assert np.abs(row.shell_entropies - per_shell).max() <= 1e-12
        assert row.effectively_pure == pure
    if lattice.startswith("cubic") and rank != "one":
        assert max(r.effective_entropy for r in rows) > 1e-2  # the rows cover mixing


def test_entropy_trace_refuses_a_state_that_lost_its_trace():
    # ||C(t)||_F = 1 holds only while Q is unitary; a Q off by 1e-6 breaks it
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    pairs = tuple((w, q * (1 + 1e-6)) for w, q in h.propagator.blocks)
    h.__dict__["propagator"] = Propagator(pairs, h.orbits)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    with pytest.raises(StateValidationError, match="trace"):
        entropy_trace(rho0, h, [0.0, 1.0], BASIS)


def test_entropy_trace_refuses_a_nan_row():
    # a NaN eigenvalue gives a NaN C(t), whose trace check must fail before any eigvalsh
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    (w, q), *rest = h.propagator.blocks
    w = w.copy()
    w[0] = np.nan
    h.__dict__["propagator"] = Propagator(((w, q), *rest), h.orbits)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    with pytest.raises(StateValidationError, match="trace nan"):
        entropy_trace(rho0, h, [0.0, 1.0], BASIS)


def test_reduce_canonical_examples():
    # all population on the nondegenerate zero-momentum shell
    amp = np.zeros(BASIS.size, dtype=complex)
    amp[BASIS.index_of((0, 0, 0))] = 1.0
    dec = reduce(pure_to_density(PureState(amp)), BASIS)
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(dec.rho_hat(0), [[1.0]], atol=1e-14)
    assert not dec.occupied[1:].any()

    # equal superposition across two shells: half weight each, rank-1 blocks,
    # and the cross-shell coherence is dropped by the reduction
    amp = np.zeros(BASIS.size, dtype=complex)
    amp[[BASIS.index_of((0, 0, 0)), BASIS.index_of((1, 0, 0))]] = 1.0 / np.sqrt(2)
    dec = reduce(pure_to_density(PureState(amp)), BASIS)
    np.testing.assert_allclose(dec.weights[:2], [0.5, 0.5], atol=1e-14)
    for s in (0, 1):
        eigs = np.linalg.eigvalsh(dec.rho_hat(s))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert is_effectively_pure(dec)

    # maximally mixed on the 6-fold shell: full weight, block I/6
    members = BASIS.shells.members[1]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[members, members] = 1.0 / 6.0
    dec = reduce(DensityMatrix(m), BASIS)
    assert dec.weights[1] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(dec.rho_hat(1), np.eye(6) / 6.0, atol=1e-14)


def test_two_shell_mixture_entropies_add_unweighted():
    # two shells holding maximally mixed sub-blocks of ranks 2 and 3:
    # the per-shell entropies ln 2 and ln 3 add without lambda weights
    sub2 = BASIS.shells.members[1][:2]
    sub3 = BASIS.shells.members[2][:3]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[sub2, sub2] = 0.5 / 2.0
    m[sub3, sub3] = 0.5 / 3.0
    dec = reduce(DensityMatrix(m), BASIS)
    assert effective_entropy(dec) == pytest.approx(np.log(2) + np.log(3), abs=1e-12)


def test_nondegenerate_shells_make_every_state_effectively_pure():
    line = build_basis_1d(6, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = random_density_matrix(line.size, rng)
        assert is_effectively_pure(reduce(rho, line))


def test_expectation_identity_and_free_energy():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(BASIS.size, rng)
    dec = reduce(rho, BASIS)

    identity_blocks = [np.eye(len(m)) for m in BASIS.shells.members]
    assert _shell_expectation(identity_blocks, rho, BASIS) == pytest.approx(1.0, abs=1e-12)

    h0_blocks = [
        e * np.eye(len(m)) for e, m in zip(BASIS.shells.energies, BASIS.shells.members)
    ]
    free_energy = float((dec.weights * BASIS.shells.energies).sum())
    assert _shell_expectation(h0_blocks, rho, BASIS) == pytest.approx(free_energy, abs=1e-12)

    # random shell-block-diagonal observable against the full-trace oracle
    full = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    blocks = []
    for members in BASIS.shells.members:
        g = rng.standard_normal((len(members), len(members)))
        g = g + 1j * rng.standard_normal(g.shape)
        block = (g + g.conj().T) / 2
        blocks.append(block)
        full[np.ix_(members, members)] = block
    value = _shell_expectation(blocks, rho, BASIS)
    assert value == pytest.approx(float(np.trace(full @ rho.matrix).real), abs=1e-10)


def test_free_evolution_leaves_reduction_blocks_fixed():
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    rho = random_density_matrix(BASIS.size, np.random.default_rng(7))
    before = reduce(rho, BASIS)
    for t in (0.3, 1.7, 4.0):
        after = reduce(evolve(rho, h0, t), BASIS)
        np.testing.assert_allclose(after.weights, before.weights, atol=1e-10)
        for ba, bb in zip(after.blocks, before.blocks):
            np.testing.assert_allclose(ba, bb, atol=1e-10)


def test_pure_initial_state_keeps_global_entropy_zero():
    h = build_hamiltonian(BASIS, 0.3, 1.0)
    rho0 = pure_to_density(random_pure_state(BASIS.size, np.random.default_rng(5)))
    for row in entropy_trace(rho0, h, np.linspace(0.0, 2.0, 5), BASIS):
        assert abs(row.global_entropy) <= 1e-8
        assert row.purity == pytest.approx(1.0, abs=1e-10)


def _array_holders():
    """One fresh instance of every frozen value type that holds arrays."""
    rng = np.random.default_rng(8)
    rho = random_effectively_pure_state(BASIS, rng)
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    grid = koopman.PhaseSpaceGrid(nq=8, n_p=8, dq=2 * np.pi / 8, dp=0.5)
    density = koopman.gaussian_density(grid, q0=1.0, p0=0.5, sigma_q=0.7, sigma_p=0.6)
    alpha = alpha_decompose(rho.matrix, BASIS)
    return {
        "MomentumBasis": build_basis(1, 1.0),
        "ShellTable": build_basis(1, 1.0).shells,
        "DensityMatrix": random_density_matrix(4, rng),
        "PureState": random_pure_state(4, rng),
        "Propagator": h.propagator,
        "Superoperator": commutator_superoperator(np.eye(2)),
        "AlphaDecomposition": alpha,
        "_Components": alpha.components,
        "ShellDecomposition": reduce(rho, BASIS),
        "TraceRow": entropy_trace(rho, h, [0.0], BASIS)[0],
        "PhaseSpaceDensity": density,
        "BetaMarginal": koopman.classical_reduce(density),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_value_types_holding_arrays_compare_by_identity(name):
    # elementwise == on their arrays used to make == raise ValueError
    x, y = _array_holders()[name], _array_holders()[name]
    assert type(x).__name__ == name and x is not y
    assert x == x and not x != x
    assert x != y and not x == y


def _value_records():
    """One fresh instance of every frozen value type compared by value."""
    quantum, classical = harness.demo_config("yukawa-mixing"), harness.demo_config("classical-kick")
    return {
        "CubicLattice": quantum.lattice,
        "LineLattice": config.LineLattice(n_points=4, delta_k=0.5),
        "PhaseSpaceGrid": classical.lattice,
        "YukawaConfig": quantum.potential,
        "KickConfig": classical.potential,
        "InitialStateConfig": quantum.initial_state,
        "TimeGridConfig": quantum.time_grid,
        "OutputsConfig": quantum.outputs,
        "ExperimentConfig": quantum,
        "RunSummary": harness.RunSummary(mode="quantum", config=quantum.echo, csv_path="t.csv",
                                         wall_time_s=0.5, invariant_checks={"check": True}),
    }


def _records():
    """One fresh instance of each of the 22 frozen value types, with every
    array a ``_DenseOnDemand`` field would build still unbuilt."""
    factored = pure_to_density(random_pure_state(4, np.random.default_rng(9)))
    return {**_array_holders(), **_value_records(), "DensityMatrix": factored}


@pytest.mark.parametrize("name", sorted(_records()))
def test_every_value_type_is_frozen_and_compares_as_declared(name):
    x, y = _records()[name], _records()[name]
    names = type(x)._fields
    assert type(x).__name__ == name and x is not y and names
    for field in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    # repr reads no lazy field, which would build its dense array
    lazy = [f for f in names if isinstance(vars(type(x)).get(f), _DenseOnDemand)]
    assert repr(x).startswith(f"{name}(") and "echo=" not in repr(x)
    assert all(x.__dict__["_" + f] is None for f in lazy)
    assert bool(lazy) == (name in ("DensityMatrix", "PhaseSpaceDensity"))
    if name not in _value_records():
        assert x == x and x != y
        return
    assert x == y and not x != y and x != tuple(getattr(x, f) for f in names)
    assert type(x)(*(getattr(x, f) for f in names)) == type(x)(**{f: getattr(x, f) for f in names}) == x
    if name in ("ExperimentConfig", "RunSummary"):  # they hold dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(x) == hash(y) and len({x, y}) == 1


def test_a_value_record_equals_only_its_own_type():
    cubic = config.CubicLattice(1, 1.0)
    assert cubic == config.CubicLattice(extent=1, delta_k=1.0)
    assert cubic != config.LineLattice(1, 1.0) and cubic != (1, 1.0)


def test_a_record_takes_each_field_once_positionally_or_by_keyword():
    assert config.InitialStateConfig("pure-random").seed is None
    assert config.InitialStateConfig("pure-random", 3) == config.InitialStateConfig("pure-random", seed=3)
    for args, kwargs in [((0.1,), {}), ((0.1, 1.0, 2.0), {}), ((0.1,), {"coupling": 0.2}),
                         ((0.1, 1.0), {"bogus": 1})]:
        message = (f"YukawaConfig() takes (coupling, screening), each once, "
                   f"got {len(args)} positional and {sorted(kwargs)} by keyword")
        with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
            config.YukawaConfig(*args, **kwargs)
