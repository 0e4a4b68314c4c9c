import json
import re
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab import config, harness, koopman
from lelab._record import _row_blocks
from lelab._rng import default_rng
from lelab.basis import build_basis, build_basis_1d
from lelab.config import validate_config
from lelab.dynamics import Propagator, build_hamiltonian, commutator_superoperator
from lelab.errors import StateValidationError
from lelab.reduction import (
    RANK_TOL,
    TAU_LAMBDA,
    alpha0_flow,
    alpha_decompose,
    bohr_labels,
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
    density_factor,
)

BASIS = build_basis(1, 1.0)


def _dense_blocks(m, basis):
    """Oracle: the raw shell blocks of a dense matrix, copied with np.ix_."""
    return [m[np.ix_(mem, mem)] for mem in basis.shells.members]


def _block_diagonal(m, basis):
    """Oracle: the shell-block-diagonal part of a dense matrix."""
    out = np.zeros(m.shape, dtype=complex)
    for mem, block in zip(basis.shells.members, _dense_blocks(m, basis)):
        out[np.ix_(mem, mem)] = block
    return out


def _first_order_blocks(dec):
    """The shell blocks of a ``first_order_reduced_step``: its ``grams`` are
    the blocks themselves, and a one-member shell's block is its weight."""
    return [np.array([[w]]) if g is None else g for g, w in zip(dec.grams, dec.weights)]


def _top_eigenvalues(a, b):
    """The largest min(len(a), len(b)) eigenvalues of Hermitian a and b."""
    k = min(len(a), len(b))
    return np.linalg.eigvalsh(a)[len(a) - k:], np.linalg.eigvalsh(b)[len(b) - k:]


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
    np.testing.assert_array_equal(dec.components[-1],
                                  np.where(bohr_labels(BASIS) == dec.sector_labels[-1], rho.matrix, 0))
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


def _held_by_decomposition(m, basis):
    """(decomposition, bytes it holds that tracemalloc saw allocated)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = alpha_decompose(m, basis)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return dec, held


def test_alpha_decomposition_of_a_frozen_matrix_holds_no_n_by_n_array():
    basis = build_basis(2, 1.0)
    m = random_density_matrix(basis.size, np.random.default_rng(9)).matrix  # read-only
    dec, held = _held_by_decomposition(m, basis)
    assert len(dec.alphas) == 25
    # no copy of the matrix, no label matrix and no sector matrices: O(n) bookkeeping
    assert held <= 64 * basis.size < m.nbytes


def test_alpha_decomposition_of_a_writable_matrix_holds_one_copy():
    basis = build_basis(2, 1.0)
    m = random_density_matrix(basis.size, np.random.default_rng(9)).matrix.copy()
    dec, held = _held_by_decomposition(m, basis)
    assert len(dec.alphas) == 25
    assert m.nbytes <= held <= m.nbytes + 64 * basis.size


def test_a_frozen_complex_matrix_is_held_not_copied():
    m = random_density_matrix(BASIS.size, np.random.default_rng(8)).matrix
    assert not m.flags.writeable
    assert DensityMatrix(m).matrix is m
    assert alpha_decompose(m, BASIS).matrix is m
    # a frozen view that is not C-ordered is copied once into C order,
    # so that components can index the matrix flat
    mt = m.T
    dec = alpha_decompose(mt, BASIS)
    assert dec.matrix is not mt and dec.matrix.flags.c_contiguous and not dec.matrix.flags.writeable
    assert DensityMatrix(mt).matrix.flags.c_contiguous
    for label, comp in zip(dec.sector_labels, dec.components, strict=True):
        assert comp.tobytes() == np.where(bohr_labels(BASIS) == label, mt, 0).tobytes()


def test_a_writable_matrix_is_copied_and_later_writes_reach_neither_object():
    m = random_density_matrix(BASIS.size, np.random.default_rng(8)).matrix.copy()
    frozen_view = m[:]
    frozen_view.flags.writeable = False  # read-only, but its base is not
    kept = m.copy()
    objects = (DensityMatrix(m), alpha_decompose(m, BASIS),
               DensityMatrix(frozen_view), alpha_decompose(frozen_view, BASIS))
    m[:] = 0.0
    for obj in objects:
        assert obj.matrix is not m and obj.matrix is not frozen_view
        assert not obj.matrix.flags.writeable
        np.testing.assert_array_equal(obj.matrix, kept)


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
    block_diag = _block_diagonal(rho.matrix, BASIS)
    np.testing.assert_array_equal(dec.components[dec.alphas.tolist().index(0.0)], block_diag)


LABEL_BASES = {"M1": BASIS, "M2": build_basis(2, 0.7), "N16": build_basis_1d(16, 1.3)}


@pytest.mark.parametrize("lattice", sorted(LABEL_BASES))
def test_sector_labels_are_the_distinct_labels_of_the_nonzero_elements(lattice):
    basis = LABEL_BASES[lattice]
    rho = random_density_matrix(basis.size, np.random.default_rng(3))
    zero = np.zeros((basis.size, basis.size))
    for m in (zero, rho.matrix, _block_diagonal(rho.matrix, basis)):
        dec = alpha_decompose(m, basis)
        labels = bohr_labels(basis)
        expected = np.unique(labels[m != 0]) if m.any() else np.zeros(1, dtype=labels.dtype)
        assert dec.sector_labels.dtype == expected.dtype
        np.testing.assert_array_equal(dec.sector_labels, expected)


@pytest.mark.parametrize("t", [0.0, 0.37, -2.5, 1e6])
@pytest.mark.parametrize("lattice", sorted(LABEL_BASES))
def test_free_phase_law_is_the_elementwise_formula(lattice, t):
    basis = LABEL_BASES[lattice]
    dec = alpha_decompose(random_density_matrix(basis.size, np.random.default_rng(1)).matrix, basis)
    elementwise = np.exp(1j * (bohr_labels(basis) * basis.delta_k**2) * t) * dec.matrix
    assert free_phase_law(dec, t).tobytes() == elementwise.tobytes()


def test_row_blocks_cover_every_row_once():
    for rows, width in [(343, 343), (1000, 1000), (7, 3), (5, (1 << 16) + 1), (0, 10)]:
        blocks = _row_blocks(rows, width)
        covered = np.concatenate([np.arange(rows)[r] for r in blocks] + [np.zeros(0, int)])
        np.testing.assert_array_equal(covered, np.arange(rows))
        assert all(r.stop - r.start == max(1, (1 << 16) // width) for r in blocks)
    assert [r.stop - r.start for r in _row_blocks(5, (1 << 16) + 1)] == [1] * 5
    assert _row_blocks(0, 10) == _row_blocks(0, 0) == []


# Both span many row blocks: 2**16 elements are 49 rows at M = 5, 65 at N = 1000.
BLOCKED_BASES = {"M5": build_basis(5, 0.7), "N1000": build_basis_1d(1000, 1.3)}


def _few_sector_matrix(basis):
    """(m, labels, off): a seeded rank-6 complex matrix kept on five labels
    (-2 and 1 do not occur on the line), with a -0.0 on the diagonal and
    one at ``off``, in the last row and in no kept sector."""
    rng = np.random.default_rng(2)
    g = rng.normal(size=(basis.size, 6)) + 1j * rng.normal(size=(basis.size, 6))
    labels = bohr_labels(basis)
    kept = np.isin(labels, [-2, 0, 1, 3, 7])
    m = np.where(kept, g @ g.conj().T, 0)
    off = tuple(np.argwhere(~kept)[-1])
    m[off] = complex(-0.0, -0.0)
    m[1, 1] = complex(-0.0, 0.0)
    return m, labels, off


@pytest.mark.parametrize("lattice", sorted(BLOCKED_BASES))
def test_sector_matrices_are_the_label_oracle_byte_for_byte(lattice):
    basis = BLOCKED_BASES[lattice]
    m, labels, off = _few_sector_matrix(basis)
    dec = alpha_decompose(m, basis)
    assert dec.sector_labels.tolist() == ([-2, 0, 1, 3, 7] if lattice == "M5" else [0, 3, 7])
    for label, comp in zip(dec.sector_labels, dec.components):
        assert comp.tobytes() == np.where(labels == label, m, 0).tobytes()
    whole = dec.reconstruct()
    assert whole.tobytes() == np.where(np.isin(labels, dec.sector_labels), m, 0).tobytes()
    assert whole[off].tobytes() == bytes(16) != m[off].tobytes()  # +0.0 off the sectors
    for t in (0.37, -2.5, 1e6):
        elementwise = np.exp(1j * (labels * basis.delta_k**2) * t) * m
        assert free_phase_law(dec, t).tobytes() == elementwise.tobytes()


SHELL_PAIR_BASES = {"M0": build_basis(0, 1.0), "M1": BASIS, "M3": build_basis(3, 0.7),
                    "N1": build_basis_1d(1, 1.3), "N16": LABEL_BASES["N16"]}


@pytest.mark.parametrize("lattice", sorted(SHELL_PAIR_BASES))
def test_shell_pair_sectors_are_the_label_oracle_byte_for_byte(lattice, monkeypatch):
    basis = SHELL_PAIR_BASES[lattice]
    labels = bohr_labels(basis)
    rho = random_density_matrix(basis.size, np.random.default_rng(5)).matrix
    zero = np.zeros((basis.size, basis.size))
    decs = [alpha_decompose(m, basis) for m in (rho, zero)]
    # a sector matrix reads shell pairs, never the labels
    monkeypatch.delattr("lelab.reduction.bohr_labels")
    dense, empty = decs
    assert len(dense.components) == len(np.unique(labels))
    for label, comp in zip(dense.sector_labels, dense.components, strict=True):
        assert comp.tobytes() == np.where(labels == label, rho, 0).tobytes()
    assert dense.components[-1].tobytes() == dense.components[len(dense.alphas) - 1].tobytes()
    with pytest.raises(IndexError):
        dense.components[len(dense.alphas)]
    # the zero matrix keeps one empty alpha = 0 sector
    assert empty.sector_labels.tolist() == [0] and empty.alphas.tolist() == [0.0]
    (only,) = empty.components
    assert only.dtype == complex and only.tobytes() == bytes(16 * basis.size**2)


def _extra_bytes(build) -> int:
    """Peak memory ``build()`` takes beyond the array it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = build()
        return tracemalloc.get_traced_memory()[1] - before - out.nbytes
    finally:
        tracemalloc.stop()


def test_a_sector_matrix_holds_one_output_and_one_block():
    basis = BLOCKED_BASES["M5"]
    m = random_density_matrix(basis.size, np.random.default_rng(3), rank=45).matrix
    dec = alpha_decompose(m, basis)
    for build in (lambda: dec.components[len(dec.alphas) // 2], dec.reconstruct):
        # reconstruct's block of 2**16 labels (int64), their shifted copy
        # and a bool mask are 17 bytes an element; an n x n bool mask
        # alone is 1.8 MB
        assert _extra_bytes(build) <= 24 * (1 << 16) < basis.size**2


@pytest.mark.parametrize("lattice", sorted(BLOCKED_BASES))
def test_a_sector_matrix_holds_one_shell_pair_block(lattice):
    basis = BLOCKED_BASES[lattice]
    m = random_density_matrix(basis.size, np.random.default_rng(3), rank=45).matrix
    dec = alpha_decompose(m, basis)
    # one shell-pair block's flat indices and values (24 bytes an
    # element) and a few arrays over the shells: the bound is 165 KB at
    # M = 5 and 63 KB at N = 1000, where a block of 2**16 labels is 1 MB
    bound = 2 * 16 * max(map(len, basis.shells.members))**2 + 64 * basis.n_shells
    k = len(dec.alphas)
    for i in sorted({k // 2, k - 1, *range(0, k, max(1, k // 12))}):
        assert _extra_bytes(lambda: dec.components[i]) <= bound


def test_free_phase_law_holds_no_table_over_the_labels():
    basis = BLOCKED_BASES["N1000"]
    dec = alpha_decompose(random_density_matrix(basis.size, np.random.default_rng(3), rank=8).matrix, basis)
    # one phase per label in [lo, -lo] was 1,999,999 complex phases and
    # their alphas, 61 MB above the output; a row block's phases per
    # (row, column shell) pair and their gather are about 3 MB
    assert _extra_bytes(lambda: free_phase_law(dec, 0.37)) <= 8 << 20
    # t is refused by the end labels of [lo, -lo], not by the labels present
    diagonal = alpha_decompose(np.eye(basis.size), basis)
    assert diagonal.sector_labels.tolist() == [0]
    with pytest.raises(ValueError, match="t must be finite"):
        free_phase_law(diagonal, 1e303)


@given(seed=st.integers(0, 10_000), t=st.floats(-10.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_free_phase_law_matches_exact_evolution(seed, t):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(BASIS.size, rng)
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    via_phases = free_phase_law(alpha_decompose(rho.matrix, BASIS), t)
    via_evolution = h0.propagator.evolve(rho, t).matrix
    assert np.abs(via_phases - via_evolution).max() <= 1e-10


def test_the_bohr_sector_checks_hold_at_cubic_m4():
    # perfbench/bohr_driver.py's three checks on rho(t) of the seeded
    # effectively pure state, at n = 729: 97 sectors, each an n x n matrix
    cfg = validate_config(json.dumps({
        "mode": "quantum", "lattice": {"M": 4, "delta_k": 1.0},
        "potential": {"A": 0.2, "mu": 1.0},
        "initial_state": {"kind": "effectively-pure-mixed", "seed": 11},
        "time_grid": {"t_max": 2.5, "steps": 1},
    }))
    basis = harness.build_quantum_basis(cfg)
    t = cfg.time_grid.t_max
    h = build_hamiltonian(basis, cfg.potential.coupling, cfg.potential.screening)
    m = h.propagator.evolve(harness.build_initial_state(cfg, basis), t).matrix
    dec = alpha_decompose(m, basis)
    assert basis.size == 729 and len(dec.alphas) == 97
    norms = [np.linalg.norm(c) for c in dec.components]
    assert abs(np.linalg.norm(norms) - np.linalg.norm(m)) <= 1e-12
    assert dec.reconstruct().tobytes() == m.tobytes()
    free = build_hamiltonian(basis, 0.0, cfg.potential.screening)
    direct = free.propagator.evolve(DensityMatrix(m), t).matrix
    assert np.abs(free_phase_law(dec, t) - direct).max() <= 1e-10


def test_reduce_weights_are_shell_traces():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(11))
    dec = reduce(rho, BASIS)
    assert dec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for s, block in enumerate(_dense_blocks(rho.matrix, BASIS)):
        assert dec.weights[s] == pytest.approx(np.trace(block).real, abs=1e-14)
        # the Gram matrix holds the block's nonzero spectrum; none for a 1 x 1 block
        assert (dec.grams[s] is None) == (len(block) == 1)
        if dec.grams[s] is not None:
            np.testing.assert_allclose(*_top_eigenvalues(dec.grams[s], block), atol=1e-14)


def test_reduce_is_idempotent():
    rho = random_density_matrix(BASIS.size, np.random.default_rng(13))
    block_diag = _block_diagonal(rho.matrix, BASIS)
    for b1, b2 in zip(_dense_blocks(rho.matrix, BASIS), _dense_blocks(block_diag, BASIS)):
        np.testing.assert_array_equal(b1, b2)
    # the block-diagonal part is a state, and reducing it changes nothing
    once, again = reduce(rho, BASIS), reduce(DensityMatrix(block_diag), BASIS)
    np.testing.assert_allclose(again.weights, once.weights, rtol=0, atol=1e-14)
    for g1, g2 in zip(once.grams, again.grams, strict=True):
        assert (g1 is None) == (g2 is None)
        if g1 is not None:
            np.testing.assert_allclose(*_top_eigenvalues(g1, g2), rtol=0, atol=1e-14)


def test_effective_entropy_of_shell_mixture():
    # maximally mixed on the 6-fold shell: S_eff = ln 6 regardless of weight
    members = BASIS.shells.members[1]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[members, members] = 1.0 / len(members)
    dec = reduce(DensityMatrix(m), BASIS)
    assert shell_entropies(dec).sum() == pytest.approx(np.log(6), abs=1e-12)
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
    np.testing.assert_array_equal(dec.weights > TAU_LAMBDA, [True, False, False, False])
    assert shell_entropies(dec).sum() == 0.0
    assert is_effectively_pure(dec)


def _shell_expectation(shell_ops, rho, basis):
    """Tr(A rho) of a shell-block-diagonal A, one Hermitian block per shell,
    read from the raw shell blocks alone."""
    blocks = _dense_blocks(rho.matrix, basis)
    return float(sum(np.trace(op @ b) for op, b in zip(shell_ops, blocks)).real)


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
    after = _shell_expectation(ops, h0.propagator.evolve(rho, 3.7), BASIS)
    assert after == pytest.approx(before, abs=1e-10)


def test_first_order_step_error_is_second_order():
    h = build_hamiltonian(BASIS, 0.05, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(5))
    errs = []
    ts = [0.02, 0.04]
    for t in ts:
        exact = _dense_blocks(h.propagator.evolve(rho0, t).matrix, BASIS)
        approx = _first_order_blocks(first_order_reduced_step(rho0, h, t, BASIS))
        errs.append(np.sqrt(sum(np.linalg.norm(e - a) ** 2 for e, a in zip(exact, approx))))
    # doubling t quadruples the error
    assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.05)


def test_first_order_step_is_exact_for_free_evolution():
    h0 = build_hamiltonian(BASIS, 0.0, 1.0)
    rho0 = random_density_matrix(BASIS.size, np.random.default_rng(17))
    exact = _dense_blocks(h0.propagator.evolve(rho0, 0.3).matrix, BASIS)
    approx = _first_order_blocks(first_order_reduced_step(rho0, h0, 0.3, BASIS))
    for b1, b2 in zip(exact, approx, strict=True):
        np.testing.assert_allclose(b1, b2, atol=1e-12)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_first_order_step_matches_the_dense_step(M):
    # oracle: the shell blocks of the dense rho0 - i t [v, rho0]
    basis = build_basis(M, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    rho0 = random_effectively_pure_state(basis, np.random.default_rng(5))
    m, v, t = rho0.matrix, h.v, 0.3
    dense = _dense_blocks(m - 1j * t * (v @ m - m @ v), basis)
    dec = first_order_reduced_step(rho0, h, t, basis)
    for block, step in zip(dense, _first_order_blocks(dec), strict=True):
        np.testing.assert_allclose(step, block, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dec.weights, [np.trace(b).real for b in dense], rtol=0, atol=1e-15)


def _peak_above_inputs(step):
    """tracemalloc peak of ``step()`` above the memory held when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("step, M", [("reduce", 7), ("first-order", 5)])
def test_the_factored_reduction_stays_below_one_dense_state(step, M):
    # one n x n complex array is 182 MB at M = 7 (n = 3375) and 28 MB at M = 5
    basis = build_basis(M, 1.0)
    rho = random_effectively_pure_state(basis, np.random.default_rng(11))
    if step == "reduce":
        peak = _peak_above_inputs(lambda: reduce(rho, basis))
    else:
        h = build_hamiltonian(basis, 0.2, 1.0)
        peak = _peak_above_inputs(lambda: first_order_reduced_step(rho, h, 0.1, basis))
        assert "v" not in vars(h)
    assert "matrix" not in vars(rho)
    assert peak < 16 * basis.size**2


@pytest.mark.parametrize("size", [8, 64])
def test_entropy_trace_refuses_a_basis_off_the_state_size(size):
    # a smaller basis used to fail as "state at t = 0.0 has trace 0.22"
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    other = build_basis_1d(size, 1.0)
    with pytest.raises(ValueError, match=f"state of size 27 does not match basis of size {size}"):
        entropy_trace(rho0, h, [0.0, 1.0], other)


def test_entropy_trace_rows_follow_grid():
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    times = np.linspace(0.0, 2.0, 9)
    rows = entropy_trace(rho0, h, times, BASIS)
    assert [r.t for r in rows] == times.tolist()
    assert rows[0].effective_entropy <= 1e-12
    assert rows[0].effectively_pure


def test_a_generator_of_times_gives_the_rows_of_a_list():
    # the grid was read twice, so a one-shot iterable paired each t with the next C(t)
    h = build_hamiltonian(BASIS, 0.2, 1.0)
    rho0 = random_effectively_pure_state(BASIS, np.random.default_rng(6))
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    listed = entropy_trace(rho0, h, times, BASIS)
    streamed = entropy_trace(rho0, h, (t for t in times), BASIS)
    assert [r.t for r in streamed] == times
    for a, b in zip(listed, streamed, strict=True):
        assert (a.effective_entropy, a.alpha0_purity, a.coarse_entropy) == (
            b.effective_entropy, b.alpha0_purity, b.coarse_entropy)
        assert a.shell_entropies.tobytes() == b.shell_entropies.tobytes()


def test_reduce_and_every_trace_row_share_one_shell_reduction():
    # the yukawa-mixing demo state has multi-member shells of rank above one
    cfg = harness.demo_config("yukawa-mixing")
    basis = harness.build_quantum_basis(cfg)
    h = build_hamiltonian(basis, cfg.potential.coupling, cfg.potential.screening)
    rho0 = harness.build_initial_state(cfg, basis)
    times = cfg.time_grid.times()
    rows = entropy_trace(rho0, h, times, basis)
    assert len(rows) == len(times)
    for row, t in zip(rows, times):
        dec = reduce(h.propagator.evolve(rho0, t), basis)
        assert shell_entropies(dec).tobytes() == row.shell_entropies.tobytes()
        w = dec.weights
        assert row.coarse_entropy == entropy_from_eigenvalues(w) + float(w @ row.shell_entropies)
    assert max(r.effective_entropy for r in rows) > 1e-2  # the rows cover mixing


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
        rho_t = h.propagator.evolve(rho0, t)
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


@pytest.mark.parametrize("state", ["effectively-pure", "pure"])
def test_p0_and_s_cg_are_the_alpha0_component_purity_and_entropy(state):
    # at M = 2 the rank-19 state has a Gram matrix larger than 1 x 1 on most
    # shells; the pure state has none, so P0 is all squared weights there
    basis = build_basis(2, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    rng = np.random.default_rng(31)
    rho0 = (random_effectively_pure_state(basis, rng) if state == "effectively-pure"
            else pure_to_density(random_pure_state(basis.size, rng)))
    times = np.linspace(0.0, 5.0, 4)
    rows = entropy_trace(rho0, h, times, basis)
    for row, t in zip(rows, times):
        dec = alpha_decompose(h.propagator.evolve(rho0, t).matrix, basis)
        zero = dec.components[int(np.flatnonzero(dec.sector_labels == 0)[0])]
        assert row.alpha0_purity == pytest.approx(np.vdot(zero, zero).real, rel=0, abs=1e-12)
        s_cg = entropy_from_eigenvalues(np.linalg.eigvalsh(zero))
        assert row.coarse_entropy == pytest.approx(s_cg, rel=0, abs=1e-12)
        assert row.global_entropy <= row.coarse_entropy and -np.log(row.alpha0_purity) <= s_cg
    assert abs(rows[-1].alpha0_purity - rows[0].alpha0_purity) > 1e-3  # the interaction moves P0


def _diagonal_mu_state(basis, seed):
    """A shell-block-diagonal state: one unit vector per shell, mixed by a diagonal mu."""
    rng = np.random.default_rng(seed)
    p = rng.random(basis.n_shells) + 0.1
    return random_effectively_pure_state(basis, rng, mu=np.diag(p / p.sum()))


@pytest.mark.parametrize("A", [0.05, 0.2])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_a_block_diagonal_state_leaves_alpha_zero_at_kappa_t_squared(M, A):
    basis = build_basis(M, 1.0)
    h = build_hamiltonian(basis, A, 1.0)
    rho0 = _diagonal_mu_state(basis, 11)
    c1, kappa = alpha0_flow(rho0, h, basis)
    t = 1e-3
    first, later = entropy_trace(rho0, h, [0.0, t], basis)
    assert abs(c1) <= 1e-12
    assert abs((first.alpha0_purity - later.alpha0_purity) / (kappa * t**2) - 1) <= 1e-3


def test_the_seeded_state_leaves_alpha_zero_at_c1_t():
    # the seeded effectively pure state has off-shell blocks, so P0 moves at first order
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.05, 1.0)
    rho0 = random_effectively_pure_state(basis, default_rng(11))
    c1, _ = alpha0_flow(rho0, h, basis)
    t = 1e-4
    first, later = entropy_trace(rho0, h, [0.0, t], basis)
    assert c1 * t == pytest.approx(later.alpha0_purity - first.alpha0_purity, rel=1e-2)


def _dense_alpha0_flow(rho0, h, basis):
    """Oracle: c1 and kappa from the dense K = [v, rho0] and its np.ix_ shell blocks."""
    m = rho0.matrix
    k = h.v @ m - m @ h.v
    off, c1 = k.copy(), 0.0
    for mem in basis.shells.members:
        ix = np.ix_(mem, mem)
        c1 += 2 * np.trace(m[ix] @ (-1j * k[ix])).real
        off[ix] = 0.0
    return c1, np.vdot(off, off).real


@pytest.mark.parametrize("lattice", ["M1", "M2", "N16"])
@pytest.mark.parametrize("state", ["pure", "rank-4", "full", "seeded", "diagonal-mu"])
def test_alpha0_flow_matches_the_dense_commutator(lattice, state):
    # the states cover every shell form: r = 1, one-member shells with r > 1,
    # and shells with more members than r and with fewer
    basis = build_basis(int(lattice[1:]), 1.0) if lattice[0] == "M" else build_basis_1d(16, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    rng = np.random.default_rng(5)
    if state == "pure":
        rho0 = pure_to_density(random_pure_state(basis.size, rng))
    elif state in ("rank-4", "full"):
        rho0 = random_density_matrix(basis.size, rng, rank=4 if state == "rank-4" else None)
    elif state == "seeded":
        rho0 = random_effectively_pure_state(basis, rng)
    else:
        rho0 = _diagonal_mu_state(basis, 5)
    c1, kappa = alpha0_flow(rho0, h, basis)
    assert "v" not in vars(h)  # the dense v is the oracle's alone
    want_c1, want_kappa = _dense_alpha0_flow(rho0, h, basis)
    assert kappa == pytest.approx(want_kappa, rel=1e-12, abs=0)
    assert c1 == pytest.approx(want_c1, rel=0, abs=1e-12)


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
        density_factor(x)
        spectrum = np.linalg.eigvalsh(x)
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
    rho = pure_to_density(PureState(amp))
    dec, blocks = reduce(rho, BASIS), _dense_blocks(rho.matrix, BASIS)
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(blocks[0] / dec.weights[0], [[1.0]], atol=1e-14)
    assert not (dec.weights[1:] > TAU_LAMBDA).any()

    # equal superposition across two shells: half weight each, rank-1 blocks,
    # and the cross-shell coherence is dropped by the reduction
    amp = np.zeros(BASIS.size, dtype=complex)
    amp[[BASIS.index_of((0, 0, 0)), BASIS.index_of((1, 0, 0))]] = 1.0 / np.sqrt(2)
    rho = pure_to_density(PureState(amp))
    dec, blocks = reduce(rho, BASIS), _dense_blocks(rho.matrix, BASIS)
    np.testing.assert_allclose(dec.weights[:2], [0.5, 0.5], atol=1e-14)
    for s in (0, 1):
        eigs = np.linalg.eigvalsh(blocks[s] / dec.weights[s])
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert is_effectively_pure(dec)

    # maximally mixed on the 6-fold shell: full weight, block I/6
    members = BASIS.shells.members[1]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[members, members] = 1.0 / 6.0
    rho = DensityMatrix(m)
    dec, blocks = reduce(rho, BASIS), _dense_blocks(rho.matrix, BASIS)
    assert dec.weights[1] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(blocks[1] / dec.weights[1], np.eye(6) / 6.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.eigvalsh(dec.grams[1] / dec.weights[1]),
                               np.full(6, 1 / 6.0), atol=1e-14)


def test_two_shell_mixture_entropies_add_unweighted():
    # two shells holding maximally mixed sub-blocks of ranks 2 and 3:
    # the per-shell entropies ln 2 and ln 3 add without lambda weights
    sub2 = BASIS.shells.members[1][:2]
    sub3 = BASIS.shells.members[2][:3]
    m = np.zeros((BASIS.size, BASIS.size), dtype=complex)
    m[sub2, sub2] = 0.5 / 2.0
    m[sub3, sub3] = 0.5 / 3.0
    dec = reduce(DensityMatrix(m), BASIS)
    assert shell_entropies(dec).sum() == pytest.approx(np.log(2) + np.log(3), abs=1e-12)


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
        rho_t = h0.propagator.evolve(rho, t)
        np.testing.assert_allclose(reduce(rho_t, BASIS).weights, before.weights, atol=1e-10)
        for ba, bb in zip(_dense_blocks(rho_t.matrix, BASIS), _dense_blocks(rho.matrix, BASIS)):
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
    array a ``cached_property`` field would build still unbuilt."""
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
    lazy = [f for f in names if isinstance(vars(type(x)).get(f), cached_property)]
    assert repr(x).startswith(f"{name}(") and "echo=" not in repr(x)
    assert not any(f in vars(x) for f in lazy)
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


@pytest.mark.parametrize("split, given, message", [
    (alpha_decompose, np.eye(8) / 8, r"matrix shape \(8, 8\) does not match basis of size 27"),
    (reduce, DensityMatrix(np.eye(8) / 8), "state of size 8 does not match basis of size 27"),
], ids=["alpha_decompose", "reduce"])
def test_a_matrix_off_the_basis_size_is_refused(split, given, message):
    with pytest.raises(ValueError, match=message):
        split(given, build_basis(1, 1.0))
