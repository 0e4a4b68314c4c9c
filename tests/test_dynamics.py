import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab.basis import build_basis, build_basis_1d
from lelab.dynamics import (
    Hamiltonian,
    Propagator,
    _sign_flips,
    build_hamiltonian,
    commutator_superoperator,
    liouvillian_superoperator,
)
from lelab.errors import DimensionCapError
from lelab.reduction import (
    alpha_decompose,
    alpha_offblock_norm,
    bohr_labels,
    entropy_trace,
    free_phase_law,
)
from lelab.states import (
    DensityMatrix,
    PureState,
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
)


def random_hamiltonian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = scale * (g + g.conj().T) / 2
    return Hamiltonian(h0_diag=rng.uniform(0, 5, dim), v=v)


def _eigenvalues(prop):
    """Every eigenvalue of the propagator's blocks, ascending."""
    return np.sort(np.concatenate([w for w, _ in prop.blocks]))


def test_hamiltonian_keeps_the_dtype_of_v():
    basis = build_basis(2, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    assert h.v.dtype == h.matrix.dtype == np.float64
    assert {hb.dtype for hb in h.blocks} == {q.dtype for _, q in h.propagator.blocks} == {np.dtype(float)}
    # the same H held as complex runs the same code in complex arithmetic
    hc = Hamiltonian(h0_diag=h.h0_diag, v=h.v.astype(complex))
    assert hc.v.dtype == hc.matrix.dtype == np.complex128
    ((_, qc),) = hc.propagator.blocks
    assert qc.dtype == np.complex128
    scale = np.abs(_eigenvalues(h.propagator)).max()
    gap = np.abs(_eigenvalues(h.propagator) - _eigenvalues(hc.propagator)).max()
    assert gap <= 1e-12 * scale
    assert np.abs(_unitary(h.propagator, 1.3) - _unitary(hc.propagator, 1.3)).max() <= 1e-12
    ints = Hamiltonian(h0_diag=np.zeros(2), v=np.array([[0, 1], [1, 0]]))
    assert ints.v.dtype == np.float64
    # superoperators stay complex whatever v is
    assert commutator_superoperator(h.v[:8, :8]).matrix.dtype == np.complex128


def _yukawa_fourier(k, coupling, screening):
    """Closed form of the momentum-space Yukawa amplitude 4 pi A / (mu (|k|^2 + mu^2)):
    the oracle for the entries v[i, j] = Vt(k_i - k_j) of ``build_hamiltonian``."""
    k = np.asarray(k, dtype=float)
    return 4.0 * np.pi * coupling / (screening * (float(k @ k) + screening * screening))


def test_yukawa_fourier_closed_form():
    # v[i, j] at a few exact momentum transfers n_i - n_j (delta_k = 1)
    basis = build_basis(1, 1.0)
    i0 = basis.index_of((0, 0, 0))

    def v(coupling, screening, n):
        return build_hamiltonian(basis, coupling, screening).v[basis.index_of(n), i0]

    assert v(1.0, 1.0, (0, 0, 0)) == pytest.approx(4 * np.pi)
    assert v(1.0, 1.0, (1, 0, 0)) == pytest.approx(2 * np.pi)
    assert v(2.0, 1.0, (1, 1, 1)) == pytest.approx(2 * np.pi)
    assert v(1.0, 2.0, (0, 0, 0)) == pytest.approx(np.pi / 2)
    assert v(0.5, 2.0, (1, 1, 0)) == pytest.approx(4 * np.pi * 0.5 / (2.0 * (2.0 + 4.0)))


def test_yukawa_fourier_positive_and_decaying():
    # on the line n = 1..6, v[j, 0] is the amplitude at momentum transfer j * delta_k
    basis = build_basis_1d(6, 0.9)
    vals = build_hamiltonian(basis, 0.7, 1.3).v[:, 0]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert list(vals) == pytest.approx([_yukawa_fourier([0.9 * j, 0, 0], 0.7, 1.3) for j in range(6)])


def test_build_hamiltonian_structure():
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.5, 2.0)
    m = h.matrix
    assert np.abs(m - m.conj().T).max() < 1e-14
    # kinetic part sits on the diagonal along with the constant self-term
    np.testing.assert_allclose(
        np.diag(m).real, basis.energies + _yukawa_fourier(np.zeros(3), 0.5, 2.0)
    )
    # off-diagonal elements depend only on the momentum transfer
    i = basis.index_of((0, 0, 0))
    j = basis.index_of((1, 0, 0))
    l = basis.index_of((0, 1, 0))
    assert m[i, j] == m[i, l]
    assert m[i, j] == pytest.approx(_yukawa_fourier(np.array([1.0, 0, 0]), 0.5, 2.0))


@pytest.mark.parametrize("lattice, extent, dk", [("cubic", 3, 0.7), ("cubic", 2, 1.3),
                                                 ("line", 64, 0.37)])
def test_build_hamiltonian_matches_difference_array_formula(lattice, extent, dk):
    # Reference: |n_i - n_j|^2 summed over an (n, n, 3) difference array.
    basis = build_basis(extent, dk) if lattice == "cubic" else build_basis_1d(extent, dk)
    d = basis.points[:, None, :] - basis.points[None, :, :]
    k2 = (d * d).sum(axis=-1) * dk**2
    expected = 4.0 * np.pi * 0.3 / (1.1 * (k2 + 1.1 * 1.1))
    assert np.array_equal(build_hamiltonian(basis, 0.3, 1.1).v, expected)


@pytest.mark.parametrize("screening", [0.0, -1.0, float("nan"), float("inf")])
def test_yukawa_rejects_non_positive_screening(screening):
    with pytest.raises(ValueError, match="screening"):
        build_hamiltonian(build_basis(1, 1.0), 1.0, screening)


@pytest.mark.parametrize("coupling", [float("nan"), float("inf"), -float("inf")])
def test_yukawa_refuses_a_coupling_that_is_not_finite(coupling):
    # a NaN coupling used to build NaN blocks, and an infinite one to warn first
    with pytest.raises(ValueError, match=f"^coupling must be finite, got {coupling}$"):
        build_hamiltonian(build_basis(1, 1.0), coupling, 1.0)


def test_coupling_zero_gives_free_hamiltonian():
    basis = build_basis_1d(5, 1.0)
    h = build_hamiltonian(basis, 0.0, 1.0)
    np.testing.assert_array_equal(h.matrix, np.diag(basis.energies))


def test_hamiltonian_rejects_non_hermitian_potential():
    with pytest.raises(ValueError):
        Hamiltonian(h0_diag=np.zeros(2), v=np.array([[0, 1], [0, 0]], dtype=complex))


def test_hamiltonian_refuses_a_nan_potential():
    with pytest.raises(ValueError, match="Hermitian"):
        Hamiltonian(np.zeros(2), np.full((2, 2), np.nan))


def test_the_hermitian_check_of_v_forms_no_n_by_n_temporary():
    # the constructor holds its copy of v and diag(h0) + v, and the check of
    # v takes a block of rows at a time; a whole-matrix |v - v^dagger| peaked
    # at 3.0 v.nbytes above the input
    rng = np.random.default_rng(3)
    n = 1024
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = g + g.conj().T
    del g
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        h = Hamiltonian(np.zeros(n), v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert h.v.dtype == np.complex128
    assert peak < 2.75 * v.nbytes


def test_hamiltonian_refuses_a_nan_h0():
    with pytest.raises(ValueError, match="h0_diag"):
        Hamiltonian(np.array([np.nan, 0.0]), np.zeros((2, 2)))


def test_hamiltonian_refuses_a_complex_h0():
    # its imaginary part used to be dropped with only a ComplexWarning
    with pytest.raises(ValueError, match="h0_diag must be real"):
        Hamiltonian(h0_diag=np.array([1 + 1j, 0.0]), v=np.zeros((2, 2)))


_M1 = build_basis(1, 1.0)


@pytest.mark.parametrize("refused, match", [
    (lambda: Hamiltonian(h0_diag=np.zeros((2, 2)), v=np.zeros((2, 2))), "h0_diag must be a vector"),
    (lambda: Hamiltonian(h0_diag=np.zeros(2), v=np.zeros((3, 3))), r"v must be 2x2, got \(3, 3\)"),
    (lambda: commutator_superoperator(np.zeros((2, 3))), "expected a square matrix"),
    (lambda: alpha_offblock_norm(np.zeros((27, 27)), _M1),
     r"operator shape \(27, 27\) does not match basis of size 27"),
], ids=["h0-not-a-vector", "v-shape", "not-square", "offblock-shape"])
def test_operator_constructors_refuse_malformed_input(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_eigenbasis_errors_of_the_yukawa_decomposition_are_roundoff():
    h = build_hamiltonian(build_basis(2, 1.0), 0.2, 1.0)
    orthonormality, residual = h.propagator.eigenbasis_errors(h)
    scale = max(np.abs(hb).max() for hb in h.blocks)  # the residual comes divided by it
    assert orthonormality <= 1e-13 and residual * scale <= 1e-13


ORACLE_BASES = {"M1": build_basis(1, 0.7), "M2": build_basis(2, 0.7), "M3": build_basis(3, 0.7),
                "N16": build_basis_1d(16, 0.7)}


def test_eigenbasis_errors_catch_the_eigenpairs_of_another_hamiltonian():
    for basis in ORACLE_BASES.values():
        h = build_hamiltonian(basis, 0.2, 1.0)
        other = build_hamiltonian(basis, 0.5, 1.0).propagator
        orthonormality, residual = other.eigenbasis_errors(h)
        assert orthonormality <= 1e-13  # they are unitary, so only the residual sees them
        assert residual > 1e-10
        # its eigenvalues alone, with the run's own eigenvectors, are refused too
        pairs = tuple((w, q) for (w, _), (_, q) in zip(other.blocks, h.propagator.blocks))
        assert Propagator(pairs, h.orbits).eigenbasis_errors(h)[1] > 1e-10


def _unitary(prop, t):
    """U(t) from the propagator: the evolved factor of B = I."""
    n = sum(len(w) for w, _ in prop.blocks)
    return next(prop.evolved_factors(np.eye(n, dtype=complex), [t]))


def _dense_unitary(h, t):
    """Oracle: U(t) from a dense eigh of the n x n H."""
    w, q = np.linalg.eigh(h.matrix)
    return (q * np.exp(-1j * w * t)) @ q.conj().T


@pytest.mark.parametrize("basis", [build_basis(m, 1.0) for m in range(5)] + [build_basis_1d(16, 1.0)],
                         ids=[f"M{m}" for m in range(5)] + ["N16"])
def test_sign_flip_orbits_match_the_unique_oracle(basis):
    group, reps, sizes, blocks, orbits = _sign_flips(basis.points)
    axes = int(np.bitwise_or.reduce(group))
    bits = 1 << np.arange(3)
    flipped = axes & bits > 0
    folded = np.where(flipped, np.abs(basis.points), basis.points)
    rows, counts = np.unique(folded, axis=0, return_counts=True)
    np.testing.assert_array_equal(reps, rows)
    np.testing.assert_array_equal(sizes, counts)
    # block e holds the orbits that are nonzero on every axis e is odd under,
    # characters descending (the trivial one last)
    characters = [e for e in range(7, -1, -1) if e & axes == e]
    assert [e for e, _ in blocks] == characters
    for e, members in blocks:
        np.testing.assert_array_equal(members, np.flatnonzero((rows[:, e & bits > 0] != 0).all(axis=1)))
    if axes == 0:
        assert orbits.groups == ()  # P = I
        return
    # one orbit group per set of nonzero flipped axes sigma; at[i, j] is the
    # lattice row of the flips sub[j] (the subsets of sigma, ascending) of rep i
    row_of = {tuple(p): i for i, p in enumerate(basis.points.tolist())}
    support = ((rows != 0) & flipped) @ bits
    expected = []
    for sigma in sorted(set(support.tolist())):
        sub = [u for u in range(8) if u & sigma == u]
        expected.append([[row_of[tuple(np.where(u & bits > 0, -r, r).tolist())] for u in sub]
                         for r in rows[support == sigma]])
    assert len(orbits.groups) == len(expected)
    for (at, _, _), oracle in zip(orbits.groups, expected):
        np.testing.assert_array_equal(at, oracle)


def test_sign_flips_of_a_reordered_cube_name_the_same_points():
    # the cube's rows are written down lexicographically and mapped to the
    # given order, so any order of the cube gets its eight flips
    points = build_basis(2, 1.0).points
    shuffled = points[np.random.default_rng(0).permutation(len(points))]
    *same, groups = _sign_flips(points)
    *same_shuffled, shuffled_groups = _sign_flips(shuffled)
    for a, b in zip(same[:3], same_shuffled[:3]):
        np.testing.assert_array_equal(a, b)
    assert len(shuffled_groups.groups) == len(groups.groups) == 8
    for (at, slots, chi), (at_s, slots_s, chi_s) in zip(groups.groups, shuffled_groups.groups):
        np.testing.assert_array_equal(shuffled[at_s], points[at])
        np.testing.assert_array_equal(slots_s, slots)
        np.testing.assert_array_equal(chi_s, chi)


@pytest.mark.parametrize("lattice", sorted(ORACLE_BASES))
def test_symmetry_blocks_match_the_dense_oracle(lattice):
    basis = ORACLE_BASES[lattice]
    h = build_hamiltonian(basis, 0.2, 1.0)
    n, hm = basis.size, h.matrix
    scale = np.abs(hm).max()
    sizes = [len(hb) for hb in h.blocks]
    assert sum(sizes) == n
    assert all(np.array_equal(hb, hb.T) for hb in h.blocks)  # exactly symmetric
    if lattice.startswith("M"):
        m = int(lattice[1:])
        assert len(sizes) == 8 and min(sizes) == m**3 and max(sizes) == (m + 1) ** 3
    else:
        assert sizes == [n] and h.orbits.groups == ()
    # P is orthogonal with at most eight nonzeros per row, and P^T H P is
    # block diagonal with the blocks of H on its diagonal
    p = h.orbits.to_lattice(np.eye(n))
    assert np.abs(p.T @ p - np.eye(n)).max() <= 1e-15
    assert (np.count_nonzero(p, axis=1) <= 8).all()
    stacked = p.T @ hm @ p
    bounds = np.cumsum([0] + sizes)
    for hb, lo, hi in zip(h.blocks, bounds[:-1], bounds[1:]):
        assert np.abs(stacked[lo:hi, lo:hi] - hb).max() <= 1e-14 * scale
        stacked[lo:hi, lo:hi] = 0.0
    assert np.abs(stacked).max() <= 1e-14 * scale
    # the eigenvalues of the blocks are those of the dense H
    dense = np.linalg.eigvalsh(hm)
    assert np.abs(_eigenvalues(h.propagator) - dense).max() <= 1e-12 * np.abs(dense).max()
    rho = random_effectively_pure_state(basis, np.random.default_rng(3))
    for t in (0.7, -2.4, 5.0):
        assert np.abs(_unitary(h.propagator, t) - _dense_unitary(h, t)).max() <= 1e-12
        out = h.propagator.evolve(rho, t).matrix
        assert np.abs(out - _dense_conjugation(h, rho, t)).max() <= 1e-12


def test_the_line_block_is_the_dense_hamiltonian_bit_for_bit():
    h = build_hamiltonian(build_basis_1d(64, 0.37), 0.3, 1.1)
    ((block,),) = (h.blocks,)
    assert block.tobytes() == h.matrix.tobytes()
    assert h.orbits.to_lattice(h.matrix) is h.matrix  # P = I, applied without a copy


def test_a_cubic_run_forms_no_dense_matrix():
    # M = 4, n = 729: the Hamiltonian's blocks, their eigh and the eigenbasis
    # check together stay below one dense real n x n matrix
    basis = build_basis(4, 0.7)
    n = basis.size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        h = build_hamiltonian(basis, 0.2, 1.0)
        orthonormality, residual = h.propagator.eigenbasis_errors(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orthonormality <= 1e-13 and residual <= 1e-14
    assert "v" not in vars(h) and "matrix" not in vars(h)
    assert peak < n * n * 8


@pytest.mark.parametrize("basis", [build_basis(2, 1.0), build_basis_1d(16, 1.0)],
                         ids=["M2", "N16"])
def test_evolved_factors_are_the_factors_evolve_returns(basis):
    prop = build_hamiltonian(basis, 0.2, 1.0).propagator
    rho0 = random_effectively_pure_state(basis, np.random.default_rng(5))
    times = np.linspace(0.0, 5.0, 11)
    factors = list(prop.evolved_factors(rho0.factor, times))
    assert len(factors) == len(times)
    for t, c in zip(times, factors):
        f = prop.evolve(rho0, t).factor
        assert c.shape == f.shape and c.tobytes() == f.tobytes()


SIZE_MISMATCHES = {
    "line": lambda: build_hamiltonian(build_basis_1d(4, 1.0), 0.2, 1.0),
    "cube": lambda: build_hamiltonian(build_basis(2, 1.0), 0.2, 1.0),
    "hand-built": lambda: Hamiltonian(np.arange(3.0), np.eye(3)),
}


@pytest.mark.parametrize("lattice", sorted(SIZE_MISMATCHES))
def test_a_state_off_the_hamiltonian_size_is_refused(lattice):
    # a one-block H used to leave the extra rows of np.empty_like unwritten,
    # and the cube's orbit map raised a bare IndexError
    h = SIZE_MISMATCHES[lattice]()
    basis = build_basis(1, 1.0)
    rho = random_effectively_pure_state(basis, np.random.default_rng(6))
    message = f"state of size 27 does not match H of dimension {h.dim}"
    with pytest.raises(ValueError, match=message):
        h.propagator.evolve(rho, 0.5)
    with pytest.raises(ValueError, match=message):
        next(h.propagator.evolved_factors(rho.factor, [0.5]))
    with pytest.raises(ValueError, match=message):
        entropy_trace(rho, h, [0.0, 0.5], basis)
    with pytest.raises(ValueError, match=message):
        h.v_product(rho.factor)


@pytest.mark.parametrize("lattice", ["M1", "M3", "N16", "hand-built"])
def test_v_product_matches_the_dense_interaction(lattice):
    rng = np.random.default_rng(4)
    if lattice == "hand-built":
        h = random_hamiltonian(12, rng)
    else:
        basis = build_basis_1d(16, 1.0) if lattice == "N16" else build_basis(int(lattice[1]), 1.0)
        h = build_hamiltonian(basis, 0.2, 1.0)
    b = rng.standard_normal((h.dim, 3)) + 1j * rng.standard_normal((h.dim, 3))
    vb = h.v_product(b)
    assert "v" not in vars(h) or lattice == "hand-built"  # the blocks, not the dense v
    np.testing.assert_allclose(vb, h.v @ b, rtol=0, atol=1e-13 * np.abs(h.v @ b).max())


@pytest.mark.parametrize("lattice", ["N16", "hand-built"])
def test_v_product_leaves_b_unwritten_without_orbit_groups(lattice):
    # with no orbit groups P^T b is b itself and P hz is hz itself
    rng = np.random.default_rng(5)
    h = random_hamiltonian(16, rng) if lattice == "hand-built" else \
        build_hamiltonian(build_basis_1d(16, 1.0), 0.2, 1.0)
    b = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    before = b.copy()
    vb = h.v_product(b)
    assert not np.shares_memory(vb, b)
    assert np.array_equal(b, before)
    assert np.array_equal(h.v_product(b), vb)


def test_v_product_peak_memory_is_bounded():
    # cubic M = 4 (n = 729): the output, one stacked block product and the
    # orbit map's per-group temporaries; the split list, the concatenation
    # and the out-of-place difference used to put the peak at 4.4-5.3 n x r
    h = build_hamiltonian(build_basis(4, 0.7), 0.2, 1.0)
    b = np.ones((h.dim, 20), dtype=complex)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        h.v_product(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * b.nbytes


def test_v_product_peak_memory_at_cubic_m8_is_under_three_factors():
    # n = 4913, r = 116: the orbit map takes a block of orbits at a time;
    # the eight-point group's whole gather and product put the peak at 3.67
    h = build_hamiltonian(build_basis(8, 0.7), 0.2, 1.0)
    b = np.ones((h.dim, 116), dtype=complex)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        h.v_product(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * b.nbytes


@pytest.mark.parametrize("dtype", [complex, float])
def test_the_orbit_map_equals_one_product_per_group(dtype):
    # cubic M = 6 at r = 116 splits the eight-point group into blocks; each
    # orbit's product is the same, so the result is the same bit for bit
    h = build_hamiltonian(build_basis(6, 0.7), 0.2, 1.0)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((h.dim, 116)).astype(dtype)
    if dtype is complex:
        z += 1j * rng.standard_normal(z.shape)
    to_ref, from_ref = np.empty_like(z), np.empty_like(z)
    for points, slots, chi in h.orbits.groups:
        to_ref[points] = chi @ z[slots]
        from_ref[slots] = chi @ z[points]
    assert max(len(points) for points, _, _ in h.orbits.groups) * 8 * 116 > 2**16
    assert np.array_equal(h.orbits.to_lattice(z), to_ref)
    assert np.array_equal(h.orbits.from_lattice(z), from_ref)


def test_propagator_unitary():
    rng = np.random.default_rng(0)
    h = random_hamiltonian(6, rng)
    u = _unitary(Propagator.from_hamiltonian(h), 1.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_evolution_composes():
    rng = np.random.default_rng(1)
    h = random_hamiltonian(5, rng)
    rho = random_density_matrix(5, rng)
    one_step = h.propagator.evolve(rho, 2.5)
    two_step = h.propagator.evolve(h.propagator.evolve(rho, 1.0), 1.5)
    np.testing.assert_allclose(one_step.matrix, two_step.matrix, atol=1e-12)


def test_diagonal_hamiltonian_evolves_phases_only():
    h = Hamiltonian(h0_diag=np.array([0.0, 1.0, 3.0]), v=np.zeros((3, 3)))
    psi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    rho = pure_to_density(PureState(psi))
    t = 0.4
    out = h.propagator.evolve(rho, t).matrix
    expected = np.outer(np.exp(-1j * h.h0_diag * t) * psi,
                        (np.exp(-1j * h.h0_diag * t) * psi).conj())
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("lattice", ["M=1", "M=2", "M=3", "N=16"])
def test_free_evolution_returns_the_state_after_one_period(lattice):
    # Every energy is an integer times dk^2, so is every Bohr frequency, and
    # free evolution is periodic with T = 2 pi / dk^2.
    dk = 0.7
    size = int(lattice[2:])
    if lattice.startswith("M"):
        basis = build_basis(size, dk)
        rho0 = random_effectively_pure_state(basis, np.random.default_rng(11))
    else:
        basis = build_basis_1d(size, dk)
        rho0 = pure_to_density(random_pure_state(size, np.random.default_rng(3)))
    prop = build_hamiltonian(basis, 0.0, 1.0).propagator
    period = 2 * np.pi / dk**2
    assert np.abs(prop.evolve(rho0, period).matrix - rho0.matrix).max() <= 1e-12
    # half a period flips the sign of every odd-label component
    assert np.linalg.norm(prop.evolve(rho0, period / 2).matrix - rho0.matrix) > 0.1


@given(seed=st.integers(0, 10_000), t=st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_evolution_preserves_unitary_invariants(seed, t):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(5, rng)
    rho = random_density_matrix(5, rng)
    rho_t = h.propagator.evolve(rho, t)
    assert abs(global_purity(rho_t) - global_purity(rho)) <= 1e-10
    assert abs(global_entropy(rho_t) - global_entropy(rho)) <= 1e-9
    psi = pure_to_density(random_pure_state(5, rng))
    assert global_entropy(h.propagator.evolve(psi, t)) <= 1e-9


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_superoperator_matches_commutator(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(dim, rng)
    sup = liouvillian_superoperator(h)
    rho = random_density_matrix(dim, rng)
    lhs = sup.apply(rho.matrix)
    rhs = h.matrix @ rho.matrix - rho.matrix @ h.matrix
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_superoperator_cap():
    h = Hamiltonian(h0_diag=np.arange(65, dtype=float), v=np.zeros((65, 65)))
    with pytest.raises(DimensionCapError):
        liouvillian_superoperator(h)


def _interaction_element(basis, i1, i2, i3, i4, coupling, screening):
    """Momentum-space element of the commutator map X -> vX - Xv of the
    Yukawa potential: delta(i2,i4) Vt(k1 - k3) - delta(i1,i3) Vt(k2 - k4)."""
    out = 0.0
    if i2 == i4:
        out += _yukawa_fourier((basis.points[i1] - basis.points[i3]) * basis.delta_k, coupling, screening)
    if i1 == i3:
        out -= _yukawa_fourier((basis.points[i2] - basis.points[i4]) * basis.delta_k, coupling, screening)
    return complex(out)


def test_interaction_element_matches_potential_commutator():
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.8, 1.5)
    sup = commutator_superoperator(h.v).matrix
    n = basis.size
    rng = np.random.default_rng(4)
    for _ in range(50):
        i1, i2, i3, i4 = rng.integers(0, n, size=4)
        element = _interaction_element(basis, i1, i2, i3, i4, 0.8, 1.5)
        assert sup[i1 * n + i2, i3 * n + i4] == pytest.approx(element)


def test_free_liouvillian_is_alpha_diagonal():
    basis = build_basis(1, 1.0)
    h0 = build_hamiltonian(basis, 0.0, 1.0)
    l0 = liouvillian_superoperator(h0)
    assert alpha_offblock_norm(l0.matrix, basis)[0] <= 1e-10
    max_el, fro = alpha_offblock_norm(l0.matrix, basis)
    assert max_el == 0.0
    assert fro == 0.0


def test_interaction_liouvillian_mixes_alpha_sectors():
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 1.0, 1.0)
    li = commutator_superoperator(h.v)
    assert not alpha_offblock_norm(li.matrix, basis)[0] <= 1e-10
    _, fro_off = alpha_offblock_norm(li.matrix, basis)
    assert fro_off >= 1e-3 * np.linalg.norm(li.matrix)


def _gathered_offblock_norm(op, basis):
    """Reference: gather every off-sector element, then reduce."""
    labels = bohr_labels(basis).reshape(-1)
    off = np.abs(op[labels[:, None] != labels[None, :]])
    return float(off.max()), float(np.sqrt((off * off).sum()))


@pytest.mark.parametrize("basis", [build_basis_1d(32, 1.0), build_basis(1, 1.0)], ids=["N32", "M1"])
def test_alpha_offblock_norm_matches_gathered_reduction(basis):
    h = build_hamiltonian(basis, 0.8, 1.3)
    for op in (commutator_superoperator(h.v).matrix, liouvillian_superoperator(h).matrix):
        max_ref, fro_ref = _gathered_offblock_norm(op, basis)
        max_el, fro = alpha_offblock_norm(op, basis)
        assert max_el == max_ref
        assert abs(fro - fro_ref) <= 1e-12 * fro_ref


def test_alpha_offblock_norm_does_not_copy_the_off_sector_part():
    basis = build_basis_1d(32, 1.0)
    op = commutator_superoperator(build_hamiltonian(basis, 0.8, 1.3).v).matrix
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        alpha_offblock_norm(op, basis)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a gather of the off-sector part holds about two operator sizes, and
    # even a whole-operator abs() would hold half of one
    assert extra < op.nbytes / 8


def _dense_conjugation(h, rho, t):
    """Oracle: the dense evolution, U(t) rho U(t)^dagger from a dense eigh of H, symmetrized."""
    u = _dense_unitary(h, t)
    out = u @ rho.matrix @ u.conj().T
    return (out + out.conj().T) / 2


EVOLVE_BASES = {"M2": build_basis(2, 1.0), "N32": build_basis_1d(32, 1.0)}


def _evolve_case(lattice, kind):
    """(Hamiltonian, state, rank of the state) at A = 0.2, mu = 1."""
    basis = EVOLVE_BASES[lattice]
    h = build_hamiltonian(basis, 0.2, 1.0)
    rng = np.random.default_rng(21)
    if kind == "pure":
        return h, pure_to_density(random_pure_state(basis.size, rng)), 1
    if kind == "effectively-pure-mixed":
        return h, random_effectively_pure_state(basis, rng), basis.n_shells
    return h, random_density_matrix(basis.size, rng), basis.size


@pytest.mark.parametrize("kind", ["pure", "effectively-pure-mixed", "dense"])
@pytest.mark.parametrize("lattice", sorted(EVOLVE_BASES))
def test_evolve_matches_dense_conjugation_oracle(lattice, kind):
    h, rho, rank = _evolve_case(lattice, kind)
    assert rho.factor.shape == (rho.factor.shape[0], rank)
    for t in (0.0, 0.7, 3.1, -2.4):
        out = h.propagator.evolve(rho, t)
        assert out.factor.shape == (rho.factor.shape[0], rank)
        assert np.abs(out.matrix - _dense_conjugation(h, rho, t)).max() <= 1e-12


def _record_calls(monkeypatch, *targets):
    """Patch each (owner, name) of ``targets`` to append (name, shape of its
    first argument) to the returned list before it runs."""
    calls = []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    return calls


def _refuse_dense_unitary(monkeypatch, n):
    """Make ``Propagator.evolved_factors`` fail on a B of n columns: the step
    of B = I is the one way to form the dense U(t)."""
    step = Propagator.evolved_factors

    def guarded(self, b, times):
        if np.shape(b)[1] == n:
            raise AssertionError("formed the dense U(t)")
        return step(self, b, times)

    monkeypatch.setattr(Propagator, "evolved_factors", guarded)


def test_evolve_of_a_factored_state_takes_no_n_by_n_spectrum_or_unitary(monkeypatch):
    h, rho, rank = _evolve_case("M2", "effectively-pure-mixed")
    prop = h.propagator
    n = rho.factor.shape[0]
    calls = _record_calls(monkeypatch, (np.linalg, "eigh"), (np.linalg, "eigvalsh"))
    _refuse_dense_unitary(monkeypatch, n)
    with pytest.raises(AssertionError, match="dense U"):
        _unitary(prop, 1.3)
    out = prop.evolve(rho, 1.3)
    assert calls == []
    assert out.factor.shape == (rho.factor.shape[0], rank)


def test_a_dense_state_is_factored_at_its_rank_without_an_n_by_n_eigh(monkeypatch):
    basis = EVOLVE_BASES["M2"]
    n = basis.size
    h = build_hamiltonian(basis, 0.2, 1.0)
    prop = h.propagator  # the eigh of H is not the state's
    m = random_density_matrix(n, np.random.default_rng(21), rank=3).matrix
    calls = _record_calls(monkeypatch, (np.linalg, "eigh"), (np.linalg, "eigvalsh"))
    rho = DensityMatrix(m)
    assert calls == []
    assert rho.factor.shape == (n, 3)
    assert np.abs(rho.factor @ rho.factor.conj().T - m).max() <= 1e-14
    prop.evolve(rho, 1.3)
    entropy_trace(rho, h, [0.0, 1.3], basis)
    assert calls and all(shape != (n, n) for _, shape in calls)


@pytest.mark.parametrize("extent, rank", [(1, 4), (3, 19)])
def test_an_evolved_dense_state_is_factored_at_its_rank(extent, rank):
    # The dense matrix of an evolved effectively pure state, as the Bohr-sector
    # driver builds it; an eigh factor kept ~n/2 roundoff columns here.
    basis = build_basis(extent, 1.0)
    prop = build_hamiltonian(basis, 0.2, 1.0).propagator
    m = prop.evolve(random_effectively_pure_state(basis, np.random.default_rng(11)), 5.0).matrix
    rho = DensityMatrix(m)
    assert rho.factor.shape == (basis.size, rank)
    assert np.abs(rho.factor @ rho.factor.conj().T - m).max() <= 1e-14


def test_evolve_of_a_dense_state_drops_its_negative_roundoff():
    # One eigenvalue of -1e-11 (inside PSD_TOL) is dropped and the factor
    # rescaled to unit trace.  Each step moves the state by the dropped
    # weight in trace norm, on orthogonal supports, so by twice it in all.
    basis = EVOLVE_BASES["M2"]
    h = build_hamiltonian(basis, 0.2, 1.0)
    prop = h.propagator
    rng = np.random.default_rng(8)
    vecs, _ = np.linalg.qr(rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2))
    eigs = rng.uniform(0.5, 1.5, basis.size)
    eigs[0] = 0.0
    eigs *= (1 + 1e-11) / eigs.sum()
    eigs[0] = -1e-11
    rho = DensityMatrix((vecs * eigs) @ vecs.conj().T)
    assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(-1e-11, abs=1e-14)
    out = prop.evolve(rho, 0.9)
    assert out.factor.shape == (basis.size, basis.size - 1)
    assert abs(np.vdot(out.factor, out.factor).real - 1.0) <= 1e-14
    gap = np.linalg.norm(out.matrix - _dense_conjugation(h, rho, 0.9), "nuc")
    assert abs(gap - 2e-11) <= 1e-13


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, 1e308, -1e308])
def test_an_infinite_time_is_refused_before_its_phases_are_taken(t):
    # RuntimeWarnings are errors under the test settings, so numpy's
    # "invalid value" from exp(-i w t) would fail this test before the check;
    # a finite t whose phase w t or alpha t overflows is refused alike (it used
    # to end in "density matrix has trace nan, not 1" or an all-NaN matrix)
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.2, 1.0)
    rho = random_effectively_pure_state(basis, np.random.default_rng(6))
    with pytest.raises(ValueError, match="t must be finite"):
        h.propagator.evolve(rho, t)
    with pytest.raises(ValueError, match="t must be finite"):
        entropy_trace(rho, h, [0.0, t], basis)
    with pytest.raises(ValueError, match="t must be finite"):
        free_phase_law(alpha_decompose(rho.matrix, basis), t)


def test_evolve_at_time_zero_is_identity():
    basis = build_basis(1, 1.0)
    h = build_hamiltonian(basis, 0.3, 1.0)
    rho = random_density_matrix(basis.size, np.random.default_rng(0))
    np.testing.assert_allclose(h.propagator.evolve(rho, 0.0).matrix, rho.matrix, atol=1e-13)


def test_two_level_quarter_period_transfer():
    # H = [[0, 1], [1, 0]] rotates population as cos^2(t); at t = pi/4
    # exactly half the population has moved to the other level.
    h = Hamiltonian(h0_diag=np.zeros(2), v=np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = h.propagator.evolve(DensityMatrix(np.diag([1.0, 0.0])), np.pi / 4).matrix
    assert out[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-12)


def test_diagonal_hamiltonian_superoperator_is_diagonal():
    # on vec(|i><j|) the commutator map with diag(e) acts by e_i - e_j
    e = np.array([0.0, 1.0, 3.0])
    h = Hamiltonian(h0_diag=e, v=np.zeros((3, 3)))
    sup = liouvillian_superoperator(h).matrix
    expected = np.diag((e[:, None] - e[None, :]).reshape(-1).astype(complex))
    np.testing.assert_array_equal(sup, expected)


def test_identity_hamiltonian_generates_nothing():
    h = Hamiltonian(h0_diag=np.ones(3), v=np.zeros((3, 3)))
    np.testing.assert_array_equal(liouvillian_superoperator(h).matrix, np.zeros((9, 9)))


def test_interaction_element_kronecker_structure():
    basis = build_basis(1, 1.0)
    n = basis.size
    sup = commutator_superoperator(build_hamiltonian(basis, 0.8, 1.5).v).matrix

    def element(i1, i2, i3, i4):
        return sup[i1 * n + i2, i3 * n + i4]

    i0 = basis.index_of((0, 0, 0))
    j = basis.index_of((1, 0, 0))
    l = basis.index_of((0, 1, 0))
    m = basis.index_of((-1, 0, 0))
    # both deltas fire on diagonal pairs and the self-energies cancel exactly
    assert element(i0, i0, i0, i0) == 0.0
    assert element(i0, j, i0, j) == 0.0
    # matching row indices leave a single negative momentum-transfer term
    el = element(i0, j, i0, l)
    transfer = (basis.points[j] - basis.points[l]) * basis.delta_k
    assert el == -complex(_yukawa_fourier(transfer, 0.8, 1.5))
    assert el.real < 0
    # no matching index pair at all
    assert element(j, i0, l, m) == 0.0


def test_liouvillian_splits_exactly_into_free_and_interaction():
    basis = build_basis_1d(4, 1.0)
    h = build_hamiltonian(basis, 0.8, 1.5)
    full = liouvillian_superoperator(h).matrix
    free = liouvillian_superoperator(build_hamiltonian(basis, 0.0, 1.5)).matrix
    inter = commutator_superoperator(h.v).matrix
    np.testing.assert_array_equal(full, free + inter)
