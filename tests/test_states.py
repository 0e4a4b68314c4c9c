import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab.basis import build_basis, build_basis_1d
from lelab.errors import StateValidationError
from lelab.reduction import is_effectively_pure, reduce
from lelab.states import (
    DensityMatrix,
    PureState,
    effectively_pure_state,
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
)


def test_density_matrix_validation():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(StateValidationError):
        DensityMatrix(np.ones((2, 3)))  # not square
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2


@pytest.mark.parametrize("given,message", [
    ({"matrix": np.array([[0.5, np.nan], [np.nan, 0.5]])}, "Hermitian"),
    ({"factor": np.full((3, 1), np.nan)}, "trace"),
], ids=["matrix", "factor"])
def test_density_matrix_refuses_nan(given, message):
    # each check is written so that NaN fails it: NaN > tol is False
    with pytest.raises(StateValidationError, match=message):
        DensityMatrix(**given)


def test_density_matrix_from_a_factor():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    b = g / np.linalg.norm(g)
    rho = DensityMatrix(factor=b)
    np.testing.assert_array_equal(rho.matrix, b @ b.conj().T)
    assert rho.factor.shape == (6, 2) and rho.dim == 6
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 1.0
    assert global_purity(rho) == pytest.approx(global_purity(DensityMatrix(rho.matrix)), abs=1e-15)
    with pytest.raises(StateValidationError, match="trace"):
        DensityMatrix(factor=2 * b)
    with pytest.raises(StateValidationError):
        DensityMatrix(factor=b[:, 0])  # a vector, not an n x r matrix
    with pytest.raises(StateValidationError):
        DensityMatrix(rho.matrix, factor=b)
    with pytest.raises(StateValidationError):
        DensityMatrix()


def test_builders_give_their_factor_and_rank():
    basis = build_basis(1, 1.0)
    rng = np.random.default_rng(5)
    psi = random_pure_state(basis.size, rng)
    np.testing.assert_array_equal(pure_to_density(psi).factor[:, 0], psi.amplitudes)
    rho = random_effectively_pure_state(basis, rng, shell_ids=[1, 3])
    assert rho.factor.shape == (basis.size, 2)
    # explicit mu of rank one: one column of Phi L survives
    v1, v2 = np.eye(6)[0], np.eye(12)[0]
    rho = effectively_pure_state(basis, [1, 2], [v1, v2], np.full((2, 2), 0.5))
    assert rho.factor.shape == (basis.size, 1)
    assert global_purity(rho) == pytest.approx(1.0, abs=1e-14)
    # a dense state is factored by the eigh that checks it
    mixed = random_density_matrix(basis.size, rng, rank=3)
    b = mixed.factor
    assert b.shape[1] >= 3 and not b.flags.writeable
    np.testing.assert_allclose(b @ b.conj().T, mixed.matrix, atol=1e-14)


def test_density_matrix_is_immutable():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_pure_state_norm_checked():
    with pytest.raises(StateValidationError):
        PureState(np.array([1.0, 1.0]))
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    rho = pure_to_density(psi)
    assert abs(global_purity(rho) - 1.0) < 1e-14
    assert global_entropy(rho) < 1e-12


def test_entropy_of_maximally_mixed():
    for d in (4, 6):
        rho = DensityMatrix(np.eye(d) / d)
        assert abs(global_entropy(rho) - np.log(d)) < 1e-12
        assert abs(global_purity(rho) - 1.0 / d) < 1e-14


@given(dim=st.integers(2, 12), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_density_matrix_is_valid_state(dim, seed):
    rho = random_density_matrix(dim, np.random.default_rng(seed))
    m = rho.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(m).min() >= -1e-10
    assert 1.0 / dim - 1e-12 <= global_purity(rho) <= 1.0 + 1e-12
    assert -1e-12 <= global_entropy(rho) <= np.log(dim) + 1e-12


def test_random_generators_are_seed_deterministic():
    a = random_density_matrix(8, np.random.default_rng(7))
    b = random_density_matrix(8, np.random.default_rng(7))
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_effectively_pure_state_structure():
    basis = build_basis(1, 1.0)
    rng = np.random.default_rng(3)
    rho = random_effectively_pure_state(basis, rng)
    # globally mixed ...
    assert global_entropy(rho) > 0.1
    # ... yet every shell block has rank one
    dec = reduce(rho, basis)
    assert is_effectively_pure(dec)
    for s in range(basis.n_shells):
        block = dec.rho_hat(s)
        if block is None:
            continue
        eigs = np.linalg.eigvalsh(block)
        assert eigs[-1] > 0.99
        if len(eigs) > 1:
            assert np.abs(eigs[:-1]).max() < 1e-12


def test_effectively_pure_state_weights_follow_mu():
    basis = build_basis(1, 1.0)
    rng = np.random.default_rng(9)
    mu = np.diag([0.1, 0.2, 0.3, 0.4])
    rho = random_effectively_pure_state(basis, rng, mu=mu)
    dec = reduce(rho, basis)
    np.testing.assert_allclose(dec.weights, np.diag(mu), atol=1e-14)


def test_effectively_pure_state_rejects_bad_inputs():
    basis = build_basis(1, 1.0)
    v0 = np.array([1.0])
    v1 = np.zeros(6)
    v1[0] = 1.0
    mu = np.eye(2) / 2
    # duplicate shell ids
    with pytest.raises(ValueError):
        effectively_pure_state(basis, [1, 1], [v1, v1], mu)
    # wrong vector length for the shell
    with pytest.raises(ValueError):
        effectively_pure_state(basis, [0, 1], [v0, v0], mu)
    # non-normalized shell vector
    with pytest.raises(ValueError):
        effectively_pure_state(basis, [0, 1], [v0, 2.0 * v1], mu)
    # mu not unit trace
    with pytest.raises(ValueError):
        effectively_pure_state(basis, [0, 1], [v0, v1], np.eye(2))


def test_effectively_pure_on_line_lattice_is_plain_mixture():
    # every shell is one-dimensional, so the state is diagonal with mu's diagonal
    basis = build_basis_1d(4, 1.0)
    mu = np.diag([0.4, 0.3, 0.2, 0.1])
    rho = random_effectively_pure_state(basis, np.random.default_rng(0), mu=mu)
    np.testing.assert_allclose(np.diag(rho.matrix).real, np.diag(mu), atol=1e-14)


def test_pure_to_density_canonical_projectors():
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    rho = pure_to_density(PureState(e0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho.matrix, expected)

    amp = np.zeros(4, dtype=complex)
    amp[:2] = 1.0 / np.sqrt(2)
    rho = pure_to_density(PureState(amp))
    np.testing.assert_allclose(rho.matrix[:2, :2].real, np.full((2, 2), 0.5), atol=1e-15)
    np.testing.assert_array_equal(rho.matrix[2:, :], np.zeros((2, 4)))

    psi = random_pure_state(27, np.random.default_rng(42))
    assert abs(global_purity(pure_to_density(psi)) - 1.0) <= 1e-12


def test_two_shell_mixture_purity_values():
    # weights (1/2, 1/2) across two shells: Tr rho^2 = 1/2 when mu is
    # diagonal and 5/8 once coherences mu_01 = 1/4 are switched on; both
    # states stay effectively pure because each shell block is rank one.
    basis = build_basis(1, 1.0)
    v1 = np.zeros(6)
    v1[0] = 1.0
    v2 = np.zeros(12)
    v2[0] = 1.0

    rho = effectively_pure_state(basis, [1, 2], [v1, v2], np.diag([0.5, 0.5]))
    assert global_purity(rho) == pytest.approx(0.5, abs=1e-14)
    assert global_entropy(rho) == pytest.approx(np.log(2), abs=1e-12)
    assert is_effectively_pure(reduce(rho, basis))

    mu = np.array([[0.5, 0.25], [0.25, 0.5]])
    rho = effectively_pure_state(basis, [1, 2], [v1, v2], mu)
    assert global_purity(rho) == pytest.approx(0.625, abs=1e-14)
    assert is_effectively_pure(reduce(rho, basis))


def test_single_shell_unit_mu_gives_pure_projector():
    basis = build_basis(1, 1.0)
    vec = np.full(6, 1.0 / np.sqrt(6))
    rho = effectively_pure_state(basis, [1], [vec], np.array([[1.0]]))
    assert global_purity(rho) == pytest.approx(1.0, abs=1e-12)
    members = basis.shells.members[1]
    np.testing.assert_allclose(
        rho.matrix[np.ix_(members, members)], np.outer(vec, vec), atol=1e-15
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_entropy_zero_iff_purity_one(seed):
    rng = np.random.default_rng(seed)
    pure = pure_to_density(random_pure_state(9, rng))
    assert global_purity(pure) == pytest.approx(1.0, abs=1e-12)
    assert global_entropy(pure) <= 1e-10
    mixed = random_density_matrix(9, rng, rank=3)
    # von Neumann entropy dominates the collision entropy -ln Tr rho^2,
    # which is strictly positive as soon as purity drops below one
    assert global_entropy(mixed) >= -np.log(global_purity(mixed)) - 1e-12
