import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab import states
from lelab.basis import build_basis, build_basis_1d
from lelab.errors import StateValidationError
from lelab.reduction import TAU_LAMBDA, is_effectively_pure, reduce
from lelab.states import (
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    PureState,
    effectively_pure_state,
    entropy_from_eigenvalues,
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
    density_factor,
    _certified_factor,
)


@pytest.mark.parametrize("n", [1, 5, states._HERMITIAN_TILE - 1, states._HERMITIAN_TILE,
                               states._HERMITIAN_TILE + 1, 343])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_hermitian_deviation_is_the_dense_max(n, kind):
    # the tiles compare each pair once; the dense max compares it twice
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if kind == "complex" else 0)
    h = (m + m.conj().T) / 2
    h[-1, 0] += 3e-13  # an off-Hermitian pair in the last, partial tile row
    for a in (m, h):
        assert states._hermitian_deviation(a) == np.abs(a - a.conj().T).max()
    h[n // 2, n - 1] = np.nan
    assert math.isnan(states._hermitian_deviation(h))


def test_hermitian_deviation_of_an_empty_matrix_is_zero():
    assert states._hermitian_deviation(np.zeros((0, 0), dtype=complex)) == 0.0


def test_hermitian_deviation_holds_only_tile_sized_temporaries():
    m = np.ones((700, 700), dtype=complex)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        states._hermitian_deviation(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * states._HERMITIAN_TILE ** 2 * m.itemsize


def test_density_matrix_validation():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(StateValidationError):
        DensityMatrix(np.ones((2, 3)))  # not square
    with pytest.raises(StateValidationError, match="trace"):
        DensityMatrix(np.zeros((0, 0)))  # empty: trace 0
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.factor.shape[0] == 2


@pytest.mark.parametrize("refuse, message", [
    (lambda: DensityMatrix(0.55 * np.eye(2)), "density matrix has trace 1.1, not 1"),
    (lambda: DensityMatrix(0.55 * np.eye(2, dtype=complex)), "density matrix has trace 1.1, not 1"),
    (lambda: effectively_pure_state(build_basis(1, 1.0), [0, 1], [np.array([1.0]), np.eye(6)[0]],
                                    0.55 * np.eye(2)), "mu has trace 1.1, not 1"),
], ids=["real", "complex", "mu"])
def test_a_trace_off_one_is_reported_as_a_real_number(refuse, message):
    # the matrix is held complex, but a Hermitian one has a real trace:
    # the message reads as the config check's on the same mu, not "(1.1+0j)"
    with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
        refuse()


@pytest.mark.parametrize("given,message", [
    ({"matrix": np.array([[0.5, np.nan], [np.nan, 0.5]])}, "Hermitian"),
    ({"factor": np.full((3, 1), np.nan)}, "trace"),
], ids=["matrix", "factor"])
def test_density_matrix_refuses_nan(given, message):
    # each check is written so that NaN fails it: NaN > tol is False
    with pytest.raises(StateValidationError, match=message):
        DensityMatrix(**given)


@pytest.mark.parametrize("low", [0.0, -1e-12, -5e-11, -2e-10])
@pytest.mark.parametrize("dim, rank", [(27, 4), (64, 63)])
def test_a_certified_factor_passes_the_eigh_rule(dim, rank, low):
    # rank eigenvalues in [0.5, 1.5], one at ``low``, trace one
    rng = np.random.default_rng(dim + rank)
    vecs, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigs = np.zeros(dim)
    eigs[:rank] = rng.uniform(0.5, 1.5, rank)
    eigs *= (1 - low) / eigs.sum()
    eigs[-1] = low
    m = (vecs * eigs) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    b = _certified_factor(m)
    if low == 0.0:
        assert b is not None
    if b is not None:
        density_factor(m)
        assert np.linalg.eigvalsh(m)[0] >= -PSD_TOL
        assert b.shape == (dim, rank)
        assert abs(np.trace(m - b @ b.conj().T)) <= TRACE_TOL
        assert np.linalg.norm(m - b @ b.conj().T) <= PSD_TOL
    if low < -PSD_TOL:
        assert b is None
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(m)


def _near_rank_matrix(dim, rank, low):
    """``rank`` eigenvalues in [0.5, 1.5], one at ``low``, trace one."""
    rng = np.random.default_rng(dim + rank)
    vecs, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigs = np.zeros(dim)
    eigs[:rank] = rng.uniform(0.5, 1.5, rank)
    eigs *= (1 - low) / eigs.sum()
    eigs[-1] = low
    m = (vecs * eigs) @ vecs.conj().T
    return (m + m.conj().T) / 2


def test_the_eigh_path_cuts_the_rank_where_the_cholesky_does(monkeypatch):
    # an eigenvalue at -5e-11 stays in the Cholesky residual, so the eigh
    # factors this matrix; it keeps the 4 columns above PSD_TOL / n, not
    # every eigenvalue above 0 (15 of them, most roundoff)
    m = _near_rank_matrix(27, 4, -5e-11)
    assert _certified_factor(m) is None
    checks = []
    check = states._check_hermitian_unit_trace
    monkeypatch.setattr(states, "_check_hermitian_unit_trace",
                        lambda *args: checks.append(args[1]) or check(*args))
    b = DensityMatrix(m).factor
    assert checks == ["density matrix"]  # the Hermitian check runs once
    assert b.shape == (27, 4)
    assert np.linalg.norm(m - b @ b.conj().T) <= PSD_TOL
    assert np.vdot(b, b).real == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("ids,mu", [
    ([1, 2], np.array([[0.1, 0.3], [0.3, 0.9]])),
    ([1, 2, 3], np.full((3, 3), 1 / 3)),
], ids=["2x2", "3x3"])
def test_a_rank_one_mu_gives_a_one_column_factor(ids, mu):
    basis = build_basis(1, 1.0)
    vecs = [np.eye(np.count_nonzero(basis.norms2 == basis.shells.norms2[s]))[0] for s in ids]
    rho = effectively_pure_state(basis, ids, vecs, mu)
    assert rho.factor.shape == (basis.size, 1)
    l = density_factor(mu, "mu")
    assert l.shape == (len(ids), 1)
    np.testing.assert_allclose(l @ l.conj().T, mu, atol=1e-15)


def test_density_matrix_from_a_factor():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    b = g / np.linalg.norm(g)
    rho = DensityMatrix(factor=b)
    np.testing.assert_array_equal(rho.matrix, b @ b.conj().T)
    assert rho.factor.shape == (6, 2)
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
    # a drawn mixed state carries its factor, of the drawn rank
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
    # the norm check is written so that NaN fails it: NaN > tol is False
    for bad in (np.nan, np.inf):
        with pytest.raises(StateValidationError, match="squared norm"):
            PureState(np.array([bad, 0.0]))
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
    for s, n2 in enumerate(basis.shells.norms2):
        members = np.flatnonzero(basis.norms2 == n2)
        if dec.weights[s] <= TAU_LAMBDA:
            continue
        block = rho.matrix[np.ix_(members, members)]  # dense oracle of the shell block
        eigs = np.linalg.eigvalsh(block / dec.weights[s])
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
    # non-normalized shell vector; the check is written so that NaN fails it
    for bad in (2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="vector for shell 1 has squared norm"):
            effectively_pure_state(basis, [0, 1], [v0, np.where(v1 == 1.0, bad, 0.0)], mu)
    # mu not unit trace
    with pytest.raises(ValueError):
        effectively_pure_state(basis, [0, 1], [v0, v1], np.eye(2))


_CUBIC = build_basis(1, 1.0)
_V0, _V1 = np.array([1.0]), np.eye(6)[0]


@pytest.mark.parametrize("refused, error, match", [
    (lambda: PureState(np.eye(2) / np.sqrt(2)), StateValidationError, "must be a vector"),
    (lambda: effectively_pure_state(_CUBIC, [0, 4], [_V0, _V1], np.eye(2) / 2),
     ValueError, r"shell ids must lie in \[0, 4\)"),
    (lambda: effectively_pure_state(_CUBIC, [0, 1], [_V0], np.eye(2) / 2),
     ValueError, "one vector per listed shell"),
    (lambda: effectively_pure_state(_CUBIC, [0, 1], [_V0, _V1], np.eye(3) / 3),
     ValueError, "mu must be 2x2"),
], ids=["amplitudes-not-a-vector", "shell-id-out-of-range", "vector-count",
        "mu-size"])
def test_state_constructors_refuse_malformed_input(refused, error, match):
    with pytest.raises(error, match=match):
        refused()


@pytest.mark.parametrize("ids", [[9], [], [-1], [1, 1]],
                         ids=["past-the-end", "empty", "negative", "repeated"])
def test_random_effectively_pure_state_refuses_bad_shell_ids_before_drawing(ids):
    # past the end used to raise a bare IndexError, and no ids "trace 0.0"
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="^shell ids must .*" + re.escape(f", got {ids}") + "$"):
        random_effectively_pure_state(_CUBIC, rng, shell_ids=ids)
    assert rng.normal() == np.random.default_rng(4).normal()  # nothing was drawn


def test_the_entropy_of_no_eigenvalues_is_positive_zero():
    for eigs in (np.array([]), np.array([1e-13, 0.0]), np.array([1.0])):
        s = entropy_from_eigenvalues(eigs)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0


def test_an_eigenvalue_lifted_above_one_by_roundoff_gives_positive_zero():
    s = entropy_from_eigenvalues(np.array([1 + 1e-15]))
    assert s == 0.0 and math.copysign(1.0, s) == 1.0
    # a pure state's Gram matrix can read 1 + 9e-16; the entropy must not go negative
    assert entropy_from_eigenvalues(np.array([-1e-16, 2e-13, 1 + 9e-16])) >= 0.0


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
    members = np.flatnonzero(basis.norms2 == basis.shells.norms2[1])
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


def test_a_factored_state_forms_its_matrix_only_when_read():
    n = 1500
    b = random_pure_state(n, np.random.default_rng(4)).amplitudes[:, None]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rho = DensityMatrix(factor=b)
        assert rho.factor.shape[0] == n
        assert "matrix" not in repr(rho) and rho == rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 // 10  # a dense complex n x n matrix is 36 MB
    m = rho.matrix
    assert m is rho.matrix and not m.flags.writeable
    assert m.tobytes() == (rho.factor @ rho.factor.conj().T).tobytes()
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(n)
    with pytest.raises(AttributeError):
        rho.factor = b


def test_a_matrix_state_holds_no_n_by_n_temporary():
    # cube M = 5: n = 1331, a complex n x n matrix is 28 MB; rank 45 as for a rho(t)
    m = random_density_matrix(1331, np.random.default_rng(5), rank=45).matrix
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rho = DensityMatrix(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.matrix is m and rho.factor.shape == (1331, 45)
    # the factor, its growing rows and blocks of rows; an n x n Cholesky
    # buffer and residual came to 58.6 MB
    assert peak < m.nbytes // 4


def _dense_purity_and_entropy(m: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(m)
    kept = eigs[eigs > 1e-12]
    return float(np.vdot(m, m).real), float(-(kept * np.log(kept)).sum())


@pytest.mark.parametrize("rank", [1, 5, 40])
def test_global_statistics_read_the_factor(rank):
    # rank 1, rank r and full rank (n = 40) against the dense formulas
    rng = np.random.default_rng(rank)
    g = rng.normal(size=(40, rank)) + 1j * rng.normal(size=(40, rank))
    rho = DensityMatrix(factor=g / np.linalg.norm(g))
    got = global_purity(rho), global_entropy(rho)
    assert "matrix" not in vars(rho)  # neither formed the dense matrix
    purity, entropy = _dense_purity_and_entropy(rho.matrix)
    assert abs(got[0] - purity) <= 1e-12
    assert abs(got[1] - entropy) <= 1e-12


def test_a_factored_state_builds_its_matrix_once_on_first_read():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    b = g / np.linalg.norm(g)
    rho = DensityMatrix(None, factor=b)  # an explicit None leaves the matrix to be built
    assert "matrix" not in vars(rho)
    m = rho.matrix
    assert m.tobytes() == (rho.factor @ rho.factor.conj().T).tobytes() == (b @ b.conj().T).tobytes()
    assert not m.flags.writeable and rho.matrix is m
