"""Density matrices, pure states, and the global entropy and purity.

Validation tolerances are fixed so that test oracles are unambiguous.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._record import _DenseOnDemand, record
from .basis import MomentumBasis
from .errors import StateValidationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# Below this an eigenvalue contributes < 3e-11 to -x ln x; dropping it also
# avoids log of roundoff negatives.
EIGENVALUE_CLIP = 1e-12


def _readonly_complex(a) -> np.ndarray:
    m = np.array(a, dtype=complex)
    m.setflags(write=False)
    return m


def _check_hermitian_unit_trace(m: np.ndarray, what: str) -> None:
    """The density-matrix rule short of positivity: raises
    StateValidationError, naming ``m`` as ``what``, unless ``m`` is square,
    Hermitian and unit trace within the module tolerances."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"{what} must be square, got shape {m.shape}")
    # Each comparison is written so that NaN fails it too.
    herm = np.abs(m - m.conj().T).max()
    if not herm <= HERMITICITY_TOL:
        raise StateValidationError(f"{what} is not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(m)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateValidationError(f"{what} has trace {tr}, not 1")


def validated_spectrum(m: np.ndarray, what: str = "density matrix"):
    """(eigenvalues ascending, eigenvectors) of ``m`` after checking it is a
    density matrix.

    This is the one statement of the density-matrix rule: raises
    StateValidationError, naming ``m`` as ``what``, unless ``m`` is
    square, Hermitian, unit trace and positive semidefinite within the
    module tolerances.  The one ``eigh`` serves both the PSD check and
    the factor the caller builds from the pair (``_psd_factor``).
    """
    _check_hermitian_unit_trace(m, what)
    eigs, vecs = np.linalg.eigh(m)
    if not eigs[0] >= -PSD_TOL:
        raise StateValidationError(
            f"{what} is not positive semidefinite: min eigenvalue {eigs[0]:.3e}"
        )
    return eigs, vecs


def _psd_factor(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """n x r factor B of the matrix with this eigendecomposition: one column
    per positive eigenvalue, scaled to unit trace ||B||_F^2 = 1, since the
    dropped eigenvalues in [-PSD_TOL, 0] may have moved it."""
    keep = eigs > 0
    b = vecs[:, keep] * np.sqrt(eigs[keep])
    return b / np.linalg.norm(b)


def _certified_factor(m: np.ndarray) -> np.ndarray | None:
    """n x r factor B of a Hermitian, unit-trace ``m`` at its numerical rank,
    or None when B B^dagger is not within PSD_TOL of ``m``.

    Pivoted Cholesky: each column is the Schur-complement column of the
    largest remaining diagonal d, and the pivots stop once max d is at or
    below PSD_TOL / n, so that a PSD remainder has ||.||_F <= tr <= PSD_TOL.
    B is kept only if ||m - B B^dagger||_F <= PSD_TOL; by Weyl's inequality
    the Hermitian part of ``m`` then has no eigenvalue below -PSD_TOL, the
    positivity rule of ``validated_spectrum``.  A non-PSD ``m``, or one
    whose negative roundoff stays in the residual, gets None.  B is scaled
    to unit trace, as in ``_psd_factor``.
    """
    n = m.shape[0]
    d = m.diagonal().real.copy()
    cut = PSD_TOL / n
    bt = np.empty((n, n), dtype=complex)  # row k is column k of B; r is not known in advance
    k = 0
    while k < n:
        p = int(np.argmax(d))
        if not d[p] > cut:
            break
        col = m[:, p] - bt[:k].T @ bt[:k, p].conj()
        col /= np.sqrt(d[p])
        bt[k] = col
        d -= col.real**2 + col.imag**2
        k += 1
    b = bt[:k].T.copy()
    e = b @ b.conj().T
    e -= m
    if not np.sqrt(np.vdot(e, e).real) <= PSD_TOL:
        return None
    return b / np.linalg.norm(b)


@record
class DensityMatrix:
    """Complex Hermitian, unit-trace, positive-semidefinite matrix with its
    n x r factor B, ``matrix = B B^dagger``.

    Give either ``matrix`` or ``factor``.  A matrix must be square,
    Hermitian and unit trace; its factor is the pivoted Cholesky factor of
    its numerical rank (``_certified_factor``), kept when B B^dagger is
    within PSD_TOL of it in Frobenius norm, which also certifies it PSD.
    Otherwise the matrix is checked by ``validated_spectrum``, whose
    ``eigh`` gives the factor (``_psd_factor``: one column per positive
    eigenvalue) or refuses it as not PSD.  A given factor is Hermitian and
    PSD by construction, so only its trace ||B||_F^2 is checked, and no
    n x n array is formed: ``matrix``, a ``_DenseOnDemand`` field, is then
    built on first read, and ``repr`` does not read it.
    ``Propagator.evolve``, ``entropy_trace`` and the global statistics work
    on the factor.
    """

    matrix: np.ndarray | None = _DenseOnDemand(lambda rho: rho.factor @ rho.factor.conj().T)
    factor: np.ndarray | None = None

    def __post_init__(self):
        given = self.__dict__["_matrix"]
        if (given is None) == (self.factor is None):
            raise StateValidationError("give a density matrix or its factor, not both or neither")
        if self.factor is None:
            m = _readonly_complex(given)
            _check_hermitian_unit_trace(m, "density matrix")
            b = _certified_factor(m)
            if b is None:
                b = _psd_factor(*validated_spectrum(m))
            b.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            b = _readonly_complex(self.factor)
            if b.ndim != 2:
                raise StateValidationError(f"factor must be an n x r matrix, got shape {b.shape}")
            tr = float(np.vdot(b, b).real)
            if not abs(tr - 1.0) <= TRACE_TOL:  # written so that NaN fails too
                raise StateValidationError(f"density matrix has trace {tr}, not 1")
        object.__setattr__(self, "factor", b)

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


@record
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _readonly_complex(self.amplitudes)
        if a.ndim != 1:
            raise StateValidationError("amplitudes must be a vector")
        norm2 = float(np.vdot(a, a).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise StateValidationError(f"squared norm is {norm2}, not 1")
        object.__setattr__(self, "amplitudes", a)


def as_matrix(rho) -> np.ndarray:
    """Underlying ndarray of a DensityMatrix, or the array itself."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|, factored as the column psi."""
    return DensityMatrix(factor=psi.amplitudes[:, None])


def _ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex Gaussian array: real parts drawn first, then imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _shell_factor(basis: MomentumBasis, shell_ids: Sequence[int],
                  shell_vectors: Sequence[np.ndarray], l: np.ndarray) -> np.ndarray:
    """B = Phi L, with column s of Phi the vector of shell ``shell_ids[s]``
    embedded in the full space; checks the ids and the vectors."""
    ids = [int(s) for s in shell_ids]
    if len(set(ids)) != len(ids):
        raise ValueError("shell ids must be distinct")
    if any(not 0 <= s < basis.n_shells for s in ids):
        raise ValueError(f"shell ids must lie in [0, {basis.n_shells})")
    if len(shell_vectors) != len(ids):
        raise ValueError("need exactly one vector per listed shell")
    b = np.zeros((basis.size, l.shape[1]), dtype=complex)
    for s, v, l_row in zip(ids, shell_vectors, l):
        v = np.asarray(v, dtype=complex)
        deg = len(basis.shells.members[s])
        if v.shape != (deg,):
            raise ValueError(f"vector for shell {s} must have length {deg}, got {v.shape}")
        norm2 = float(np.vdot(v, v).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"vector for shell {s} has squared norm {norm2}, not 1")
        # shells are disjoint, so the rows of shell s are v_s (x) L[s]
        b[basis.shells.members[s]] = np.outer(v, l_row)
    return b


def effectively_pure_state(
    basis: MomentumBasis,
    shell_ids: Sequence[int],
    shell_vectors: Sequence[np.ndarray],
    mu: np.ndarray,
) -> DensityMatrix:
    """Mixed state built from one unit vector per listed shell.

    With phi_s the vector of shell s embedded in the full space, returns
    rho = sum_{s,s'} mu[s,s'] |phi_s><phi_s'|.  Every shell block of the
    result has rank at most one, so the state is effectively pure by
    construction; it is mixed whenever mu has rank above one with
    off-diagonal magnitudes strictly below the Cauchy-Schwarz bound.
    The state is factored as Phi L, with L from the one ``eigh`` of mu
    that ``validated_spectrum`` checks it with, so its rank is at most
    len(shell_ids).

    ``mu`` must pass the density-matrix rule of ``validated_spectrum``
    (its StateValidationError is a ValueError naming ``mu``);
    ``shell_vectors[i]`` must be a unit vector of length equal to the
    degeneracy of shell ``shell_ids[i]``.
    """
    mu = np.asarray(mu, dtype=complex)
    if mu.shape != (len(shell_ids), len(shell_ids)):
        raise ValueError(f"mu must be {len(shell_ids)}x{len(shell_ids)}, got {mu.shape}")
    l = _psd_factor(*validated_spectrum(mu, "mu"))
    return DensityMatrix(factor=_shell_factor(basis, shell_ids, shell_vectors, l))


def entropy_from_eigenvalues(eigs: np.ndarray) -> float:
    """-sum(x ln x) over eigenvalues, dropping those at or below the clip."""
    kept = eigs[eigs > EIGENVALUE_CLIP]
    if kept.size == 0:
        return 0.0
    return float(-(kept * np.log(kept)).sum())


def _gram(rho) -> np.ndarray:
    """B^dagger B (r x r) of a DensityMatrix, which has the nonzero spectrum
    of rho = B B^dagger, or the matrix of a raw ndarray."""
    if isinstance(rho, DensityMatrix):
        b = rho.factor
        return b.conj().T @ b
    return as_matrix(rho)


def global_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr rho ln rho, from the r x r Gram matrix of a
    DensityMatrix's factor."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(_gram(rho)))


def global_purity(rho: DensityMatrix) -> float:
    """Tr rho^2 = ||B^dagger B||_F^2 for a DensityMatrix; equals 1 exactly for
    rank-1 states."""
    g = _gram(rho)
    return float(np.vdot(g, g).real)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    a = _ginibre(rng, dim)
    return PureState(a / np.linalg.norm(a))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or given-rank) Wishart-style random mixed state."""
    g = _ginibre(rng, dim, dim if rank is None else rank)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_effectively_pure_state(
    basis: MomentumBasis,
    rng: np.random.Generator,
    shell_ids: Sequence[int] | None = None,
    mu: np.ndarray | None = None,
) -> DensityMatrix:
    """Seeded effectively pure mixed state over the given shells (default all).

    Without ``mu`` the mixing matrix is mu = L L^dagger, L = g / ||g||_F
    for a seeded complex Gaussian square g, and L is the factor used.
    """
    ids = list(range(basis.n_shells)) if shell_ids is None else [int(s) for s in shell_ids]
    vecs = [random_pure_state(len(basis.shells.members[s]), rng).amplitudes for s in ids]
    if mu is not None:
        return effectively_pure_state(basis, ids, vecs, mu)
    g = _ginibre(rng, len(ids), len(ids))
    return DensityMatrix(factor=_shell_factor(basis, ids, vecs, g / np.linalg.norm(g)))
