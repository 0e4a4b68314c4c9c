"""Density matrices, pure states, and the global entropy and purity.

Validation tolerances are fixed so that test oracles are unambiguous.
"""

from __future__ import annotations

from functools import cached_property
from typing import Protocol, Sequence

import numpy as np

from ._record import _frozen, _row_blocks, record
from .basis import MomentumBasis
from .errors import StateValidationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# Below this an eigenvalue contributes < 3e-11 to -x ln x; dropping it also
# avoids log of roundoff negatives.
EIGENVALUE_CLIP = 1e-12


class NormalStream(Protocol):
    """What the ``random_*`` states draw from: ``lelab._rng.default_rng(seed)``
    in every lelab run, or a numpy Generator, which gives the same numbers."""

    def normal(self, size: tuple[int, ...]) -> np.ndarray: ...


def _readonly_complex(a) -> np.ndarray:
    """How a value type takes a caller's array: ``a`` itself when it is a
    C-ordered complex ndarray that is read-only down its whole ``.base``
    chain, as every ``DensityMatrix.matrix`` is, so that nothing can write
    to it through numpy; anything else is copied into a fresh read-only
    C-ordered complex array, which later writes to ``a`` do not reach.
    Held arrays are C-ordered, so a flat view of one is never a copy."""
    if type(a) is np.ndarray and a.dtype == np.complex128 and a.flags.c_contiguous:
        link = a
        while type(link) is np.ndarray and not link.flags.writeable:
            link = link.base
        if link is None:
            return a
    return _frozen(np.array(a, dtype=complex, order="C"))


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^dagger| of a square ``m``, taken a block of rows at a time
    so that no n x n temporary is formed: 0.0 for an empty ``m``, NaN when
    ``m`` holds a NaN.  The one Hermitian rule of states and Hamiltonians."""
    return np.max([np.abs(m[r] - m[:, r].conj().T).max() for r in _row_blocks(len(m), len(m))],
                  initial=0.0)


def _check_hermitian_unit_trace(m: np.ndarray, what: str) -> None:
    """The density-matrix rule short of positivity: raises
    StateValidationError, naming ``m`` as ``what``, unless ``m`` is square,
    Hermitian (``_hermitian_deviation``) and unit trace within the module
    tolerances."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"{what} must be square, got shape {m.shape}")
    # Each comparison is written so that NaN fails it too; an empty m is
    # Hermitian, and fails on its trace 0.
    herm = _hermitian_deviation(m)
    if not herm <= HERMITICITY_TOL:
        raise StateValidationError(f"{what} is not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(m)
    if not abs(tr - 1.0) <= TRACE_TOL:  # a Hermitian m has a real trace, so its real part is shown
        raise StateValidationError(f"{what} has trace {tr.real}, not 1")


def _certified_factor(m: np.ndarray) -> np.ndarray | None:
    """Unscaled n x r factor B of a Hermitian, unit-trace ``m`` at its
    numerical rank, or None when B B^dagger is not within PSD_TOL of ``m``.

    Pivoted Cholesky: each column is the Schur-complement column of the
    largest remaining diagonal d, and the pivots stop once max d is at or
    below PSD_TOL / n, so that a PSD remainder has ||.||_F <= tr <= PSD_TOL.
    The columns are held as the rows of an array that doubles as the rank
    grows, and the residual is summed a block of rows at a time, so no n x n
    temporary is formed for a low-rank ``m``.
    B is kept only if ||m - B B^dagger||_F <= PSD_TOL; by Weyl's inequality
    the Hermitian part of ``m`` then has no eigenvalue below -PSD_TOL, the
    positivity rule of ``density_factor``.  A non-PSD ``m``, or one whose
    negative roundoff stays in the residual, gets None.
    """
    n = m.shape[0]
    d = m.diagonal().real.copy()
    cut = PSD_TOL / n
    bt = np.empty((0, n), dtype=complex)  # row k is column k of B; grown as the rank is found
    k = 0
    while k < n:
        p = int(np.argmax(d))
        if not d[p] > cut:
            break
        if k == len(bt):  # double the rows, in the same row-major layout
            bt = np.concatenate((bt, np.empty((min(max(k, 16), n - k), n), dtype=complex)))
        col = m[:, p] - bt[:k].T @ bt[:k, p].conj()
        col /= np.sqrt(d[p])
        bt[k] = col
        d -= col.real**2 + col.imag**2
        k += 1
    b = bt[:k].T.copy()
    bh = b.conj().T
    residual2 = 0.0  # ||m - B B^dagger||_F^2, a block of rows at a time
    for r in _row_blocks(n, n):
        e = b[r] @ bh
        e -= m[r]
        residual2 += np.vdot(e, e).real
    return b if np.sqrt(residual2) <= PSD_TOL else None


def density_factor(m: np.ndarray, what: str = "density matrix") -> np.ndarray:
    """n x r factor B of the density matrix ``m``, at its numerical rank and
    scaled to unit trace ||B||_F^2 = 1.

    This is the one statement of the density-matrix rule: raises
    StateValidationError, naming ``m`` as ``what``, unless ``m`` is
    square, Hermitian, unit trace and positive semidefinite within the
    module tolerances.  B is the pivoted Cholesky factor when
    ``_certified_factor`` certifies ``m``.  Otherwise one ``eigh`` refuses
    an eigenvalue below -PSD_TOL and keeps one column per eigenvalue above
    PSD_TOL / n, the cut of the Cholesky pivots, so both paths find the
    same rank.  The dropped remainder may move the trace, hence the scaling.
    """
    _check_hermitian_unit_trace(m, what)
    b = _certified_factor(m)
    if b is None:
        eigs, vecs = np.linalg.eigh(m)
        if not eigs[0] >= -PSD_TOL:
            raise StateValidationError(
                f"{what} is not positive semidefinite: min eigenvalue {eigs[0]:.3e}"
            )
        keep = eigs > PSD_TOL / len(m)
        b = vecs[:, keep] * np.sqrt(eigs[keep])
    return b / np.linalg.norm(b)


@record
class DensityMatrix:
    """Complex Hermitian, unit-trace, positive-semidefinite matrix with its
    n x r factor B, ``matrix = B B^dagger``.

    Give either ``matrix`` or ``factor``.  A matrix must pass the
    density-matrix rule of ``density_factor``, which also gives its factor
    at its numerical rank.  A given factor is Hermitian and PSD by
    construction, so only its trace ||B||_F^2 is checked, and no n x n
    array is formed: ``matrix``, a ``cached_property`` field, is then
    built as B B^dagger on first read, kept read-only, and not read by
    ``repr``.  A given array is taken through ``_readonly_complex``: a
    frozen C-ordered complex one, such as another state's ``matrix``, is
    held as it is, and any other is copied once, so that later writes to
    the caller's array do not reach the state.  ``Propagator.evolve``,
    ``entropy_trace`` and the global statistics work on the factor.
    """

    matrix: np.ndarray | None
    factor: np.ndarray | None = None

    @cached_property
    def matrix(self) -> np.ndarray:
        return _frozen(self.factor @ self.factor.conj().T)

    def __post_init__(self):
        given = vars(self).pop("matrix", None)  # an explicit None leaves matrix to be built
        if (given is None) == (self.factor is None):
            raise StateValidationError("give a density matrix or its factor, not both or neither")
        if self.factor is None:
            m = _readonly_complex(given)
            b = _frozen(density_factor(m))
            object.__setattr__(self, "matrix", m)
        else:
            b = _readonly_complex(self.factor)
            if b.ndim != 2:
                raise StateValidationError(f"factor must be an n x r matrix, got shape {b.shape}")
            tr = float(np.vdot(b, b).real)
            if not abs(tr - 1.0) <= TRACE_TOL:  # written so that NaN fails too
                raise StateValidationError(f"density matrix has trace {tr}, not 1")
        object.__setattr__(self, "factor", b)


@record
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _readonly_complex(self.amplitudes)
        if a.ndim != 1:
            raise StateValidationError("amplitudes must be a vector")
        norm2 = float(np.vdot(a, a).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # written so that NaN fails too
            raise StateValidationError(f"squared norm is {norm2}, not 1")
        object.__setattr__(self, "amplitudes", a)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|, factored as the column psi."""
    return DensityMatrix(factor=psi.amplitudes[:, None])


def _ginibre(rng: NormalStream, *shape: int) -> np.ndarray:
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
        if not abs(norm2 - 1.0) <= NORM_TOL:  # written so that NaN fails too
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
    The state is factored as Phi L, with L = ``density_factor(mu)``, so
    its rank is the numerical rank of mu: one for a rank-one mu.

    ``mu`` must pass the density-matrix rule of ``density_factor``
    (its StateValidationError is a ValueError naming ``mu``);
    ``shell_vectors[i]`` must be a unit vector of length equal to the
    degeneracy of shell ``shell_ids[i]``.
    """
    mu = np.asarray(mu, dtype=complex)
    if mu.shape != (len(shell_ids), len(shell_ids)):
        raise ValueError(f"mu must be {len(shell_ids)}x{len(shell_ids)}, got {mu.shape}")
    l = density_factor(mu, "mu")
    return DensityMatrix(factor=_shell_factor(basis, shell_ids, shell_vectors, l))


def entropy_from_eigenvalues(eigs: np.ndarray) -> float:
    """-sum(x ln x) over eigenvalues, dropping those at or below the clip.

    A kept eigenvalue is clipped at 1, where roundoff can lift a pure
    state's, so that every term is >= 0 and the sum is never negative."""
    kept = np.minimum(eigs[eigs > EIGENVALUE_CLIP], 1.0)
    return float(-(kept * np.log(kept)).sum()) + 0.0  # + 0.0: the negated sum of zero terms is -0.0


def _gram(rho: DensityMatrix) -> np.ndarray:
    """B^dagger B (r x r), which has the nonzero spectrum of rho = B B^dagger."""
    b = rho.factor
    return b.conj().T @ b


def global_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr rho ln rho, from the r x r Gram matrix of a
    DensityMatrix's factor."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(_gram(rho)))


def global_purity(rho: DensityMatrix) -> float:
    """Tr rho^2 = ||B^dagger B||_F^2 for a DensityMatrix; equals 1 exactly for
    rank-1 states."""
    g = _gram(rho)
    return float(np.vdot(g, g).real)


def random_pure_state(dim: int, rng: NormalStream) -> PureState:
    """Unit vector along a complex Gaussian draw of ``dim`` amplitudes."""
    a = _ginibre(rng, dim)
    return PureState(a / np.linalg.norm(a))


def random_density_matrix(dim: int, rng: NormalStream, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or given-rank) Wishart-style random mixed state
    g g^dagger / ||g||_F^2, held as its factor g / ||g||_F."""
    g = _ginibre(rng, dim, dim if rank is None else rank)
    return DensityMatrix(factor=g / np.linalg.norm(g))


def random_effectively_pure_state(
    basis: MomentumBasis,
    rng: NormalStream,
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
