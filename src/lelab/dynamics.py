"""Hamiltonians, exact unitary evolution, and Liouvillian superoperators.

Sign conventions.  The evolution generator is the commutator map
L X = H X - X H, so exp(-i L t) rho = U rho U^dagger with U = exp(-i H t),
and the free part acts on the elementary matrix |i><j| with eigenvalue
E_i - E_j.  Bohr-frequency labels use the opposite orientation,
alpha = E_col - E_row, so that the alpha component of a state picks up
the phase exp(+i alpha t) under free evolution (see reduction).

Evolution goes through an eigendecomposition of H rather than a
time stepper: it is exact to machine precision, so integrator error
cannot masquerade as entropy change.  ``evolved_factor`` is its one step,
on a state's n x r factor, for ``Propagator.evolve`` and ``entropy_trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import MomentumBasis, bohr_labels
from .errors import DimensionCapError
from .states import HERMITICITY_TOL, DensityMatrix

# A dim-64 system already implies a 4096^2 superoperator; refuse beyond that.
SUPEROP_DIM_CAP = 64
# Elements of the superoperator that ``alpha_offblock_norm`` reads per chunk.
OFFBLOCK_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Hamiltonian:
    """H = diag(h0) + v with v Hermitian.

    ``v`` keeps its dtype (integers become float): a real symmetric v,
    such as the Yukawa matrix, gives a real H whose ``eigh`` runs in real
    arithmetic, and a complex v runs the same code in complex.
    """

    h0_diag: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h0 = np.asarray(self.h0_diag, dtype=float)
        v = np.asarray(self.v)
        v = np.asarray(v, dtype=np.result_type(v, np.float64))
        if h0.ndim != 1:
            raise ValueError("h0_diag must be a vector")
        if not np.isfinite(h0).all():
            raise ValueError(f"h0_diag must be finite, got {h0[~np.isfinite(h0)][0]}")
        if v.shape != (len(h0), len(h0)):
            raise ValueError(f"v must be {len(h0)}x{len(h0)}, got {v.shape}")
        herm = np.abs(v - v.conj().T).max() if v.size else 0.0
        if not herm <= HERMITICITY_TOL:  # written so that NaN fails too
            raise ValueError(f"v is not Hermitian: max deviation {herm:.3e}")
        for a in (h0, v):
            a.setflags(write=False)
        object.__setattr__(self, "h0_diag", h0)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return len(self.h0_diag)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.h0_diag) + self.v

    @cached_property
    def propagator(self) -> "Propagator":
        """Eigendecomposition of this H, computed on first use and kept."""
        return Propagator.from_hamiltonian(self)


def build_hamiltonian(basis: MomentumBasis, coupling: float, screening: float) -> Hamiltonian:
    """Free energies plus the full Yukawa matrix v[i,j] = Vt(k_i - k_j), with the
    momentum-space screened-Coulomb amplitude Vt(k) = 4 pi A / (mu (|k|^2 + mu^2)).

    Vt is real and even, so v is real symmetric and so is H.  All
    box-normalization constants are absorbed into the coupling A.
    """
    if not screening > 0:
        raise ValueError(f"screening must be positive, got {screening}")
    # |n_i - n_j|^2 in exact integers, without an (n, n, 3) difference array
    p = basis.points
    d2 = basis.norms2[:, None] + basis.norms2[None, :] - 2 * (p @ p.T)
    k2 = d2 * basis.delta_k**2
    v = 4.0 * np.pi * coupling / (screening * (k2 + screening * screening))
    return Hamiltonian(h0_diag=basis.energies, v=v)


def evolved_factor(q: np.ndarray, w: np.ndarray, g: np.ndarray, t: float) -> np.ndarray:
    """C(t) = q (e^{-iwt} (.) g), the factor of rho(t) = C C^dagger, for rho(0) =
    B B^dagger, H = Q diag(w) Q^dagger, g = Q^dagger B (C-contiguous) and q = Q
    or Q with its rows permuted.  A real q multiplies the interleaved real and
    imaginary parts in one real product: half the flops, no complex copy of q.
    A ``t`` that is not finite raises ValueError before the phases are taken."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x = np.exp(-1j * w * t)[:, None] * g
    if np.isrealobj(q):
        return (q @ x.view(np.float64)).view(np.complex128)
    return q @ x


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of H; evolves factored states.  ``unitary`` is the tests' dense U(t)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "Propagator":
        w, q = np.linalg.eigh(h.matrix)
        w.setflags(write=False)
        q.setflags(write=False)
        return cls(eigenvalues=w, eigenvectors=q)

    def unitary(self, t: float) -> np.ndarray:
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def evolve(self, rho: DensityMatrix, t: float) -> DensityMatrix:
        """U(t) rho U(t)^dagger as ``DensityMatrix(factor=C)``, C of rho's rank.

        Builds no U(t) and takes no n x n spectrum: it reads ``rho.factor``,
        which a full-matrix state got from the pivoted Cholesky (or ``eigh``)
        that checked it; only ||C||_F^2 = 1 is checked."""
        q = self.eigenvectors
        g = q.conj().T @ rho.factor
        return DensityMatrix(factor=evolved_factor(q, self.eigenvalues, g, float(t)))


def evolve(rho: DensityMatrix, h: Hamiltonian, t: float) -> DensityMatrix:
    """rho(t) = U(t) rho U(t)^dagger via the (cached) eigendecomposition of H."""
    return h.propagator.evolve(rho, t)


@dataclass(frozen=True)
class Superoperator:
    """dim^2 x dim^2 matrix acting on row-major vectorized dim x dim matrices."""

    matrix: np.ndarray
    dim: int

    def apply(self, m: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(m, dtype=complex).reshape(-1)).reshape(self.dim, self.dim)


def commutator_superoperator(m, cap: int = SUPEROP_DIM_CAP) -> Superoperator:
    """Superoperator of X -> m X - X m on row-major vec(X)."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    if m.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds superoperator cap {cap}")
    eye = np.eye(dim)
    return Superoperator(np.kron(m, eye) - np.kron(eye, m.T), dim)


def liouvillian_superoperator(h: Hamiltonian, cap: int = SUPEROP_DIM_CAP) -> Superoperator:
    """Commutator map with the full H; spectrum is real since H is Hermitian.

    Assembled as the float sum of the free part and the interaction part,
    so the split into the commutator maps of diag(h0) and v carries no
    floating-point residue.
    """
    free = commutator_superoperator(np.diag(h.h0_diag.astype(complex)), cap)
    inter = commutator_superoperator(h.v, cap)
    return Superoperator(free.matrix + inter.matrix, h.dim)


def alpha_offblock_norm(op, basis: MomentumBasis) -> tuple[float, float]:
    """(max element, Frobenius norm) of the part of ``op`` coupling
    different Bohr-frequency sectors."""
    s = op.matrix if isinstance(op, Superoperator) else np.asarray(op)
    labels = bohr_labels(basis).reshape(-1)
    if s.shape != (len(labels), len(labels)):
        raise ValueError(f"operator shape {s.shape} does not match basis of size {basis.size}")
    # A few rows at a time, with in-sector elements zeroed, so the extra
    # memory is bounded by the chunk instead of a gather of every
    # off-sector element.
    n = len(labels)
    step = max(1, OFFBLOCK_CHUNK_ELEMENTS // n)
    max_off = sum_sq = 0.0
    for r in range(0, n, step):
        mags = np.abs(s[r : r + step], dtype=float)
        mags[labels[r : r + step, None] == labels[None, :]] = 0.0
        max_off = max(max_off, float(mags.max()))
        sum_sq += float(np.vdot(mags, mags))
    return max_off, float(np.sqrt(sum_sq))


def alpha_diagonality_test(op, basis: MomentumBasis, tol: float = 1e-10) -> bool:
    """True iff ``op`` never maps one Bohr-frequency sector into another
    beyond ``tol`` (elementwise), i.e. it commutes with the free-part
    eigenspace projections."""
    max_off, _ = alpha_offblock_norm(op, basis)
    return max_off <= tol
