"""Hamiltonians, exact unitary evolution, and Liouvillian superoperators.

Sign conventions.  The evolution generator is the commutator map
L X = H X - X H, so exp(-i L t) rho = U rho U^dagger with U = exp(-i H t),
and the free part acts on the elementary matrix |i><j| with eigenvalue
E_i - E_j.  Bohr-frequency labels use the opposite orientation,
alpha = E_col - E_row, so that the alpha component of a state picks up
the phase exp(+i alpha t) under free evolution (see reduction).
``interaction_liouvillian_element`` is stated in the alpha-labeling
orientation and therefore equals minus the commutator element.

Evolution goes through an eigendecomposition of H rather than a
time stepper: it is exact to machine precision, so integrator error
cannot masquerade as entropy change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import MomentumBasis
from .errors import DimensionCapError
from .states import HERMITICITY_TOL, DensityMatrix

# A dim-64 system already implies a 4096^2 superoperator; refuse beyond that.
SUPEROP_DIM_CAP = 64


@dataclass(frozen=True)
class Hamiltonian:
    """H = diag(h0) + v with v Hermitian.

    ``coupling`` and ``screening`` record the Yukawa parameters used to
    build ``v``; they are informational for hand-assembled operators.
    All box-normalization constants are absorbed into the coupling.
    """

    h0_diag: np.ndarray
    v: np.ndarray
    coupling: float
    screening: float

    def __post_init__(self):
        h0 = np.asarray(self.h0_diag, dtype=float)
        v = np.asarray(self.v, dtype=complex)
        if h0.ndim != 1:
            raise ValueError("h0_diag must be a vector")
        if v.shape != (len(h0), len(h0)):
            raise ValueError(f"v must be {len(h0)}x{len(h0)}, got {v.shape}")
        herm = np.abs(v - v.conj().T).max() if v.size else 0.0
        if herm > HERMITICITY_TOL:
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
        return np.diag(self.h0_diag.astype(complex)) + self.v

    @cached_property
    def propagator(self) -> "Propagator":
        """Eigendecomposition of this H, computed on first use and kept."""
        return Propagator.from_hamiltonian(self)


def yukawa_fourier(k, coupling: float, screening: float) -> float:
    """Momentum-space screened-Coulomb amplitude 4 pi A / (mu (|k|^2 + mu^2))."""
    if not screening > 0:
        raise ValueError(f"screening must be positive, got {screening}")
    k = np.asarray(k, dtype=float)
    k2 = float(k @ k)
    return 4.0 * np.pi * coupling / (screening * (k2 + screening * screening))


def build_hamiltonian(basis: MomentumBasis, coupling: float, screening: float) -> Hamiltonian:
    """Free energies plus the full Yukawa matrix v[i,j] = Vt(k_i - k_j).

    Vt is real and even, so v is real symmetric.
    """
    if not screening > 0:
        raise ValueError(f"screening must be positive, got {screening}")
    d = basis.points[:, None, :] - basis.points[None, :, :]
    k2 = (d * d).sum(axis=-1) * basis.delta_k**2
    v = 4.0 * np.pi * coupling / (screening * (k2 + screening * screening))
    return Hamiltonian(h0_diag=basis.energies, v=v, coupling=float(coupling), screening=float(screening))


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of H; builds U(t) and conjugates states exactly."""

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
        u = self.unitary(t)
        out = u @ rho.matrix @ u.conj().T
        return DensityMatrix((out + out.conj().T) / 2)


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


def interaction_liouvillian_element(
    basis: MomentumBasis, i1: int, i2: int, i3: int, i4: int, coupling: float, screening: float
) -> complex:
    """Momentum-representation element of the interaction part,

        delta(i1,i3) Vt(k2 - k4) - delta(i2,i4) Vt(k1 - k3),

    in the alpha-labeling orientation (the map X -> X v - v X); it equals
    minus the matrix element of the commutator map used for evolution.
    """
    for i in (i1, i2, i3, i4):
        if not 0 <= i < basis.size:
            raise IndexError(f"point index {i} out of range for basis of size {basis.size}")
    out = 0.0
    if i1 == i3:
        out += yukawa_fourier((basis.points[i2] - basis.points[i4]) * basis.delta_k, coupling, screening)
    if i2 == i4:
        out -= yukawa_fourier((basis.points[i1] - basis.points[i3]) * basis.delta_k, coupling, screening)
    return complex(out)


def _alpha_labels(basis: MomentumBasis) -> np.ndarray:
    """Integer alpha label (col norm minus row norm) per vectorized index."""
    n2 = basis.norms2
    return (n2[None, :] - n2[:, None]).reshape(-1)


def alpha_offblock_norm(op, basis: MomentumBasis) -> tuple[float, float]:
    """(max element, Frobenius norm) of the part of ``op`` coupling
    different Bohr-frequency sectors."""
    s = op.matrix if isinstance(op, Superoperator) else np.asarray(op, dtype=complex)
    labels = _alpha_labels(basis)
    if s.shape != (len(labels), len(labels)):
        raise ValueError(f"operator shape {s.shape} does not match basis of size {basis.size}")
    off = s[labels[:, None] != labels[None, :]]
    if off.size == 0:
        return 0.0, 0.0
    mags = np.abs(off)
    return float(mags.max()), float(np.sqrt((mags * mags).sum()))


def alpha_diagonality_test(op, basis: MomentumBasis, tol: float = 1e-10) -> bool:
    """True iff ``op`` never maps one Bohr-frequency sector into another
    beyond ``tol`` (elementwise), i.e. it commutes with the free-part
    eigenspace projections."""
    max_off, _ = alpha_offblock_norm(op, basis)
    return max_off <= tol
