"""Density matrices, pure states, and the global entropy and purity.

Validation tolerances are fixed so that test oracles are unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def validated_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of ``m`` after checking it is a density matrix.

    Raises StateValidationError unless ``m`` is square, Hermitian, unit
    trace and positive semidefinite within the module tolerances.  The
    one ``eigvalsh`` serves both the PSD check and any entropy the
    caller derives from the spectrum.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"density matrix must be square, got shape {m.shape}")
    herm = np.abs(m - m.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise StateValidationError(f"not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidationError(f"trace is {tr}, not 1")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -PSD_TOL:
        raise StateValidationError(f"not positive semidefinite: min eigenvalue {eigs[0]:.3e}")
    return eigs


@dataclass(frozen=True)
class DensityMatrix:
    """Complex Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _readonly_complex(self.matrix)
        validated_spectrum(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def as_matrix(rho) -> np.ndarray:
    """Underlying ndarray of a DensityMatrix, or the array itself."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def density_to_json(rho: DensityMatrix) -> str:
    """Serialize to JSON as a square nesting of [re, im] pairs."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix]
    return json.dumps({"matrix": rows})


def density_from_json(text: str) -> DensityMatrix:
    """Rebuild a density matrix from JSON; state invariants are re-checked."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError("expected an object with a 'matrix' field")
    arr = np.asarray(doc["matrix"], dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix must be a square nesting of [re, im] pairs")
    return DensityMatrix(arr[..., 0] + 1j * arr[..., 1])


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

    ``mu`` must be Hermitian, positive semidefinite and unit trace;
    ``shell_vectors[i]`` must be a unit vector of length equal to the
    degeneracy of shell ``shell_ids[i]``.
    """
    ids = [int(s) for s in shell_ids]
    if len(set(ids)) != len(ids):
        raise ValueError("shell ids must be distinct")
    if any(not 0 <= s < basis.n_shells for s in ids):
        raise ValueError(f"shell ids must lie in [0, {basis.n_shells})")
    if len(shell_vectors) != len(ids):
        raise ValueError("need exactly one vector per listed shell")
    vecs = []
    for s, v in zip(ids, shell_vectors):
        v = np.asarray(v, dtype=complex)
        deg = len(basis.shells.members[s])
        if v.shape != (deg,):
            raise ValueError(f"vector for shell {s} must have length {deg}, got {v.shape}")
        norm2 = float(np.vdot(v, v).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"vector for shell {s} has squared norm {norm2}, not 1")
        vecs.append(v)

    mu = np.asarray(mu, dtype=complex)
    if mu.shape != (len(ids), len(ids)):
        raise ValueError(f"mu must be {len(ids)}x{len(ids)}, got {mu.shape}")
    if np.abs(mu - mu.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("mu must be Hermitian")
    if abs(np.trace(mu) - 1.0) > TRACE_TOL:
        raise ValueError(f"mu must have unit trace, got {np.trace(mu)}")
    if np.linalg.eigvalsh(mu).min() < -PSD_TOL:
        raise ValueError("mu must be positive semidefinite")

    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for a, (sa, va) in enumerate(zip(ids, vecs)):
        ma = basis.shells.members[sa]
        for b, (sb, vb) in enumerate(zip(ids, vecs)):
            mb = basis.shells.members[sb]
            rho[np.ix_(ma, mb)] = mu[a, b] * np.outer(va, vb.conj())
    return DensityMatrix(rho)


def entropy_from_eigenvalues(eigs: np.ndarray) -> float:
    """-sum(x ln x) over eigenvalues, dropping those at or below the clip."""
    kept = eigs[eigs > EIGENVALUE_CLIP]
    if kept.size == 0:
        return 0.0
    return float(-(kept * np.log(kept)).sum())


def global_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr rho ln rho."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(as_matrix(rho)))


def global_purity(rho: DensityMatrix) -> float:
    """Tr rho^2; equals 1 exactly for rank-1 states."""
    m = as_matrix(rho)
    return float(np.vdot(m, m).real)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(a / np.linalg.norm(a))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or given-rank) Wishart-style random mixed state."""
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_psd_unit_trace(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_effectively_pure_state(
    basis: MomentumBasis,
    rng: np.random.Generator,
    shell_ids: Sequence[int] | None = None,
    mu: np.ndarray | None = None,
) -> DensityMatrix:
    """Seeded effectively pure mixed state over the given shells (default all)."""
    ids = list(range(basis.n_shells)) if shell_ids is None else [int(s) for s in shell_ids]
    vecs = [random_pure_state(len(basis.shells.members[s]), rng).amplitudes for s in ids]
    if mu is None:
        mu = random_psd_unit_trace(len(ids), rng)
    return effectively_pure_state(basis, ids, vecs, mu)
