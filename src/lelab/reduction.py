"""Bohr-frequency decomposition and reduction to the effective state.

A matrix on the momentum basis splits into components of definite Bohr
frequency alpha = E_col - E_row (the discrete spectrum of the free
generator).  The effective state is the alpha = 0 component, i.e. the
block-diagonal part over energy shells: there is no numerical
xi-integration, keeping the reduction exact.

Per shell E the reduction carries a weight lambda_E (the block trace)
and, where occupied, a normalized block rho_hat_E.  The effective
entropy is the unweighted sum of the per-shell entropies
S_E = -Tr rho_hat_E ln rho_hat_E; it vanishes exactly when every
occupied block has rank one (an effectively pure state).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from ._record import record
from .basis import MomentumBasis, bohr_labels
from .dynamics import Hamiltonian
from .errors import StateValidationError
from .states import (
    TRACE_TOL,
    DensityMatrix,
    as_matrix,
    entropy_from_eigenvalues,
)

# Shells with weight at or below this are treated as empty: the normalized
# block would be numerically meaningless.
TAU_LAMBDA = 1e-12
RANK_TOL = 1e-8


@record
class AlphaDecomposition:
    """Partition of a matrix into disjointly supported Bohr-frequency parts.

    Sectors are labels over one copy of the matrix, not copies of it;
    ``components`` builds a sector's matrix only when it is indexed.
    """

    matrix: np.ndarray         # read-only copy of the decomposed matrix
    labels: np.ndarray         # basis.bohr_labels: element alpha = label * delta_k**2
    sector_labels: np.ndarray  # distinct labels of the nonzero elements, ascending
    alphas: np.ndarray         # sector_labels * delta_k**2; [0.0] for a zero matrix
    delta_k: float

    @property
    def components(self) -> Sequence[np.ndarray]:
        """Full-size sector matrices, in the order of ``alphas``."""
        return _Components(self)

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; exact, because their supports are disjoint."""
        return np.where(np.isin(self.labels, self.sector_labels), self.matrix, 0)

    def component(self, alpha: float) -> np.ndarray:
        hits = np.flatnonzero(self.alphas == alpha)
        if len(hits) != 1:
            raise KeyError(f"no component at alpha = {alpha}; have {self.alphas}")
        return self.components[int(hits[0])]


@record
class _Components(Sequence):
    """Read-only sequence of the sector matrices of an AlphaDecomposition."""

    decomp: AlphaDecomposition

    def __len__(self) -> int:
        return len(self.decomp.sector_labels)

    def __getitem__(self, i: int) -> np.ndarray:
        d = self.decomp
        return np.where(d.labels == d.sector_labels[operator.index(i)], d.matrix, 0)


def alpha_decompose(matrix, basis: MomentumBasis) -> AlphaDecomposition:
    """Split ``matrix`` by alpha = E_col - E_row.

    Grouping runs over integer squared-norm differences, so the support
    partition is index bookkeeping, not floating-point arithmetic.
    """
    m = as_matrix(matrix).copy()  # the decomposition must not follow later writes to the input
    if m.shape != (basis.size, basis.size):
        raise ValueError(f"matrix shape {m.shape} does not match basis of size {basis.size}")
    labels = bohr_labels(basis)
    lo = labels.min()
    # one count per label in [lo, max] instead of a sort of the n^2 labels
    sector_labels = (np.flatnonzero(np.bincount((labels - lo)[m != 0])) + lo).astype(labels.dtype)
    if not sector_labels.size:  # zero matrix: keep a single empty alpha = 0 sector
        sector_labels = np.zeros(1, dtype=labels.dtype)
    alphas = sector_labels * basis.delta_k**2
    for a in (m, labels, sector_labels, alphas):
        a.setflags(write=False)
    return AlphaDecomposition(m, labels, sector_labels, alphas, basis.delta_k)


def free_phase_law(decomp: AlphaDecomposition, t: float) -> np.ndarray:
    """Free evolution in decomposed form: each component gains exp(+i alpha t).

    One phase per integer label in [min, max], gathered by ``labels``: the
    same elementwise formula as on the n^2 alphas, evaluated once per label."""
    labels = decomp.labels
    lo = labels.min()
    alpha = np.arange(lo, labels.max() + 1) * decomp.delta_k**2
    return np.exp(1j * alpha * t)[labels - lo] * decomp.matrix


@record
class ShellDecomposition:
    """Raw shell blocks of a matrix with their weights.

    ``blocks[s]`` is the untouched submatrix on shell s (trace
    ``weights[s]``); normalized blocks are exposed through
    :meth:`rho_hat` for occupied shells only.
    """

    weights: np.ndarray
    blocks: tuple[np.ndarray, ...]

    @property
    def occupied(self) -> np.ndarray:
        return self.weights > TAU_LAMBDA

    def rho_hat(self, s: int) -> np.ndarray | None:
        """Unit-trace block of shell s, or None if the shell is empty."""
        if self.weights[s] <= TAU_LAMBDA:
            return None
        return self.blocks[s] / self.weights[s]


def reduce(rho, basis: MomentumBasis) -> ShellDecomposition:
    """Effective state of ``rho``: its shell-block-diagonal part.

    Accepts a DensityMatrix or any Hermitian ndarray (the first-order
    step feeds a trace-one Hermitian matrix that need not be PSD).
    """
    m = as_matrix(rho)
    if m.shape != (basis.size, basis.size):
        raise ValueError(f"matrix shape {m.shape} does not match basis of size {basis.size}")
    blocks = tuple(m[np.ix_(mem, mem)].copy() for mem in basis.shells.members)
    weights = np.array([float(np.trace(b).real) for b in blocks])
    return ShellDecomposition(weights=weights, blocks=blocks)


def assemble_block_diagonal(dec: ShellDecomposition, basis: MomentumBasis) -> np.ndarray:
    """Embed the raw shell blocks back into a full block-diagonal matrix."""
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for mem, block in zip(basis.shells.members, dec.blocks):
        out[np.ix_(mem, mem)] = block
    return out


def _shell_stats(gram: np.ndarray, weight: float) -> tuple[float, bool]:
    """(S_E, rank one) of a shell block from ``gram``, the block or a Gram
    matrix with the same nonzero eigenvalues, and ``weight``, the block's
    trace.  An empty shell (weight <= TAU_LAMBDA) and a 1 x 1 ``gram``
    give (0.0, True) with no ``eigvalsh``.  Rank is judged by the
    second-largest eigenvalue of gram / weight, so ``RANK_TOL`` is scale-free."""
    if weight <= TAU_LAMBDA or gram.shape[0] == 1:
        return 0.0, True
    eigs = np.linalg.eigvalsh(gram / weight)
    return entropy_from_eigenvalues(eigs), bool(eigs[-2] < RANK_TOL)


def shell_entropies(dec: ShellDecomposition) -> np.ndarray:
    """Per-shell S_E = -Tr rho_hat_E ln rho_hat_E; zero on empty shells."""
    return np.array([_shell_stats(b, w)[0] for b, w in zip(dec.blocks, dec.weights)])


def effective_entropy(dec: ShellDecomposition) -> float:
    """Sum of per-shell entropies over occupied shells (unweighted)."""
    return float(shell_entropies(dec).sum())


def is_effectively_pure(dec: ShellDecomposition) -> bool:
    """True iff every occupied normalized block has rank one (``_shell_stats``)."""
    return all(_shell_stats(b, w)[1] for b, w in zip(dec.blocks, dec.weights))


def first_order_reduced_step(
    rho0: DensityMatrix, h: Hamiltonian, t: float, basis: MomentumBasis
) -> ShellDecomposition:
    """First-order effective state: reduce(rho0 - i t [v, rho0]).

    The free part drops out of the reduction (its commutator has no
    block-diagonal component), so only the interaction enters.  The
    deviation from the exactly evolved reduction is O(t^2) for fixed H.
    """
    m = rho0.matrix
    v = h.v
    corrected = m - 1j * t * (v @ m - m @ v)
    return reduce(corrected, basis)


@record
class TraceRow:
    """One time point of an entropy trace."""

    t: float
    effective_entropy: float
    global_entropy: float
    purity: float
    effectively_pure: bool
    shell_entropies: np.ndarray


def entropy_trace(
    rho0: DensityMatrix,
    h: Hamiltonian,
    time_grid: Sequence[float],
    basis: MomentumBasis,
) -> list[TraceRow]:
    """Evolve exactly to each grid time, reduce, and report.

    Works on the n x r factor B of rho0 = B B^dagger (``rho0.factor``):
    each row takes the ``Propagator.evolved_factors`` step of ``h.propagator``
    to rho(t) = C C^dagger, at O(n^2 r), and gathers C's rows into shell
    order.  ||C||_F^2 must be one within TRACE_TOL (StateValidationError
    otherwise); rho(t) is Hermitian and PSD by construction.  The r x r
    C^dagger C has the nonzero spectrum of rho(t), which gives S_global,
    and tr rho^2 = ||C^dagger C||_F^2.  The shell block C_s C_s^dagger (C_s
    the rows of shell s) has weight ||C_s||_F^2 and the nonzero eigenvalues
    of the smaller of C_s C_s^dagger and C_s^dagger C_s: ``_shell_stats``
    of that Gram matrix gives S_E and the rank-one test, and one of size
    one (a one-member shell, or r = 1) is skipped.  Rows follow the grid.
    """
    r = rho0.factor.shape[1]
    # C's rows in shell order, so that each shell's rows are one slice.
    order = np.concatenate(basis.shells.members)
    bounds = np.cumsum([0] + [len(mem) for mem in basis.shells.members])
    shells = [(s, lo, hi) for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
              if min(hi - lo, r) > 1]

    rows = []
    for t, c in zip(time_grid, h.propagator.evolved_factors(rho0.factor, time_grid)):
        t = float(t)
        c = c[order]
        gram = c.conj().T @ c
        norm2 = float(np.trace(gram).real)
        if not abs(norm2 - 1.0) <= TRACE_TOL:  # written so that NaN fails too
            raise StateValidationError(f"state at t = {t} has trace {norm2}, not 1")
        per_shell = np.zeros(basis.n_shells)
        pure = True
        for s, lo, hi in shells:
            cs = c[lo:hi]
            block_gram = cs @ cs.conj().T if hi - lo <= r else cs.conj().T @ cs
            per_shell[s], rank_one = _shell_stats(block_gram, float(np.vdot(cs, cs).real))
            pure = pure and rank_one
        rows.append(TraceRow(
            t=t,
            effective_entropy=float(per_shell.sum()),
            global_entropy=entropy_from_eigenvalues(np.linalg.eigvalsh(gram)),
            purity=float(np.vdot(gram, gram).real),
            effectively_pure=pure,
            shell_entropies=per_shell,
        ))
    return rows
