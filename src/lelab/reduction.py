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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import MomentumBasis
from .dynamics import Hamiltonian
from .states import (
    DensityMatrix,
    as_matrix,
    entropy_from_eigenvalues,
    global_purity,
    validated_spectrum,
)

# Shells with weight at or below this are treated as empty: the normalized
# block would be numerically meaningless.
TAU_LAMBDA = 1e-12
RANK_TOL = 1e-8


@dataclass(frozen=True)
class AlphaDecomposition:
    """Partition of a matrix into disjointly supported Bohr-frequency parts."""

    alphas: np.ndarray                  # distinct frequencies, ascending
    components: tuple[np.ndarray, ...]  # same shape as the input, disjoint supports

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; equals the decomposed matrix exactly."""
        out = np.zeros_like(self.components[0])
        for c in self.components:
            out = out + c
        return out

    def component(self, alpha: float) -> np.ndarray:
        hits = np.flatnonzero(self.alphas == alpha)
        if len(hits) != 1:
            raise KeyError(f"no component at alpha = {alpha}; have {self.alphas}")
        return self.components[int(hits[0])]


def alpha_decompose(matrix, basis: MomentumBasis) -> AlphaDecomposition:
    """Split ``matrix`` by alpha = E_col - E_row.

    Grouping runs over integer squared-norm differences, so the support
    partition is index bookkeeping, not floating-point arithmetic.
    """
    m = as_matrix(matrix)
    n = basis.size
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match basis of size {n}")
    diffs = basis.norms2[None, :] - basis.norms2[:, None]
    alphas = []
    components = []
    for d in np.unique(diffs):
        comp = np.where(diffs == d, m, 0)
        if np.any(comp != 0):
            alphas.append(d)
            components.append(comp)
    if not components:  # zero matrix: keep a single empty alpha = 0 sector
        alphas, components = [0], [np.zeros_like(m)]
    return AlphaDecomposition(
        alphas=np.array(alphas) * basis.delta_k**2, components=tuple(components)
    )


def free_phase_law(decomp: AlphaDecomposition, t: float) -> np.ndarray:
    """Free evolution in decomposed form: each component gains exp(+i alpha t)."""
    out = np.zeros_like(decomp.components[0], dtype=complex)
    for alpha, comp in zip(decomp.alphas, decomp.components):
        out = out + np.exp(1j * alpha * t) * comp
    return out


@dataclass(frozen=True)
class ShellDecomposition:
    """Raw shell blocks of a matrix with their weights.

    ``blocks[s]`` is the untouched submatrix on shell s (trace
    ``weights[s]``); normalized blocks are exposed through
    :meth:`rho_hat` for occupied shells only.
    """

    shell_energies: np.ndarray
    weights: np.ndarray
    blocks: tuple[np.ndarray, ...]

    @property
    def n_shells(self) -> int:
        return len(self.weights)

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
    return ShellDecomposition(
        shell_energies=basis.shells.energies, weights=weights, blocks=blocks
    )


def assemble_block_diagonal(dec: ShellDecomposition, basis: MomentumBasis) -> np.ndarray:
    """Embed the raw shell blocks back into a full block-diagonal matrix."""
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for mem, block in zip(basis.shells.members, dec.blocks):
        out[np.ix_(mem, mem)] = block
    return out


def shell_entropies(dec: ShellDecomposition) -> np.ndarray:
    """Per-shell S_E = -Tr rho_hat_E ln rho_hat_E; zero on empty shells."""
    out = np.zeros(dec.n_shells)
    for s in range(dec.n_shells):
        block = dec.rho_hat(s)
        if block is None or block.shape[0] == 1:
            continue
        out[s] = entropy_from_eigenvalues(np.linalg.eigvalsh(block))
    return out


def effective_entropy(dec: ShellDecomposition) -> float:
    """Sum of per-shell entropies over occupied shells (unweighted)."""
    return float(shell_entropies(dec).sum())


def weighted_effective_entropy(dec: ShellDecomposition) -> float:
    """Secondary statistic: sum of lambda_E * S_E.

    Not used by any acceptance gate; reported for mixture-structure
    comparisons only.
    """
    return float((dec.weights * shell_entropies(dec)).sum())


def is_effectively_pure(dec: ShellDecomposition, tol_rank: float = RANK_TOL) -> bool:
    """True iff every occupied normalized block has rank one.

    Rank is judged by the second-largest eigenvalue of the normalized
    block, so ``tol_rank`` is scale-free.
    """
    for s in range(dec.n_shells):
        block = dec.rho_hat(s)
        if block is None or block.shape[0] == 1:
            continue
        eigs = np.linalg.eigvalsh(block)
        if eigs[-2] >= tol_rank:
            return False
    return True


def expectation_xi_independent(shell_ops: Sequence[np.ndarray], rho: DensityMatrix, basis: MomentumBasis) -> float:
    """Expectation of a shell-block-diagonal observable from the reduction.

    ``shell_ops`` gives the observable as one Hermitian block per shell
    (this is what commuting with the free Hamiltonian means structurally).
    Returns sum_E lambda_E Tr(A_E rho_hat_E), which equals Tr(A rho).
    """
    if len(shell_ops) != basis.n_shells:
        raise ValueError(
            f"observable must supply one block per shell ({basis.n_shells}), got {len(shell_ops)}"
        )
    dec = reduce(rho, basis)
    total = 0.0 + 0.0j
    for s, (op, mem) in enumerate(zip(shell_ops, basis.shells.members)):
        op = np.asarray(op, dtype=complex)
        if op.shape != (len(mem), len(mem)):
            raise ValueError(
                f"block {s} must be {len(mem)}x{len(mem)} to be shell-block-diagonal, got {op.shape}"
            )
        total += np.trace(op @ dec.blocks[s])
    return float(total.real)


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


@dataclass(frozen=True)
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

    Works in the eigenbasis of H = Q diag(w) Q^dagger, taken once from
    ``h.propagator``: X0 = Q^dagger rho0 Q is formed once, and
    X(t) = e^{-iwt} X0 e^{+iwt} is an elementwise phase.  Every row
    validates X(t) as a density matrix; that spectrum also gives
    S_global, and ||X(t)||_F^2 gives tr rho^2 (both are invariant under
    the rotation back to the momentum basis).  Shell blocks of rho(t) come
    from one product Y = Q[members] X(t) as Y[rows_s] Q[members_s]^dagger,
    and one ``eigvalsh`` per occupied block gives both S_E and the
    rank-one test.  One-member shells have zero entropy and rank at most
    one, so they need no block.  Rows follow the grid.
    """
    prop = h.propagator
    w, q = prop.eigenvalues, prop.eigenvectors
    x0 = q.conj().T @ as_matrix(rho0) @ q
    # (shell, its rows in Y, Q[members]^dagger) for every multi-member shell
    shells, order = [], []
    for s, mem in enumerate(basis.shells.members):
        if len(mem) > 1:
            shells.append((s, len(order), len(order) + len(mem), q[mem].conj().T))
            order.extend(mem)
    q_multi = q[np.array(order, dtype=int)]

    rows = []
    for t in time_grid:
        t = float(t)
        phase = np.exp(-1j * w * t)
        x = phase[:, None] * x0 * phase.conj()
        spectrum = validated_spectrum(x)
        y = q_multi @ x
        per_shell = np.zeros(basis.n_shells)
        pure = True
        for s, lo, hi, q_shell_h in shells:
            block = y[lo:hi] @ q_shell_h
            weight = float(np.trace(block).real)
            if weight <= TAU_LAMBDA:
                continue
            eigs = np.linalg.eigvalsh(block / weight)
            per_shell[s] = entropy_from_eigenvalues(eigs)
            pure = pure and bool(eigs[-2] < RANK_TOL)
        rows.append(TraceRow(
            t=t,
            effective_entropy=float(per_shell.sum()),
            global_entropy=entropy_from_eigenvalues(spectrum),
            purity=global_purity(x),
            effectively_pure=pure,
            shell_entropies=per_shell,
        ))
    return rows
