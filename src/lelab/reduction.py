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
occupied block has rank one (an effectively pure state).  There is one
shell reduction: for rho = C C^dagger, the block C_s C_s^dagger of
shell s, with C_s one row range of C (the basis is in shell order), has
the nonzero spectrum of a smaller Gram matrix (``_shell_blocks``, which
also gives every shell's weight), which ``entropy_trace`` takes on each
row's C and ``reduce`` on a state's factor.

No other module reads the labels (``bohr_labels``, ``_label_range``).  A
sector is a set of shell pairs (``_Components``), and the passes that
read every element take the labels a block of rows at a time
(``_record._row_blocks``): none builds an n x n label or mask array.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from ._record import _frozen, _row_blocks, record
from .basis import MomentumBasis
from .dynamics import Hamiltonian
from .errors import StateValidationError
from .states import (
    TRACE_TOL,
    DensityMatrix,
    _readonly_complex,
    entropy_from_eigenvalues,
)

# Shells with weight at or below this are treated as empty: the normalized
# block would be numerically meaningless.
TAU_LAMBDA = 1e-12
RANK_TOL = 1e-8


def bohr_labels(basis: MomentumBasis, rows=slice(None)) -> np.ndarray:
    """Integer Bohr label |n_col|^2 - |n_row|^2 of the matrix elements in
    ``rows`` (default all): element (a, b) has alpha = E_b - E_a =
    label * delta_k^2, exactly.  The one formula for the labels, read
    whole by ``alpha_offblock_norm`` and a block of rows at a time by
    ``alpha_decompose`` and ``reconstruct``; a sector matrix reads shell
    pairs and ``free_phase_law`` one label per (row, column shell) pair."""
    n2 = basis.norms2
    return n2[None, :] - n2[rows, None]


def _label_range(basis: MomentumBasis):
    """lo = min |n|^2 - max |n|^2: every Bohr label of ``basis`` lies in [lo, -lo]."""
    return basis.norms2.min() - basis.norms2.max()


def alpha_offblock_norm(s: np.ndarray, basis: MomentumBasis) -> tuple[float, float]:
    """(max element, Frobenius norm) of the part of the superoperator
    matrix ``s`` coupling different Bohr-frequency sectors."""
    s = np.asarray(s)
    labels = bohr_labels(basis).reshape(-1)
    if s.shape != (len(labels), len(labels)):
        raise ValueError(f"operator shape {s.shape} does not match basis of size {basis.size}")
    # A block of rows at a time, with in-sector elements zeroed, so the
    # extra memory is bounded by the block instead of a gather of every
    # off-sector element.
    max_off = sum_sq = 0.0
    for r in _row_blocks(len(labels), len(labels)):
        mags = np.abs(s[r], dtype=float)
        mags[labels[r, None] == labels[None, :]] = 0.0
        max_off = max(max_off, float(mags.max()))
        sum_sq += float(np.vdot(mags, mags))
    return max_off, float(np.sqrt(sum_sq))


@record(hide=("_basis",))
class AlphaDecomposition:
    """Partition of a matrix into disjointly supported Bohr-frequency parts.

    Element (a, b) carries the integer label |n_b|^2 - |n_a|^2 of
    ``bohr_labels``.  A sector is a label, not a copy:
    ``components`` builds a sector's matrix only when it is indexed,
    from its shell-pair blocks alone, and ``reconstruct`` reads the
    labels a block of rows at a time, so no n x n label or mask array
    is built.
    """

    matrix: np.ndarray         # the decomposed matrix, read-only; the caller's own when it was frozen
    sector_labels: np.ndarray  # distinct labels of the nonzero elements, ascending
    alphas: np.ndarray         # sector_labels * delta_k**2; [0.0] for a zero matrix
    _basis: MomentumBasis      # the basis the labels and delta_k are read from

    @property
    def components(self) -> Sequence[np.ndarray]:
        """Full-size sector matrices, in the order of ``alphas``."""
        return _Components(self)

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; exact, because their supports are disjoint.
        One n x n output, filled one block of rows at a time."""
        lo = _label_range(self._basis)
        kept = np.zeros(1 - 2 * lo, dtype=bool)
        kept[self.sector_labels - lo] = True
        m = self.matrix
        out = np.zeros_like(m)
        for r in _row_blocks(len(m), len(m)):
            np.copyto(out[r], m[r], where=kept[bohr_labels(self._basis, r) - lo])
        return out


@record
class _Components(Sequence):
    """Read-only sequence of the sector matrices of an AlphaDecomposition."""

    decomp: AlphaDecomposition

    def __len__(self) -> int:
        return len(self.decomp.sector_labels)

    def __getitem__(self, i: int) -> np.ndarray:
        """The sector's shell-pair blocks m[s, p], each one 2-D slice, copied
        into a zeroed n x n output.  Shell norms are distinct, so row shell s
        has at most one partner p, the one of norm norms2[s] + label: one
        searchsorted finds them all."""
        label = self.decomp.sector_labels[operator.index(i)]
        shells = self.decomp._basis.shells
        target = shells.norms2 + label
        partner = np.minimum(np.searchsorted(shells.norms2, target), len(target) - 1)
        m = self.decomp.matrix
        out = np.zeros(m.shape, m.dtype)
        for s in np.flatnonzero(shells.norms2[partner] == target):
            block = slice(*shells.bounds[s:s + 2]), slice(*shells.bounds[partner[s]:partner[s] + 2])
            out[block] = m[block]
        return out


def alpha_decompose(matrix, basis: MomentumBasis) -> AlphaDecomposition:
    """Split ``matrix`` by alpha = E_col - E_row.

    Grouping runs over integer squared-norm differences, so the support
    partition is index bookkeeping, not floating-point arithmetic.  A
    frozen C-ordered complex matrix (any ``DensityMatrix.matrix``) is
    held as it is; any other is copied once into C order
    (``states._readonly_complex``).
    """
    m = _readonly_complex(matrix.matrix if isinstance(matrix, DensityMatrix) else matrix)
    if m.shape != (basis.size, basis.size):
        raise ValueError(f"matrix shape {m.shape} does not match basis of size {basis.size}")
    lo = _label_range(basis)
    present = np.zeros(1 - 2 * lo, dtype=bool)  # one flag per label, not a sort of the n^2 labels
    for r in _row_blocks(len(m), len(m)):
        present[bohr_labels(basis, r)[m[r] != 0] - lo] = True
    dtype = basis.norms2.dtype
    sector_labels = (np.flatnonzero(present) + lo).astype(dtype)
    if not sector_labels.size:  # zero matrix: keep a single empty alpha = 0 sector
        sector_labels = np.zeros(1, dtype=dtype)
    alphas = sector_labels * basis.delta_k**2
    return AlphaDecomposition(m, _frozen(sector_labels), _frozen(alphas), basis)


def free_phase_law(decomp: AlphaDecomposition, t: float) -> np.ndarray:
    """Free evolution in decomposed form: each component gains exp(+i alpha t).

    Element (a, b) has the label norms2(shell of b) - norms2[a], so each
    block of rows takes one phase per (row, column shell) pair, by the
    elementwise formula, and repeats it over each column shell's row range:
    n S exponentials in all (S << n on the cube, S = n on the line), and
    no table over the labels.  A ``t`` that is not finite, or whose phase
    alpha t overflows at an end label of [lo, -lo], raises ValueError."""
    basis = decomp._basis
    n2, shell_n2 = basis.norms2, basis.shells.norms2
    lo = _label_range(basis)
    dk2 = basis.delta_k**2
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.array([lo, -lo]) * dk2 * t).all():
            raise ValueError(f"t must be finite, with a finite phase alpha * t, got {t}")
    m = decomp.matrix
    out = np.empty_like(m)
    for r in _row_blocks(len(m), len(m)):
        phase = np.exp(1j * ((shell_n2[None, :] - n2[r, None]) * dk2) * t)
        np.multiply(np.repeat(phase, np.diff(basis.shells.bounds), axis=1), m[r], out=out[r])
    return out


@record
class ShellDecomposition:
    """Shell blocks by their traces ``weights`` and ``grams``: grams[s] has
    the nonzero eigenvalues of shell s's block (a Gram matrix from
    ``reduce``, the block itself from ``first_order_reduced_step``), or is
    None where it would be 1 x 1, with S_E = 0 and rank one."""

    weights: np.ndarray
    grams: tuple[np.ndarray | None, ...]


def _shell_layout(basis: MomentumBasis, b: np.ndarray):
    """(bounds, spans): shell s is rows bounds[s]:bounds[s + 1] of the n x r factor and spans
    the (s, lo, hi) with a Gram matrix above 1 x 1.  ValueError unless n = basis.size."""
    if b.shape[0] != basis.size:
        raise ValueError(f"state of size {b.shape[0]} does not match basis of size {basis.size}")
    bounds = basis.shells.bounds
    spans = [(s, lo, hi) for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
             if min(hi - lo, b.shape[1]) > 1]
    return bounds, spans


def _shell_blocks(c: np.ndarray, bounds: np.ndarray, spans):
    """(weights, grams) of the factor ``c``: ||C_s||_F^2 of every
    shell C_s = c[bounds[s]:bounds[s + 1]], by one reduceat, and an iterator
    of (s, the smaller of C_s C_s^dagger and C_s^dagger C_s) over the spans
    (s, lo, hi), each formed when it is reached, so a row holds one."""
    def grams():
        for s, lo, hi in spans:
            cs = c[lo:hi]
            yield s, cs @ cs.conj().T if hi - lo <= c.shape[1] else cs.conj().T @ cs

    return np.add.reduceat((c.real**2 + c.imag**2).sum(axis=1), bounds[:-1]), grams()


def reduce(rho: DensityMatrix, basis: MomentumBasis) -> ShellDecomposition:
    """The shell-block-diagonal part of ``rho``, from ``rho.factor``: no n x n array."""
    weights, grams = _shell_blocks(rho.factor, *_shell_layout(basis, rho.factor))
    held = dict(grams)
    return ShellDecomposition(weights=weights, grams=tuple(map(held.get, range(len(weights)))))


def _shell_stats(gram: np.ndarray | None, weight: float) -> tuple[float, bool]:
    """(S_E, rank one) of a shell block of trace ``weight`` from ``gram``, which
    has its nonzero eigenvalues; (0.0, True) with no ``eigvalsh`` for an empty
    shell (weight <= TAU_LAMBDA) or no gram.  Rank is judged by the second-largest
    eigenvalue of gram / weight, so ``RANK_TOL`` is scale-free."""
    if weight <= TAU_LAMBDA or gram is None:
        return 0.0, True
    eigs = np.linalg.eigvalsh(gram / weight)
    return entropy_from_eigenvalues(eigs), bool(eigs[-2] < RANK_TOL)


def shell_entropies(dec: ShellDecomposition) -> np.ndarray:
    """Per-shell S_E = -Tr rho_hat_E ln rho_hat_E; zero on empty shells."""
    return np.array([_shell_stats(g, w)[0] for g, w in zip(dec.grams, dec.weights)])


def is_effectively_pure(dec: ShellDecomposition) -> bool:
    """True iff every occupied normalized block has rank one (``_shell_stats``)."""
    return all(_shell_stats(g, w)[1] for g, w in zip(dec.grams, dec.weights))


def first_order_reduced_step(
    rho0: DensityMatrix, h: Hamiltonian, t: float, basis: MomentumBasis
) -> ShellDecomposition:
    """First-order effective state: the shell blocks of rho0 - i t [v, rho0],
    B_s B_s^dagger - i t (W_s B_s^dagger - B_s W_s^dagger) for rho0 = B B^dagger
    and W = ``h.v_product(B)``; the free part has no block-diagonal
    commutator.  No n x n array is formed; the error is O(t^2) for fixed H."""
    bounds, _ = _shell_layout(basis, rho0.factor)
    c, w = rho0.factor, h.v_product(rho0.factor)
    blocks = [cs @ cs.conj().T - 1j * t * (ws @ cs.conj().T - cs @ ws.conj().T)
              for cs, ws in zip(np.split(c, bounds[1:-1]), np.split(w, bounds[1:-1]))]
    return ShellDecomposition(weights=np.array([np.trace(b).real for b in blocks]),
                              grams=tuple(b if len(b) > 1 else None for b in blocks))


def alpha0_flow(rho0: DensityMatrix, h: Hamiltonian, basis: MomentumBasis) -> tuple[float, float]:
    """(c1, kappa), the short-time law of P0 = ||rho_{alpha=0}||_F^2 out of rho0,
    from rho0 and v alone, before any row runs.  With K = [v, rho0]:

    - c1 = dP0/dt at t = 0 = 2 sum_s Re tr(rho_ss (-i K)_ss);
    - kappa = ||K_off||_F^2, the part of K off the shell blocks, so that
      P0(0) - P0(t) = kappa t^2 + O(t^3) for a shell-block-diagonal rho0
      (whose c1 is 0).

    The free part of H has no shell-block commutator, so it adds to neither.
    For rho0 = B B^dagger and W = ``h.v_product(B)``, K = W B^dagger - B W^dagger
    and ||K||_F^2 = 2 tr(W^dagger W B^dagger B) - 2 Re tr((W^dagger B)^2), from
    r x r products.  Each shell's part takes the rows of B and W on it, in
    the smaller of the shell's two Gram forms (``_shell_blocks``): no dense v
    and no n x n array."""
    bounds, spans = _shell_layout(basis, rho0.factor)
    c, w = rho0.factor, h.v_product(rho0.factor)
    wc = w.conj().T @ c
    k2 = 2 * np.vdot(c.conj().T @ c, w.conj().T @ w).real - 2 * np.sum(wc * wc.T).real
    weights, grams = _shell_blocks(c, bounds, spans)
    z = np.add.reduceat((c.conj() * w).sum(axis=1), bounds[:-1])  # tr C_s^dagger W_s
    # Im tr(rho_ss K_ss) and ||K_ss||_F^2 of a shell with a 1 x 1 Gram: with
    # r = 1 its K_ss is w_s c_s^dagger - c_s w_s^dagger; with r > 1 it has one
    # member, and K_ss = 2i Im z_s
    flow = 2 * weights * z.imag
    if c.shape[1] == 1:
        ww = np.add.reduceat((w.real**2 + w.imag**2).sum(axis=1), bounds[:-1])
        on_shell = 2 * ww * weights - 2 * (z * z).real
    else:
        on_shell = 4 * z.imag**2
    for (s, lo, hi), (_, g) in zip(spans, grams):
        cs, ws = c[lo:hi], w[lo:hi]
        if hi - lo <= c.shape[1]:  # g = C_s C_s^dagger = rho_ss, and K_ss itself is as small
            ks = ws @ cs.conj().T - cs @ ws.conj().T
            flow[s], on_shell[s] = np.sum(g * ks.T).imag, np.vdot(ks, ks).real
        else:  # g = C_s^dagger C_s: tr(rho_ss K_ss) = tr((m - m^dagger) g) for m = C_s^dagger W_s
            m = cs.conj().T @ ws
            flow[s] = np.sum((m - m.conj().T) * g.T).imag
            on_shell[s] = 2 * np.vdot(g, ws.conj().T @ ws).real - 2 * np.sum(m * m.T).real
    return 2 * float(flow.sum()), float(k2 - on_shell.sum())


@record
class TraceRow:
    """One time point of an entropy trace."""

    t: float
    effective_entropy: float
    global_entropy: float
    purity: float
    effectively_pure: bool
    shell_entropies: np.ndarray
    alpha0_purity: float  # P0 = ||rho_{alpha=0}||_F^2, the purity of the effective state
    coarse_entropy: float  # S_cg, the entropy of the effective state


def entropy_trace(
    rho0: DensityMatrix,
    h: Hamiltonian,
    time_grid: Iterable[float],
    basis: MomentumBasis,
    rows=None,
):
    """Evolve exactly to each grid time, reduce, and hand each row to
    ``rows.append`` as it is made; returns ``rows``, a new list by default.

    Works on the n x r factor B of rho0 = B B^dagger (``rho0.factor``):
    each row takes the ``Propagator.evolved_factors`` step of ``h.propagator``
    to rho(t) = C C^dagger, at O(n^2 r); shell s is C's rows bounds[s]:bounds[s + 1].
    ||C||_F^2 must be one within TRACE_TOL (StateValidationError otherwise);
    rho(t) is Hermitian and PSD by construction.  The r x r C^dagger C has
    the nonzero spectrum of rho(t), which gives S_global, and tr rho^2 =
    ||C^dagger C||_F^2.  ``_shell_blocks``, as in ``reduce``, gives
    every shell's weight w_s (one reduceat) and Gram matrix G_s; with those
    w_s, G_s gives S_E and the rank-one test (``_shell_stats``) and
    ||G_s||_F^2 adds to P0 (a skipped shell's 1 x 1 Gram adds w_s^2), so
    S_cg = -sum w_s ln w_s + sum w_s S_E_s exactly, with no eigvalsh more.
    The grid is read once, so any iterable of times will do, and rows
    follow it.  A basis or an ``h`` of another size raises ValueError.
    ``lelab run`` passes a sink that keeps no row (``harness._Fold``), not a
    generator: ``perfbench/tracing.py`` wraps this function by name, times
    the rows inside the call and takes ``len`` of what it returns.
    """
    bounds, spans = _shell_layout(basis, rho0.factor)
    rows = [] if rows is None else rows
    times = [float(t) for t in time_grid]
    for t, c in zip(times, h.propagator.evolved_factors(rho0.factor, times)):
        gram = c.conj().T @ c
        norm2 = float(np.trace(gram).real)
        if not abs(norm2 - 1.0) <= TRACE_TOL:  # written so that NaN fails too
            raise StateValidationError(f"state at t = {t} has trace {norm2}, not 1")
        per_shell = np.zeros(basis.n_shells)
        weights, grams = _shell_blocks(c, bounds, spans)
        block_purity = weights**2
        pure = True
        for s, block_gram in grams:
            per_shell[s], rank_one = _shell_stats(block_gram, weights[s])
            block_purity[s] = np.vdot(block_gram, block_gram).real
            pure = pure and rank_one
        rows.append(TraceRow(
            t=t,
            effective_entropy=float(per_shell.sum()),
            global_entropy=entropy_from_eigenvalues(np.linalg.eigvalsh(gram)),
            purity=float(np.vdot(gram, gram).real),
            effectively_pure=pure,
            shell_entropies=per_shell,
            alpha0_purity=float(block_purity.sum()),
            coarse_entropy=entropy_from_eigenvalues(weights) + float(weights @ per_shell),
        ))
    return rows
