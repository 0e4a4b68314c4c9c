"""Hamiltonians, exact unitary evolution, and Liouvillian superoperators.

Sign conventions.  The evolution generator is the commutator map
L X = H X - X H, so exp(-i L t) rho = U rho U^dagger with U = exp(-i H t),
and the free part acts on the elementary matrix |i><j| with eigenvalue
E_i - E_j.  Bohr-frequency labels use the opposite orientation,
alpha = E_col - E_row, so that the alpha component of a state picks up
the phase exp(+i alpha t) under free evolution (see reduction).

Evolution goes through an eigendecomposition of H rather than a
time stepper: it is exact to machine precision, so integrator error
cannot masquerade as entropy change.  ``Propagator`` alone reads it:
``evolved_factors`` is its one step and ``eigenbasis_errors`` its check.

Symmetry blocks.  A sign flip of a lattice coordinate changes neither
|n|^2 nor |n_i - n_j|^2, and the eight flips of Z2^3 map the cube
{-M..M}^3 of ``build_basis`` onto itself, so they commute with its H.
In the basis of their characters, P^T H P is block diagonal with one
block per character, where P (``OrbitMap``) is orthogonal with at most
eight nonzeros per row and column.  The cube's orbits are written down
in lexicographic rows, not searched for, and mapped to the basis's shell
order (``_sign_flips``); any other point set (the line lattice, M = 0)
and a hand-built ``Hamiltonian(h0_diag, v)`` have one block and P = I.
Every H goes through the same blocked code.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from ._record import _frozen, _row_blocks, record
from .basis import MomentumBasis
from .errors import DimensionCapError
from .states import HERMITICITY_TOL, DensityMatrix, _hermitian_deviation

# A dim-64 system already implies a 4096^2 superoperator; refuse beyond that.
SUPEROP_DIM_CAP = 64

# Sign flips and characters are bit masks over the three coordinates:
# bit i set flips (or, for a character, is odd under the flip of) axis i.
_BITS = 1 << np.arange(3)
_POPCOUNT = np.array([bin(m).count("1") for m in range(8)])


def _subsets(mask: int) -> np.ndarray:
    """The bit masks inside ``mask``, ascending (0 first)."""
    return np.array([m for m in range(8) if m & mask == m])


class OrbitMap:
    """The orthogonal n x n map P from the symmetry-adapted basis, blocks
    stacked in ``Hamiltonian.blocks`` order, to the lattice basis.

    Column (character e, orbit a) is chi_e(p) / sqrt(|orbit a|) on each
    point p of the orbit.  ``groups`` hold the orbits that share one set of
    flipped axes, s = 2^k points each: (points (o, s) lattice rows,
    slots (o, s) stacked rows, chi (s, s)), with chi symmetric and its own
    inverse, so that P and P^T are small products over a group's orbits.
    They take a block of orbits at a time (``_record._row_blocks`` rows of
    s r elements), so the gather and the product of a block hold about
    2**16 elements, never a group's whole share of n x r.  No groups means
    P = I, applied without a copy.
    """

    def __init__(self, groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = ()):
        self.groups = groups

    def to_lattice(self, z: np.ndarray) -> np.ndarray:
        """P z for stacked rows ``z`` (n x r)."""
        if not self.groups:
            return z
        out = np.empty_like(z)
        for points, slots, chi in self.groups:
            for o in _row_blocks(len(points), len(chi) * z.shape[1]):
                out[points[o]] = chi @ z[slots[o]]
        return out

    def from_lattice(self, b: np.ndarray) -> np.ndarray:
        """P^T b for lattice rows ``b`` (n x r)."""
        if not self.groups:
            return b
        out = np.empty_like(b)
        for points, slots, chi in self.groups:
            for o in _row_blocks(len(points), len(chi) * b.shape[1]):
                out[slots[o]] = chi @ b[points[o]]
        return out


def _sign_flips(points: np.ndarray):
    """The sign-flip symmetry of ``points`` as (group, reps, sizes, blocks, orbits):

    - group: the flip masks, 0 (the identity) first;
    - reps (r, 3): one point per orbit, |n_i| on the flipped axes;
    - sizes (r,): points per orbit, 2^(nonzero flipped coordinates);
    - blocks: (character mask, orbits) per block, in stacked order;
    - orbits: the ``OrbitMap``.

    The cube {-M..M}^3 in any order (``build_basis`` makes it in shell
    order for M >= 1) is written down: all eight flips, reps {0..M}^3 in
    lexicographic order, and lexicographic row ((x + M) L + y + M) L + z + M,
    L = 2M + 1, for the point (x, y, z), mapped to its row of ``points`` by
    one inverse permutation, ``rank``.  Any other point set (the line, M = 0)
    gets the trivial group: one block and P = I.  Blocks are stacked with
    the trivial character last (see ``build_hamiltonian``)."""
    n = len(points)
    m = int(points.max())
    side = 2 * m + 1
    rank = np.lexsort(points.T[::-1])  # the row of ``points`` at each lexicographic cube row

    def row(p):  # row of each cube point p (..., 3), through its lexicographic row
        return rank[((p[..., 0] + m) * side + p[..., 1] + m) * side + p[..., 2] + m]

    if m == 0 or n != side**3 or points.min() < -m or not np.array_equal(row(points), np.arange(n)):
        return np.zeros(1, dtype=int), points, np.ones(n, int), ((0, np.arange(n)),), OrbitMap()
    r = np.arange(m + 1)
    reps = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    support = (reps != 0) @ _BITS
    blocks = tuple((e, np.flatnonzero(support & e == e)) for e in range(7, -1, -1))
    slot = np.full((8, len(reps)), -1)  # stacked row of (character, orbit)
    offset = 0
    for e, members in blocks:
        slot[e, members] = offset + np.arange(len(members))
        offset += len(members)
    groups = []
    for sigma in range(8):  # the orbits whose nonzero coordinates are the axes of sigma
        sub = _subsets(sigma)
        mine = np.flatnonzero(support == sigma)
        signs = np.where(sub[:, None] & _BITS > 0, -1, 1)
        at = row(reps[mine, None, :] * signs)  # at[i, j]: the flips sub[j] of rep mine[i]
        chi = (-1.0) ** _POPCOUNT[sub[:, None] & sub[None, :]] / np.sqrt(len(sub))
        groups.append(tuple(map(_frozen, (at, slot[sub][:, mine].T, chi))))
    return np.arange(8), reps, 2 ** _POPCOUNT[support], blocks, OrbitMap(tuple(groups))


class Hamiltonian:
    """H = diag(h0) + v with v Hermitian, held as ``blocks``, the diagonal
    blocks of P^T H P for the orbit map P = ``orbits``.

    ``Hamiltonian(h0_diag, v)`` takes a dense v and holds diag(h0) + v as
    one block with P = I.  ``v`` keeps its dtype (integers become float):
    a real symmetric v, such as the Yukawa matrix, gives a real H whose
    ``eigh`` runs in real arithmetic, and a complex v runs the same code
    in complex.  ``build_hamiltonian`` builds the blocks straight from the
    kernel; the dense ``v`` and ``matrix`` are then formed on first read,
    and kept.
    """

    def __init__(self, h0_diag, v):
        if np.iscomplexobj(h0_diag):
            raise ValueError("h0_diag must be real, got a complex array")
        h0 = np.asarray(h0_diag, dtype=float)
        v = np.asarray(v)
        v = np.array(v, dtype=np.result_type(v, np.float64))  # a copy the caller cannot write
        if h0.ndim != 1:
            raise ValueError("h0_diag must be a vector")
        if not np.isfinite(h0).all():
            raise ValueError(f"h0_diag must be finite, got {h0[~np.isfinite(h0)][0]}")
        if v.shape != (len(h0), len(h0)):
            raise ValueError(f"v must be {len(h0)}x{len(h0)}, got {v.shape}")
        herm = _hermitian_deviation(v)
        if not herm <= HERMITICITY_TOL:  # written so that NaN fails too
            raise ValueError(f"v is not Hermitian: max deviation {herm:.3e}")
        _frozen(v)
        self._hold(h0, (_frozen(np.diag(h0) + v),), OrbitMap(), lambda: v)

    @classmethod
    def _from_blocks(cls, h0_diag: np.ndarray, blocks: tuple[np.ndarray, ...],
                     orbits: OrbitMap, dense_v: Callable[[], np.ndarray]) -> "Hamiltonian":
        h = object.__new__(cls)
        h._hold(h0_diag, blocks, orbits, dense_v)
        return h

    def _hold(self, h0_diag, blocks, orbits, dense_v) -> None:
        self.h0_diag = _frozen(h0_diag)
        self.blocks = blocks
        self.orbits = orbits
        self._dense_v = dense_v

    @property
    def dim(self) -> int:
        return len(self.h0_diag)

    @cached_property
    def v(self) -> np.ndarray:
        return _frozen(self._dense_v())

    @cached_property
    def matrix(self) -> np.ndarray:
        return _frozen(np.diag(self.h0_diag) + self.v)

    def v_product(self, b: np.ndarray) -> np.ndarray:
        """v B = P blockdiag(H_b) P^T B - diag(h0) B for an n x r ``b``, with no
        dense ``v``; ValueError for another n.  Each block's product is written
        into its rows of one array, and diag(h0) B is subtracted in place, so
        besides ``b`` and the orbit map's per-group temporaries at most two
        n x r arrays are alive at once."""
        b = np.ascontiguousarray(b, dtype=np.complex128)
        if len(b) != self.dim:
            raise ValueError(f"state of size {len(b)} does not match H of dimension {self.dim}")
        bounds = np.cumsum([0] + [len(hb) for hb in self.blocks])
        z = self.orbits.from_lattice(b)  # b itself when there are no orbit groups
        hz = np.empty_like(z)
        for hb, lo, hi in zip(self.blocks, bounds[:-1], bounds[1:]):
            _product(hb, z[lo:hi], out=hz[lo:hi])
        del z
        vb = self.orbits.to_lattice(hz)  # hz itself when there are no orbit groups
        del hz
        vb -= self.h0_diag[:, None] * b
        return vb

    @cached_property
    def propagator(self) -> "Propagator":
        """Eigendecomposition of this H, computed on first use and kept."""
        return Propagator.from_hamiltonian(self)


def _yukawa(p, q, delta_k: float, coupling: float, screening: float) -> np.ndarray:
    """Vt(k) = 4 pi A / (mu (|k|^2 + mu^2)) at k = (p_i - q_j) delta_k in one float array; the
    integer |p_i - q_j|^2 = |p_i|^2 + |q_j|^2 - 2 p_i.q_j < 2**53 is formed exactly."""
    k2 = p.astype(float) @ q.T.astype(float)
    k2 *= -2.0
    k2 += (p * p).sum(axis=1)[:, None]
    k2 += (q * q).sum(axis=1)
    k2 *= delta_k**2
    k2 += screening * screening
    k2 *= screening
    return np.divide(4.0 * np.pi * coupling, k2, out=k2)


def build_hamiltonian(basis: MomentumBasis, coupling: float, screening: float) -> Hamiltonian:
    """Free energies plus the Yukawa potential v[i,j] = Vt(k_i - k_j), with the
    momentum-space screened-Coulomb amplitude Vt(k) = 4 pi A / (mu (|k|^2 + mu^2)).

    Vt is real and even, so v is real symmetric and so is H.  All
    box-normalization constants are absorbed into the coupling A.

    H is built as its symmetry blocks (module docstring), never as a dense
    n x n matrix.  With R_a the representative of orbit a, N_a its size and
    G the flip group, the block of character e is

        H_e[a, b] = delta_ab E_a + sqrt(N_a N_b) / |G| sum_{u in G} chi_e(u) Vt(R_a - u R_b)

    over the orbits on which chi_e is defined (no flipped coordinate of
    R_a that e is odd under is zero).  The sum runs in the same order for
    [a, b] and [b, a], so each block is exactly symmetric; with the
    trivial group it is diag(E) + v bit for bit.  A ``coupling`` not finite, or a
    ``screening`` not positive and finite, raises ValueError naming it.
    """
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if not 0 < screening < np.inf:
        raise ValueError(f"screening must be positive and finite, got {screening}")
    dk = basis.delta_k
    group, reps, sizes, characters, orbits = _sign_flips(basis.points)
    signs = [np.where((int(u) & _BITS) > 0, -1, 1) for u in group]
    kernels = [_yukawa(reps, reps * s, dk, coupling, screening) for s in signs]
    root = np.sqrt(sizes)  # 1 or 2^j sqrt(2): the two scalings below commute exactly
    energies = (reps * reps).sum(axis=1) * (dk * dk)  # as basis.energies
    blocks = []
    for e, members in characters:
        # The trivial character, last, holds every orbit: its block is summed
        # in place into the identity's kernel, which no other block reads then.
        ix = np.ix_(members, members) if e else np.s_[:, :]
        hb = kernels[0][ix]
        for u, k in zip(group[1:], kernels[1:]):
            if _POPCOUNT[u & e] % 2:
                hb -= k[ix]
            else:
                hb += k[ix]
        hb *= root[members, None]
        hb *= root[None, members] / len(group)
        hb[np.diag_indices_from(hb)] += energies[members]
        blocks.append(_frozen(hb))

    def dense_v() -> np.ndarray:
        return _yukawa(basis.points, basis.points, dk, coupling, screening)

    return Hamiltonian._from_blocks(basis.energies, tuple(blocks), orbits, dense_v)


@record
class Propagator:
    """H = P blockdiag(Q_b diag(w_b) Q_b^dagger) P^T; no other code reads the
    pairs (w_b, Q_b)."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]  # (w_b, Q_b) per block of H
    orbits: OrbitMap

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "Propagator":
        return cls(tuple(tuple(map(_frozen, np.linalg.eigh(hb))) for hb in h.blocks), h.orbits)

    def evolved_factors(self, b: np.ndarray, times: Iterable[float]) -> Iterator[np.ndarray]:
        """C(t) = P [Q_b (e^{-i w_b t} (.) G_b)]_b for each t in ``times``, rho(t) = C C^dagger
        for rho(0) = B B^dagger, with G_b = Q_b^dagger (P^T B)_b formed once.  With a real
        Q_b, G_b and each C(t) block are one real product with the interleaved real and
        imaginary parts: half the flops, and no complex copy of Q_b.  A ``t`` that is
        not finite, or whose phase w_b t overflows, raises ValueError before its
        phases are taken, as does a ``b`` whose row count is not H's dimension."""
        bounds = np.cumsum([0] + [len(w) for w, _ in self.blocks])
        if len(b) != bounds[-1]:
            raise ValueError(f"state of size {len(b)} does not match H of dimension {bounds[-1]}")
        z = self.orbits.from_lattice(np.ascontiguousarray(b, dtype=np.complex128))
        spans = list(zip(bounds[:-1], bounds[1:]))
        g = [_product(q, z[lo:hi], adjoint=True) for (_, q), (lo, hi) in zip(self.blocks, spans)]
        for t in map(float, times):
            with np.errstate(over="ignore"):
                finite = np.isfinite(t) and not any(np.isinf(w * t).any() for w, _ in self.blocks)
            if not finite:
                raise ValueError(f"t must be finite, with a finite phase w * t, got {t}")
            c = np.empty_like(z)
            for (w, q), gb, (lo, hi) in zip(self.blocks, g, spans):
                _product(q, np.exp(-1j * w * t)[:, None] * gb, out=c[lo:hi])
            yield self.orbits.to_lattice(c)

    def evolve(self, rho: DensityMatrix, t: float) -> DensityMatrix:
        """U(t) rho U(t)^dagger as ``DensityMatrix(factor=C)``, C of rho's rank.

        Builds no U(t) and takes no n x n spectrum: it reads ``rho.factor``,
        which a full-matrix state got from the pivoted Cholesky (or ``eigh``)
        that checked it; only ||C||_F^2 = 1 is checked."""
        (c,) = self.evolved_factors(rho.factor, [t])
        return DensityMatrix(factor=c)

    def eigenbasis_errors(self, h: Hamiltonian) -> tuple[float, float]:
        """(max_b max|Q_b^dagger Q_b - I|, max_b max|H_b Q_b - Q_b diag(w_b)| / max_b max|H_b|)
        against the blocks of ``h``, in their own arithmetic.  The residual is
        relative to the largest block element (to 1 for a zero H); P is
        orthogonal by construction, so max_b max|H_b| is the scale of P^T H P."""
        orthonormality = residual = scale = 0.0
        for (w, q), hb in zip(self.blocks, h.blocks, strict=True):
            gram = q.conj().T @ q
            gram[np.diag_indices_from(gram)] -= 1.0
            orthonormality = max(orthonormality, float(np.abs(gram).max()))
            residual = max(residual, float(np.abs(hb @ q - q * w).max()))
            scale = max(scale, float(np.abs(hb).max()))
        return orthonormality, residual / (scale or 1.0)


def _product(q: np.ndarray, x: np.ndarray, adjoint: bool = False, out=None) -> np.ndarray:
    """q @ x, or q^dagger @ x, for a complex x.  A real q multiplies the
    interleaved real and imaginary parts of x in one real product."""
    if np.iscomplexobj(q):
        return np.matmul(q.conj().T if adjoint else q, x, out=out)
    x = np.ascontiguousarray(x)
    y = np.matmul(q.T if adjoint else q, x.view(np.float64),
                  out=None if out is None else out.view(np.float64))
    return y.view(np.complex128)


@record
class Superoperator:
    """dim^2 x dim^2 matrix acting on row-major vectorized dim x dim matrices."""

    matrix: np.ndarray
    dim: int

    def apply(self, m: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(m, dtype=complex).reshape(-1)).reshape(self.dim, self.dim)


def commutator_superoperator(m) -> Superoperator:
    """Superoperator of X -> m X - X m on row-major vec(X)."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    if m.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim > SUPEROP_DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds superoperator cap {SUPEROP_DIM_CAP}")
    eye = np.eye(dim)
    return Superoperator(np.kron(m, eye) - np.kron(eye, m.T), dim)


def liouvillian_superoperator(h: Hamiltonian) -> Superoperator:
    """Commutator map with the full H; spectrum is real since H is Hermitian.

    Assembled as the float sum of the free part and the interaction part,
    so the split into the commutator maps of diag(h0) and v carries no
    floating-point residue.
    """
    free = commutator_superoperator(np.diag(h.h0_diag.astype(complex)))
    inter = commutator_superoperator(h.v)
    return Superoperator(free.matrix + inter.matrix, h.dim)

