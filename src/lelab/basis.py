"""Discrete momentum basis with exact energy shells.

Points live on the cubic integer lattice k = n * delta_k with
n in {-M..M}^3 and carry free-particle energies E_k = |k|^2
(units where 2m = 1).  Points sharing the integer squared norm |n|^2
form an energy shell, so the shell partition is exact bookkeeping.
"""

from __future__ import annotations

import operator

import numpy as np

from ._record import _frozen, record
from .errors import DimensionCapError

# Point caps, one per lattice.  A cubic run holds H as its eight sign-flip
# blocks and the state as an n x r factor, so M = 10 (9261 points) peaks
# near 0.44 GB.  The line is one dense block: N = 4096 already peaks near
# 0.69 GB while H is built and diagonalized.
MAX_CUBIC_POINTS = 21**3
MAX_LINE_POINTS = 4096


@record
class ShellTable:
    """Shells by ascending energy; shell s is rows bounds[s]:bounds[s + 1], listed in members[s]."""

    energies: np.ndarray            # (n_shells,) strictly increasing
    members: tuple[np.ndarray, ...] # per-shell point indices, arange(bounds[s], bounds[s + 1])
    norms2: np.ndarray              # (n_shells,) integer squared norm of each shell
    bounds: np.ndarray              # (n_shells + 1,) first row of each shell, then n

    def __len__(self) -> int:
        return len(self.energies)


@record
class MomentumBasis:
    """Ordered momentum lattice with per-point energies and shell assignment.

    Immutable after construction; all arrays are read-only.
    """

    points: np.ndarray       # (n, 3) integer coordinates, by |n|^2, lexicographic within a shell
    delta_k: float
    energies: np.ndarray     # (n,) E = |n|^2 * delta_k^2
    norms2: np.ndarray       # (n,) integer squared norms
    shells: ShellTable

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def n_shells(self) -> int:
        return len(self.shells)

    def index_of(self, n) -> int:
        """Row of the point ``n``; KeyError unless ``n`` is three integers on the lattice."""
        try:
            p = tuple(map(operator.index, n))
        except TypeError:  # not a sequence of integers
            p = ()
        hits = np.flatnonzero((self.points == p).all(axis=1)) if len(p) == 3 else ()
        if len(hits) != 1:
            raise KeyError(f"lattice point {n!r} not in basis")
        return int(hits[0])


def _basis_from_points(points: np.ndarray, delta_k: float) -> MomentumBasis:
    # One stable sort puts the points in shell order, lexicographic within a
    # shell; np.unique would do it too, but numpy 2.4's imports numpy.ma.
    points = points[np.argsort((points * points).sum(axis=1), kind="stable")]
    norms2 = (points * points).sum(axis=1)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(norms2)) + 1, [len(points)]))
    distinct = norms2[bounds[:-1]]  # ascending
    dk2 = delta_k * delta_k
    shells = ShellTable(
        energies=_frozen(distinct * dk2),
        members=tuple(map(_frozen, np.split(np.arange(len(points)), bounds[1:-1]))),
        norms2=_frozen(distinct),
        bounds=_frozen(bounds),
    )
    return MomentumBasis(
        points=_frozen(points),
        delta_k=float(delta_k),
        energies=_frozen(norms2 * dk2),
        norms2=_frozen(norms2),
        shells=shells,
    )


def _check_spacing(delta_k: float) -> None:
    if not (np.isfinite(delta_k) and delta_k > 0):
        raise ValueError(f"delta_k must be positive and finite, got {delta_k}")


def build_basis(M: int, delta_k: float) -> MomentumBasis:
    """Cubic lattice {-M..M}^3 in shell order, lexicographic within a shell.

    Raises DimensionCapError when (2M+1)^3 exceeds ``MAX_CUBIC_POINTS``.
    """
    if M != int(M) or M < 0:
        raise ValueError(f"M must be a nonnegative integer, got {M}")
    M = int(M)
    _check_spacing(delta_k)
    side = 2 * M + 1
    if side**3 > MAX_CUBIC_POINTS:
        raise DimensionCapError(f"(2M+1)^3 = {side**3} exceeds cap of {MAX_CUBIC_POINTS} points")
    r = np.arange(-M, M + 1)
    points = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    return _basis_from_points(points, delta_k)


def build_basis_1d(N: int, delta_k: float) -> MomentumBasis:
    """Line lattice k = n * delta_k, n in {1..N}, embedded on the x axis.

    All energies n^2 * delta_k^2 are distinct, so every shell has
    degeneracy one.  Raises DimensionCapError when N exceeds ``MAX_LINE_POINTS``.
    """
    if N != int(N) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    N = int(N)
    _check_spacing(delta_k)
    if N > MAX_LINE_POINTS:
        raise DimensionCapError(f"N = {N} exceeds cap of {MAX_LINE_POINTS} points")
    points = np.zeros((N, 3), dtype=int)
    points[:, 0] = np.arange(1, N + 1)
    return _basis_from_points(points, delta_k)

