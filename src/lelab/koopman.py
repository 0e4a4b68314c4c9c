"""Classical analogue on a 1D phase-space grid.

Densities live on a periodic q interval crossed with a symmetric p grid
whose cells are offset by half a spacing, so no cell sits at p = 0 (the
chart xi = q / (2p) is singular there).  Free flow under H = p^2
(2m = 1) moves mass along q at fixed p; in (xi, beta) = (q/(2p), p)
coordinates it is the translation xi -> xi + t.  Reducing over xi at
fixed beta is the p-marginal.  An impulsive kick p -> p - s V'(q) is
the interaction: it deforms the marginal and so can raise the classical
effective entropy, which the free flow leaves invariant.

Transport is semi-Lagrangian with linear interpolation: per p-row (flow)
or per q-column (kick) the shift is constant, so the scheme preserves
nonnegativity and conserves mass up to p-boundary truncation; the free
flow also keeps the p-marginal.  Each kernel copies its integer shifts
into work blocks of about 2**16 cells (``_record._row_blocks``), by two
slices per flow row or one scatter per kick block, and blends, doing
per element exactly the arithmetic of a one-row-at-a-time ``np.roll``
scheme, so the output is bit-identical to that scheme.

A density holds only its support window: the p columns [lo, hi) from
the first to the last holding any bit other than +0.0 (so -0.0
counts), as a C-ordered nq x (hi - lo) array; every cell outside it is
+0.0.  A caller's full array is scanned once for that span and only its
window is copied.  The kernels read their input's window and allocate
and write only their output's, the columns that can hold mass, and
trim it to its exact span by testing its edge columns.  Outside the span
the per-row arithmetic yields +0.0, and a column of +0.0 inside it comes
out +0.0 too, so the outputs match the full-grid scheme.  The window
goes through the same nonnegativity and unit-mass checks as a caller's,
and ``mass`` is its sum, so it does not depend on how the density was
made.  The full grid, ``values``, is formed only when read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from ._record import _frozen, _row_blocks, record
from .errors import StateValidationError

MASS_TOL = 1e-8


@record(by_value=True)
class PhaseSpaceGrid:
    """Periodic q cells crossed with an even, half-offset p grid."""

    nq: int
    n_p: int
    dq: float
    dp: float

    def __post_init__(self):
        for name in ("nq", "n_p"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if self.nq < 1 or self.n_p < 2:
            raise ValueError("need nq >= 1 and n_p >= 2")
        if self.n_p % 2 != 0:
            raise ValueError("n_p must be even so the p grid straddles zero")
        if not (0 < self.dq < np.inf and 0 < self.dp < np.inf):
            raise ValueError(f"dq and dp must be positive and finite, got {self.dq}, {self.dp}")

    @property
    def q(self) -> np.ndarray:
        return np.arange(self.nq) * self.dq

    @property
    def p(self) -> np.ndarray:
        return (np.arange(self.n_p) - self.n_p / 2 + 0.5) * self.dp

    @property
    def q_period(self) -> float:
        return self.nq * self.dq


@record
class PhaseSpaceDensity:
    """Nonnegative unit-mass grid function; values[i, j] sits at (q_i, p_j).

    Built from a caller's nq x n_p array, which is scanned once for its
    support span ``_span`` = [lo, hi), the p columns from the first to the
    last holding any bit other than +0.0; only that window is copied and
    kept, as ``_window``, read-only and C-ordered, and the caller's array
    is not held.  ``values``, the full grid, is a ``cached_property``
    field: formed on first read, kept read-only, and not read by ``repr``.
    ``mass`` is the window's sum times the cell area.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        """The nq x n_p grid: the window, +0.0 elsewhere."""
        g = self.grid
        lo, hi = self._span
        v = np.zeros((g.nq, g.n_p))
        v[:, lo:hi] = self._window
        return _frozen(v)

    def __post_init__(self):
        v = vars(self).pop("values", None)
        if v is None:
            raise TypeError("PhaseSpaceDensity needs its values")
        if np.iscomplexobj(v):
            raise StateValidationError("values must be real, got a complex array")
        v = np.asarray(v, dtype=float)
        g = self.grid
        if v.shape != (g.nq, g.n_p):
            raise StateValidationError(f"values must be {g.nq}x{g.n_p}, got {v.shape}")
        cols = np.flatnonzero(v.view(np.int64).any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        self._take(np.array(v[:, lo:hi], order="C"), lo)

    def _take(self, w: np.ndarray, lo: int) -> None:
        """Keep ``w``, a fresh C-ordered window of p columns lo, lo + 1, ...
        that no one else holds, trimmed to its exact span, after checking it:
        StateValidationError unless it is nonnegative with unit mass."""
        bits = w.view(np.int64)
        a, b = 0, w.shape[1]
        while a < b and not bits[:, a].any():
            a += 1
        while b > a and not bits[:, b - 1].any():
            b -= 1
        if (a, b) != (0, w.shape[1]):
            w = np.ascontiguousarray(w[:, a:b])
        g = self.grid
        if w.size and not w.min() >= 0:  # written so that NaN fails too
            raise StateValidationError(f"density must be nonnegative, min is {w.min():.3e}")
        m = w.sum() * g.dq * g.dp
        if not abs(m - 1.0) <= MASS_TOL:  # likewise
            raise StateValidationError(f"mass is {m}, not 1")
        object.__setattr__(self, "_window", _frozen(w))
        object.__setattr__(self, "_span", (lo + a, lo + b))
        object.__setattr__(self, "mass", float(m))


def _handover(grid: PhaseSpaceGrid, w: np.ndarray, lo: int) -> PhaseSpaceDensity:
    """A density holding ``w`` as in ``PhaseSpaceDensity._take``, uncopied
    unless trimmed."""
    rho = object.__new__(PhaseSpaceDensity)
    object.__setattr__(rho, "grid", grid)
    rho._take(w, lo)
    return rho


@record
class BetaMarginal:
    """Unit-mass density over beta = p, on the p grid."""

    density: np.ndarray
    dp: float

    def __post_init__(self):
        m = float(self.density.sum() * self.dp)
        if not abs(m - 1.0) <= MASS_TOL:  # written so that NaN fails too
            raise StateValidationError(f"marginal mass is {m}, not 1")


def density_from_values(grid: PhaseSpaceGrid, values: np.ndarray) -> PhaseSpaceDensity:
    """Clip tiny negatives and normalize to unit mass; values that are
    complex or not finite raise StateValidationError."""
    if np.iscomplexobj(values):
        raise StateValidationError("values must be real, got a complex array")
    if not np.isfinite(values).all():
        raise StateValidationError("values must be finite")
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    total = v.sum() * grid.dq * grid.dp
    if total <= 0:
        raise ValueError("cannot normalize a density with no mass")
    v /= total
    return PhaseSpaceDensity(grid, v)


def gaussian_density(
    grid: PhaseSpaceGrid, q0: float, p0: float, sigma_q: float, sigma_p: float
) -> PhaseSpaceDensity:
    """Normalized Gaussian bump; q distance is taken around the period.

    A centre that is not finite, or a width that is not positive and
    finite, raises ValueError naming it."""
    for name, value in (("q0", q0), ("p0", p0)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in (("sigma_q", sigma_q), ("sigma_p", sigma_p)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    dq_wrapped = np.remainder(grid.q - q0 + grid.q_period / 2, grid.q_period) - grid.q_period / 2
    fq = np.exp(-0.5 * (dq_wrapped / sigma_q) ** 2)
    fp = np.exp(-0.5 * ((grid.p - p0) / sigma_p) ** 2)
    return density_from_values(grid, np.outer(fq, fp))


def nearest_p_row(grid: PhaseSpaceGrid, p0: float) -> int:
    """Index of the p row nearest ``p0`` (the lower one on a tie); a
    non-finite ``p0`` raises ValueError."""
    if not np.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    return int(np.argmin(np.abs(grid.p - p0)))


def single_p_row_density(grid: PhaseSpaceGrid, p0: float) -> PhaseSpaceDensity:
    """All mass on the p row nearest ``p0``, uniform in q."""
    column = np.full((grid.nq, 1), 1.0 / (grid.nq * grid.dq * grid.dp))
    return _handover(grid, column, nearest_p_row(grid, p0))


def classical_free_flow(rho: PhaseSpaceDensity, t: float) -> PhaseSpaceDensity:
    """Transport along q -> q + 2 p t at fixed p (characteristics of H = p^2).

    The p row ``values[:, j]`` moves by ``offset = 2 p_j t / dq`` cells:
    with ``k = floor(offset)`` and ``w = offset - k`` it becomes
    ``(1 - w) * roll(row, k) + w * roll(row, k + 1)``.  Per block of
    p rows of the support window, two slice copies per row put
    ``roll(row, k)`` into a (rows, nq) buffer; that buffer rolled by one
    more cell is ``roll(row, k + 1)``, and the blend is done in place.
    The shift per p row is constant, so the periodic linear-interpolation
    backtrace conserves both mass and the p-marginal to machine
    precision, and keeps the support span.  A non-finite ``t``, or a
    finite one whose offset overflows, raises ValueError.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    grid = rho.grid
    nq = grid.nq
    lo, hi = rho._span
    with np.errstate(over="ignore"):
        offset = 2.0 * grid.p[lo:hi] * t / grid.dq
    if not np.isfinite(offset).all():
        raise ValueError(f"free-flow offset 2 * p * t / dq at t = {t} must be finite, got "
                         f"{offset[~np.isfinite(offset)][0]} cells")
    values = rho._window
    out = np.empty((nq, hi - lo))
    for c in _row_blocks(hi - lo, nq):
        # k stays a float so that any finite offset is exact (an int64
        # overflows past 2**63 cells); + 0.0 turns floor(-0.0) into the +0 of
        # an integer.
        k = np.floor(offset[c]) + 0.0
        w = (offset[c] - k)[:, None]
        a = np.empty((len(w), nq))
        for dst, src, s in zip(a, values[:, c].T, (k % nq).astype(np.int64).tolist()):
            dst[s:] = src[: nq - s]
            dst[:s] = src[nq - s :]
        b = np.roll(a, 1, axis=1)
        a *= 1.0 - w
        b *= w
        a += b
        out[:, c] = a.T
    return _handover(grid, out, lo)


def apply_kick(
    rho: PhaseSpaceDensity, grad_v: Callable[[np.ndarray], np.ndarray], strength: float
) -> PhaseSpaceDensity:
    """Impulsive interaction p -> p - strength * V'(q), V' given as ``grad_v``.

    The q column ``c = values[i, :]`` moves along p by
    ``offset = strength * V'(q_i) / dp`` cells: with ``k = floor(offset)``
    and ``w = offset - k``, cell j gets ``(1 - w) * c[j + k] +
    w * c[j + k + 1]``, zero where the index leaves the grid.  Only cells
    that read the support span [lo, hi) can be nonzero, so only the output
    window [lo - max k - 1, hi - min k), clipped to the grid, is
    allocated and written.  For each block of q columns, one scatter of
    the support window fills a (columns, window + 1) buffer whose first
    and last ``window`` entries per q are the two shifted columns.

    The backtraced p must stay on the grid; mass pushed past the p
    boundary is dropped, and the resulting mass defect trips the
    unit-mass validation: StateValidationError names the kick's strength
    and the mass it carried off, also for a finite offset past the int64
    range.  Choose the grid wide enough for the kick.  A non-finite
    ``strength`` or offset raises ValueError.
    """
    if not np.isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength}")
    grid = rho.grid
    offset = _kick_offset(grid, grad_v, strength)
    if not np.isfinite(offset).all():
        raise ValueError("kick offset strength * V'(q) / dp must be finite, got "
                         f"{offset[~np.isfinite(offset)][0]} cells")
    # A shift of n_p + 1 cells either way reads only zero fill, as does any
    # longer one, so clipping changes no output bit and keeps the int64 cast
    # in range.
    offset = np.clip(offset, -(grid.n_p + 1), grid.n_p + 1)
    k = np.floor(offset).astype(np.int64)
    w = (offset - k)[:, None]
    lo, hi = rho._span
    out_lo = max(0, lo - int(k.max()) - 1)
    n = max(0, min(grid.n_p, hi - int(k.min())) - out_lo)
    out = np.empty((grid.nq, n))
    for r in _row_blocks(grid.nq, n + 1):
        x = np.arange(lo, hi) - (k[r] + out_lo)[:, None]  # where cell j of row i lands
        keep = (x >= 0) & (x <= n)
        e = np.zeros((len(x), n + 1))
        e[keep.nonzero()[0], x[keep]] = rho._window[r][keep]
        np.multiply(e[:, 1:], w[r], out=out[r])
        a = e[:, :n]
        a *= 1.0 - w[r]
        out[r] += a
    try:
        return _handover(grid, out, out_lo)
    except StateValidationError as err:  # a kick keeps values >= 0: only mass is lost
        lost = rho.mass - out.sum() * grid.dq * grid.dp
        raise StateValidationError(
            f"the kick of strength {strength} carried mass {lost:.3g} past the p grid ({err})"
        ) from None


def _kick_offset(
    grid: PhaseSpaceGrid, grad_v: Callable[[np.ndarray], np.ndarray], strength: float
) -> np.ndarray:
    """strength * V'(q) / dp per q cell, in p cells; inf or nan, without a
    RuntimeWarning, where that overflows or V' is not finite."""
    dv = grad_v(grid.q)
    if np.iscomplexobj(dv):
        raise ValueError("grad_v must return real values, got a complex array")
    dv = np.asarray(dv, dtype=float)
    if dv.shape != (grid.nq,):
        raise ValueError(f"grad_v must return one value per q cell, got shape {dv.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return strength * dv / grid.dp


def kick_gradient(shape: str) -> Callable[[np.ndarray], np.ndarray]:
    """V'(q) for the named kick potential V(q) = cos q or sin q."""
    if shape == "cos":
        return lambda q: -np.sin(q)
    if shape == "sin":
        return lambda q: np.cos(q)
    raise ValueError(f"unknown kick shape {shape!r}")


def kick_keeps_row_on_grid(
    grid: PhaseSpaceGrid, row: int, grad_v: Callable[[np.ndarray], np.ndarray], strength: float
) -> bool:
    """True iff ``apply_kick`` moves all mass on p row ``row`` to rows of the grid.

    In column q the kick carries that mass to the fractional row
    ``row - strength * V'(q) / dp``, split between the two rows around it.
    A non-finite offset keeps nothing on the grid.
    """
    offset = _kick_offset(grid, grad_v, strength)
    return bool(offset.max() <= row and offset.min() >= row - (grid.n_p - 1))


def xi_beta_coordinates(q, p, p_min: float = 0.0):
    """Chart (xi, beta) = (q / (2p), p); free flow acts as xi -> xi + t.

    Rejects |p| below ``p_min`` (and p = 0 always): the chart is singular
    on the p = 0 line.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if not np.all((np.abs(p) >= p_min) & (p != 0)):  # written so that NaN fails too
        raise ValueError(f"|p| must be at least {max(p_min, np.finfo(float).tiny)} away from zero")
    xi = q / (2.0 * p)
    if xi.ndim == 0:
        return float(xi), float(p)
    return xi, p


def classical_reduce(rho: PhaseSpaceDensity) -> BetaMarginal:
    """Reduction over xi at fixed beta = p.

    At fixed p the xi integral is proportional to the q integral, so this
    is the p-marginal with the normalization restored explicitly.

    Only the window is summed; the other columns hold +0.0 and sum to it.
    numpy sums each column of a window of two or more columns row by row,
    as it does on the whole grid, but a lone column pairwise, so that one
    is accumulated in order: the result is bit for bit
    ``values.sum(axis=0)``.
    """
    lo, hi = rho._span
    w = rho._window
    g = np.zeros(rho.grid.n_p)
    g[lo:hi] = w.sum(axis=0) if hi - lo > 1 else np.add.accumulate(w[:, 0])[-1]
    g *= rho.grid.dq
    total = g.sum() * rho.grid.dp
    return BetaMarginal(density=g / total, dp=rho.grid.dp)


def classical_effective_entropy(marginal: BetaMarginal) -> float:
    """Differential entropy -sum g ln g dp of the beta-marginal.

    The minimum on the grid is ln dp (all mass in one cell); a uniform
    marginal of width W gives ln W.
    """
    g = marginal.density
    positive = g[g > 0]
    return float(-(positive * np.log(positive)).sum() * marginal.dp) + 0.0  # never -0.0
