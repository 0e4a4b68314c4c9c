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
into small work blocks with at most two slices per row and blends with
whole-array numpy, doing per element exactly the arithmetic of a
one-row-at-a-time ``np.roll`` scheme, so the output is bit-identical
to that scheme.  They work only on the density's support span, the p
columns outside which it holds only +0.0: for a caller's array, the
columns from the first to the last holding any bit other than +0.0 (so
-0.0 counts), found by one scan at construction; for a kernel's output,
the columns the kernel wrote, which it knows without a scan.  Outside
the span that arithmetic yields the +0.0 the fresh output holds, and a
column holding only +0.0 inside it yields +0.0 too, so the output does
not depend on how tight the span is.  The kernels hand their output to
``PhaseSpaceDensity`` uncopied, through the same checks as a caller's
(copied) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StateValidationError

MASS_TOL = 1e-8
# Cells per work block of the transport kernels (512 KiB of float64).
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Periodic q cells crossed with an even, half-offset p grid."""

    nq: int
    n_p: int
    dq: float
    dp: float

    def __post_init__(self):
        if self.nq < 1 or self.n_p < 2:
            raise ValueError("need nq >= 1 and n_p >= 2")
        if self.n_p % 2 != 0:
            raise ValueError("n_p must be even so the p grid straddles zero")
        if not (self.dq > 0 and self.dp > 0):
            raise ValueError("dq and dp must be positive")

    @property
    def q(self) -> np.ndarray:
        return np.arange(self.nq) * self.dq

    @property
    def p(self) -> np.ndarray:
        return (np.arange(self.n_p) - self.n_p / 2 + 0.5) * self.dp

    @property
    def q_period(self) -> float:
        return self.nq * self.dq

    @property
    def p_min(self) -> float:
        """Half spacing: the excluded band around the p = 0 singularity."""
        return self.dp / 2


@dataclass(frozen=True, eq=False)
class PhaseSpaceDensity:
    """Nonnegative unit-mass grid function; values[i, j] sits at (q_i, p_j),
    a read-only C-ordered copy of the array given."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise StateValidationError("values must be real, got a complex array")
        self._take(np.array(self.values, dtype=float, order="C"))

    def _take(self, v: np.ndarray, span: tuple[int, int] | None = None) -> None:
        """Validate ``v`` and keep it, uncopied, as ``values``, with its
        support span ``_span``: [lo, hi) of p columns outside which ``v``
        holds only +0.0.  A kernel passes the span it wrote; otherwise the
        columns from the first to the last holding any bit other than +0.0
        are found by one scan."""
        g = self.grid
        if v.shape != (g.nq, g.n_p):
            raise StateValidationError(f"values must be {g.nq}x{g.n_p}, got {v.shape}")
        if not v.min() >= 0:  # written so that NaN fails too
            raise StateValidationError(f"density must be nonnegative, min is {v.min():.3e}")
        m = v.sum() * g.dq * g.dp
        if not abs(m - 1.0) <= MASS_TOL:  # likewise
            raise StateValidationError(f"mass is {m}, not 1")
        if span is None:  # unit mass: some column holds a nonzero bit
            cols = np.flatnonzero(v.view(np.int64).any(axis=0))
            span = int(cols[0]), int(cols[-1]) + 1
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_mass", float(m))
        object.__setattr__(self, "_span", span)

    @property
    def mass(self) -> float:
        return self._mass


def _handover(grid: PhaseSpaceGrid, v: np.ndarray,
              span: tuple[int, int] | None = None) -> PhaseSpaceDensity:
    """A density holding ``v``, a fresh C-ordered buffer no one else holds,
    uncopied; ``span`` as in ``PhaseSpaceDensity._take``."""
    rho = object.__new__(PhaseSpaceDensity)
    object.__setattr__(rho, "grid", grid)
    rho._take(v, span)
    return rho


@dataclass(frozen=True, eq=False)
class BetaMarginal:
    """Unit-mass density over beta = p."""

    p: np.ndarray
    density: np.ndarray
    dp: float

    def __post_init__(self):
        m = float(self.density.sum() * self.dp)
        if abs(m - 1.0) > MASS_TOL:
            raise StateValidationError(f"marginal mass is {m}, not 1")


def density_from_values(grid: PhaseSpaceGrid, values: np.ndarray) -> PhaseSpaceDensity:
    """Clip tiny negatives and normalize to unit mass."""
    if np.iscomplexobj(values):
        raise StateValidationError("values must be real, got a complex array")
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    total = v.sum() * grid.dq * grid.dp
    if total <= 0:
        raise ValueError("cannot normalize a density with no mass")
    v /= total
    return _handover(grid, np.ascontiguousarray(v))


def gaussian_density(
    grid: PhaseSpaceGrid, q0: float, p0: float, sigma_q: float, sigma_p: float
) -> PhaseSpaceDensity:
    """Normalized Gaussian bump; q distance is taken around the period."""
    dq_wrapped = np.remainder(grid.q - q0 + grid.q_period / 2, grid.q_period) - grid.q_period / 2
    fq = np.exp(-0.5 * (dq_wrapped / sigma_q) ** 2)
    fp = np.exp(-0.5 * ((grid.p - p0) / sigma_p) ** 2)
    return density_from_values(grid, np.outer(fq, fp))


def nearest_p_row(grid: PhaseSpaceGrid, p0: float) -> int:
    """Index of the p row nearest ``p0`` (the lower one on a tie)."""
    return int(np.argmin(np.abs(grid.p - p0)))


def single_p_row_density(grid: PhaseSpaceGrid, p0: float) -> PhaseSpaceDensity:
    """All mass on the p row nearest ``p0``, uniform in q."""
    values = np.zeros((grid.nq, grid.n_p))
    values[:, nearest_p_row(grid, p0)] = 1.0
    return density_from_values(grid, values)


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices cutting ``rows`` rows of ``width`` cells into blocks of about ``_BLOCK_CELLS``."""
    step = max(1, _BLOCK_CELLS // width)
    return [slice(r, r + step) for r in range(0, rows, step)]


def classical_free_flow(rho: PhaseSpaceDensity, t: float) -> PhaseSpaceDensity:
    """Transport along q -> q + 2 p t at fixed p (characteristics of H = p^2).

    The p row ``values[:, j]`` moves by ``offset = 2 p_j t / dq`` cells:
    with ``k = floor(offset)`` and ``w = offset - k`` it becomes
    ``(1 - w) * roll(row, k) + w * roll(row, k + 1)``.  Per block of
    p rows of the support span, two slice copies per row put
    ``roll(row, k)`` into a (rows, nq) buffer; that buffer rolled by one
    more cell is ``roll(row, k + 1)``, and the blend is done in place.
    The shift per p row is constant, so the periodic linear-interpolation
    backtrace conserves both mass and the p-marginal to machine
    precision, and keeps the support span.  A non-finite ``t`` raises
    ValueError.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    grid = rho.grid
    nq = grid.nq
    lo, hi = rho._span
    out = np.zeros((nq, grid.n_p))
    window, p, values = out[:, lo:hi], grid.p[lo:hi], rho.values[:, lo:hi]
    for c in _blocks(hi - lo, nq):
        offset = 2.0 * p[c] * t / grid.dq
        # k stays a float so that any finite t is exact (an int64 overflows
        # past 2**63 cells); + 0.0 turns floor(-0.0) into the +0 of an integer.
        k = np.floor(offset) + 0.0
        w = (offset - k)[:, None]
        a = np.empty((len(w), nq))
        for dst, src, s in zip(a, values[:, c].T, (k % nq).astype(np.int64).tolist()):
            dst[s:] = src[: nq - s]
            dst[:s] = src[nq - s :]
        b = np.roll(a, 1, axis=1)
        a *= 1.0 - w
        b *= w
        a += b
        window[:, c] = a.T
    return _handover(grid, out, (lo, hi))


def apply_kick(
    rho: PhaseSpaceDensity, grad_v: Callable[[np.ndarray], np.ndarray], strength: float
) -> PhaseSpaceDensity:
    """Impulsive interaction p -> p - strength * V'(q), V' given as ``grad_v``.

    The q column ``c = values[i, :]`` moves along p by
    ``offset = strength * V'(q_i) / dp`` cells: with ``k = floor(offset)``
    and ``w = offset - k``, cell j gets ``(1 - w) * c[j + k] +
    w * c[j + k + 1]``, zero where the index leaves the grid.  Only cells
    that read the support span [lo, hi) can be nonzero, so the output
    span is [lo - max k - 1, hi - min k) clipped to the grid.  For each
    block of q columns, one slice copy per column fills a
    (columns, window + 1) buffer whose first and last ``window`` entries
    per q are the two shifted columns.

    The backtraced p must stay on the grid; mass pushed past the p
    boundary is dropped, and the resulting mass defect trips the
    unit-mass validation: StateValidationError names the kick's strength
    and the mass it carried off.  Choose the grid wide enough for the kick.
    A non-finite ``strength`` or offset raises ValueError.
    """
    if not np.isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength}")
    grid = rho.grid
    offset = _kick_offset(grid, grad_v, strength)
    if not np.isfinite(offset).all():
        raise ValueError("kick offset strength * V'(q) / dp must be finite, got "
                         f"{offset[~np.isfinite(offset)][0]} cells")
    k = np.floor(offset).astype(np.int64)
    w = (offset - k)[:, None]
    lo, hi = rho._span
    out_lo = max(0, lo - int(k.max()) - 1)
    n = max(0, min(grid.n_p, hi - int(k.min())) - out_lo)
    out = np.zeros((grid.nq, grid.n_p))
    window = out[:, out_lo : out_lo + n]
    for r in _blocks(grid.nq, n + 1):
        e = np.zeros((len(w[r]), n + 1))
        for dst, src, s in zip(e, rho.values[r], (k[r] + out_lo).tolist()):
            # dst[x] = src[x + s], read only inside the support span
            x0, x1 = max(0, lo - s), min(n + 1, hi - s)
            if x0 < x1:
                dst[x0:x1] = src[x0 + s : x1 + s]
        np.multiply(e[:, 1:], w[r], out=window[r])
        a = e[:, :n]
        a *= 1.0 - w[r]
        window[r] += a
    try:
        return _handover(grid, out, (out_lo, out_lo + n))
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
    if np.any(np.abs(p) < p_min) or np.any(p == 0):
        raise ValueError(f"|p| must be at least {max(p_min, np.finfo(float).tiny)} away from zero")
    xi = q / (2.0 * p)
    if xi.ndim == 0:
        return float(xi), float(p)
    return xi, p


def classical_reduce(rho: PhaseSpaceDensity) -> BetaMarginal:
    """Reduction over xi at fixed beta = p.

    At fixed p the xi integral is proportional to the q integral, so this
    is the p-marginal with the normalization restored explicitly.

    Only the columns of the support span ``_span`` are summed; the other
    columns hold +0.0 and sum to it.  numpy sums each column of a span of
    two or more columns row by row, as it does on the whole grid, but a
    lone column pairwise, so a one-column span takes a neighbour along:
    the result is bit for bit ``values.sum(axis=0)``.
    """
    lo, hi = rho._span
    if hi - lo == 1:
        lo, hi = (lo, hi + 1) if hi < rho.grid.n_p else (lo - 1, hi)
    g = np.zeros(rho.grid.n_p)
    g[lo:hi] = rho.values[:, lo:hi].sum(axis=0)
    g *= rho.grid.dq
    total = g.sum() * rho.grid.dp
    return BetaMarginal(p=rho.grid.p.copy(), density=g / total, dp=rho.grid.dp)


def classical_effective_entropy(marginal: BetaMarginal) -> float:
    """Differential entropy -sum g ln g dp of the beta-marginal.

    The minimum on the grid is ln dp (all mass in one cell); a uniform
    marginal of width W gives ln W.
    """
    g = marginal.density
    positive = g[g > 0]
    return float(-(positive * np.log(positive)).sum() * marginal.dp)
