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
nonnegativity and conserves mass up to p-boundary truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StateValidationError

MASS_TOL = 1e-8


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


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Nonnegative unit-mass grid function; values[i, j] sits at (q_i, p_j)."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nq, self.grid.n_p):
            raise StateValidationError(
                f"values must be {self.grid.nq}x{self.grid.n_p}, got {v.shape}"
            )
        if v.min() < 0:
            raise StateValidationError(f"density must be nonnegative, min is {v.min():.3e}")
        m = v.sum() * self.grid.dq * self.grid.dp
        if abs(m - 1.0) > MASS_TOL:
            raise StateValidationError(f"mass is {m}, not 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dq * self.grid.dp)


@dataclass(frozen=True)
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
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    total = v.sum() * grid.dq * grid.dp
    if total <= 0:
        raise ValueError("cannot normalize a density with no mass")
    return PhaseSpaceDensity(grid, v / total)


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


def single_p_row_density(
    grid: PhaseSpaceGrid, p0: float, q_profile: np.ndarray | None = None
) -> PhaseSpaceDensity:
    """All mass on the p row nearest ``p0``, uniform in q unless a profile is given."""
    j = nearest_p_row(grid, p0)
    values = np.zeros((grid.nq, grid.n_p))
    values[:, j] = 1.0 if q_profile is None else np.asarray(q_profile, dtype=float)
    return density_from_values(grid, values)


def _roll_interp(col: np.ndarray, offset: float) -> np.ndarray:
    """Periodic semi-Lagrangian shift: out[i] = col at fractional index i - offset."""
    k = int(np.floor(offset))
    w = offset - k
    return (1.0 - w) * np.roll(col, k) + w * np.roll(col, k + 1)


def _shift_zero(col: np.ndarray, s: int) -> np.ndarray:
    """out[j] = col[j + s], with zero fill outside the column."""
    n = len(col)
    out = np.zeros(n)
    if s >= n or s <= -n:
        return out
    if s >= 0:
        out[: n - s] = col[s:]
    else:
        out[-s:] = col[: n + s]
    return out


def classical_free_flow(rho: PhaseSpaceDensity, t: float) -> PhaseSpaceDensity:
    """Transport along q -> q + 2 p t at fixed p (characteristics of H = p^2).

    The shift per p row is constant, so the periodic linear-interpolation
    backtrace conserves both mass and the p-marginal to machine precision.
    """
    grid = rho.grid
    out = np.empty_like(rho.values)
    for j, p in enumerate(grid.p):
        out[:, j] = _roll_interp(rho.values[:, j], 2.0 * p * t / grid.dq)
    return PhaseSpaceDensity(grid, out)


def apply_kick(
    rho: PhaseSpaceDensity, grad_v: Callable[[np.ndarray], np.ndarray], strength: float
) -> PhaseSpaceDensity:
    """Impulsive interaction p -> p - strength * V'(q), V' given as ``grad_v``.

    The backtraced p must stay on the grid; mass pushed past the p
    boundary is dropped, and the resulting mass defect trips the
    unit-mass validation.  Choose the grid wide enough for the kick.
    """
    grid = rho.grid
    dv = np.asarray(grad_v(grid.q), dtype=float)
    if dv.shape != (grid.nq,):
        raise ValueError(f"grad_v must return one value per q cell, got shape {dv.shape}")
    out = np.empty_like(rho.values)
    for i in range(grid.nq):
        offset = strength * dv[i] / grid.dp
        k = int(np.floor(offset))
        w = offset - k
        col = rho.values[i, :]
        out[i, :] = (1.0 - w) * _shift_zero(col, k) + w * _shift_zero(col, k + 1)
    return PhaseSpaceDensity(grid, out)


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
    """
    offset = strength * np.asarray(grad_v(grid.q), dtype=float) / grid.dp
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
    """
    g = rho.values.sum(axis=0) * rho.grid.dq
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
