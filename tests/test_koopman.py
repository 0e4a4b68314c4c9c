import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab import harness, koopman
from lelab.config import validate_config
from lelab.errors import StateValidationError
from lelab.koopman import (
    BetaMarginal,
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    apply_kick,
    kick_gradient,
    classical_effective_entropy,
    classical_free_flow,
    classical_reduce,
    density_from_values,
    gaussian_density,
    single_p_row_density,
    xi_beta_coordinates,
)

GRID = PhaseSpaceGrid(nq=64, n_p=64, dq=2 * np.pi / 64, dp=0.1)


def _p_row_density(grid, column, q_profile):
    """All mass on p column ``column``, distributed in q by ``q_profile``."""
    values = np.zeros((grid.nq, grid.n_p))
    values[:, column] = q_profile
    return density_from_values(grid, values)


def test_grid_excludes_zero_momentum():
    assert 0.0 not in GRID.p
    assert np.abs(GRID.p).min() == pytest.approx(GRID.dp / 2)
    assert GRID.p.min() == -GRID.p.max()
    assert GRID.q[0] == 0.0
    assert GRID.q_period == pytest.approx(2 * np.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(nq=8, n_p=7, dq=0.1, dp=0.1)  # odd p count
    with pytest.raises(ValueError):
        PhaseSpaceGrid(nq=8, n_p=8, dq=-0.1, dp=0.1)
    for nq, n_p in ((2.5, 4), (True, 4), (4, 4.0), (4, np.bool_(True)), ("4", 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            PhaseSpaceGrid(nq, n_p, 1.0, 1.0)
    assert PhaseSpaceGrid(np.int64(4), 4, 1.0, 1.0).nq == 4
    for dq, dp in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan), (0.0, 1.0)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhaseSpaceGrid(4, 4, dq, dp)


@pytest.mark.parametrize("name, bad", [
    ("q0", np.nan), ("q0", np.inf), ("p0", -np.inf), ("p0", np.nan),
    ("sigma_q", 0.0), ("sigma_q", -0.4), ("sigma_q", np.inf), ("sigma_q", np.nan),
    ("sigma_p", 0.0), ("sigma_p", -1.0), ("sigma_p", np.inf), ("sigma_p", np.nan),
])
def test_gaussian_density_refuses_a_bad_argument_by_name(name, bad):
    args = {"q0": 2.0, "p0": 0.8, "sigma_q": 0.5, "sigma_p": 0.3, name: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gaussian_density(GRID, **args)


def test_density_validation():
    ok = np.full((GRID.nq, GRID.n_p), 1.0 / (GRID.nq * GRID.n_p * GRID.dq * GRID.dp))
    assert PhaseSpaceDensity(GRID, ok).mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StateValidationError):
        PhaseSpaceDensity(GRID, -ok)
    with pytest.raises(StateValidationError):
        PhaseSpaceDensity(GRID, 2.0 * ok)
    with pytest.raises(StateValidationError):
        PhaseSpaceDensity(GRID, ok[:, :4])
    with pytest.raises(StateValidationError):
        PhaseSpaceDensity(GRID, np.where(np.arange(GRID.n_p) == 3, np.nan, ok))


def test_xi_translation_identity():
    # free flow moves q by 2pt, xi = q/(2p) by exactly t: pure algebra
    rng = np.random.default_rng(0)
    q = rng.uniform(0, 2 * np.pi, 200)
    p = rng.uniform(0.05, 3.0, 200) * rng.choice([-1.0, 1.0], 200)
    t = 1.7
    xi0, beta0 = xi_beta_coordinates(q, p)
    xi1, beta1 = xi_beta_coordinates(q + 2 * p * t, p)
    assert np.abs(xi1 - (xi0 + t)).max() <= 1e-12
    np.testing.assert_array_equal(beta1, beta0)


@pytest.mark.parametrize("p0", [np.nan, np.inf, -np.inf])
def test_a_non_finite_p0_is_refused(p0):
    # argmin over a NaN or infinite distance would pick row 0, the lowest p
    with pytest.raises(ValueError, match="p0 must be finite"):
        koopman.nearest_p_row(GRID, p0)
    with pytest.raises(ValueError, match="p0 must be finite"):
        single_p_row_density(GRID, p0)


def test_xi_chart_rejects_singular_band():
    with pytest.raises(ValueError):
        xi_beta_coordinates(1.0, 0.0)
    with pytest.raises(ValueError):
        xi_beta_coordinates(np.array([1.0]), np.array([0.01]), p_min=0.05)
    for p in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            xi_beta_coordinates(1.0, p)
        with pytest.raises(ValueError):
            xi_beta_coordinates(1.0, p, p_min=0.05)
    xi, beta = xi_beta_coordinates(1.0, 0.5, p_min=0.05)
    assert xi == pytest.approx(1.0)
    assert beta == 0.5


@given(t=st.floats(-20.0, 20.0), seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_free_flow_conserves_mass_and_marginal(t, seed):
    rng = np.random.default_rng(seed)
    rho = density_from_values(GRID, rng.uniform(0.0, 1.0, (GRID.nq, GRID.n_p)))
    flowed = classical_free_flow(rho, t)
    assert abs(flowed.mass - 1.0) <= 1e-6
    g0 = classical_reduce(rho)
    g1 = classical_reduce(flowed)
    assert np.abs(g1.density - g0.density).max() <= 1e-6
    assert abs(
        classical_effective_entropy(g1) - classical_effective_entropy(g0)
    ) <= 1e-6


def test_free_flow_transports_along_q():
    # one full period at p row j: 2 p t = L when t = L / (2p); density returns
    rho = gaussian_density(GRID, q0=np.pi, p0=1.05, sigma_q=0.4, sigma_p=0.05)
    j = int(np.argmax(classical_reduce(rho).density))
    p = GRID.p[j]
    period = GRID.q_period / (2 * abs(p))
    back = classical_free_flow(rho, period)
    np.testing.assert_allclose(back.values[:, j], rho.values[:, j], atol=1e-12)


def test_single_cell_marginal_entropy_is_log_dp():
    rho = single_p_row_density(GRID, p0=1.0)
    s = classical_effective_entropy(classical_reduce(rho))
    assert s == pytest.approx(np.log(GRID.dp), abs=1e-12)


def test_gaussian_marginal_entropy_matches_closed_form():
    sigma = 0.5
    grid = PhaseSpaceGrid(nq=32, n_p=256, dq=2 * np.pi / 32, dp=0.05)
    rho = gaussian_density(grid, q0=np.pi, p0=0.0, sigma_q=1.0, sigma_p=sigma)
    s = classical_effective_entropy(classical_reduce(rho))
    exact = 0.5 * np.log(2 * np.pi * np.e * sigma**2)
    assert s == pytest.approx(exact, abs=1e-3)


def test_kick_with_zero_strength_is_identity():
    rho = gaussian_density(GRID, q0=2.0, p0=0.8, sigma_q=0.5, sigma_p=0.3)
    kicked = apply_kick(rho, lambda q: -np.sin(q), 0.0)
    np.testing.assert_array_equal(kicked.values, rho.values)


def test_constant_gradient_kick_shifts_marginal_rigidly():
    rho = gaussian_density(GRID, q0=2.0, p0=0.8, sigma_q=0.5, sigma_p=0.3)
    s0 = classical_effective_entropy(classical_reduce(rho))
    # strength * V' = 3 dp: an exact three-cell shift, entropy invariant
    kicked = apply_kick(rho, lambda q: np.ones_like(q), 3.0 * GRID.dp)
    s1 = classical_effective_entropy(classical_reduce(kicked))
    g0 = classical_reduce(rho).density
    g1 = classical_reduce(kicked).density
    np.testing.assert_allclose(g1[:-3], g0[3:], atol=1e-12)
    assert s1 == pytest.approx(s0, abs=1e-12)


def test_kick_spreads_single_row_and_raises_entropy():
    rho = single_p_row_density(GRID, p0=1.0)
    flowed = classical_free_flow(rho, 1.0)
    kicked = apply_kick(flowed, lambda q: -np.sin(q), 0.3)
    marginal = classical_reduce(kicked)
    assert int((marginal.density > 0).sum()) > 1
    s = classical_effective_entropy(marginal)
    assert s >= np.log(GRID.dp) + 1e-3
    assert abs(kicked.mass - 1.0) <= 1e-6


def test_kick_off_grid_mass_loss_is_caught():
    rho = single_p_row_density(GRID, p0=3.0)  # near the p boundary
    # p -> p + 1 overshoots the top of the grid and the mass defect trips
    with pytest.raises(StateValidationError,
                       match=r"^the kick of strength 1.0 carried mass 1 past the p grid \(mass is 0"):
        apply_kick(rho, lambda q: -np.ones_like(q), 1.0)
    # a Gaussian whose upper tail the kick pushes past the top edge
    grid = PhaseSpaceGrid(nq=32, n_p=32, dq=2 * np.pi / 32, dp=0.2)
    rho = gaussian_density(grid, q0=np.pi, p0=2.6, sigma_q=0.7, sigma_p=0.4)
    with pytest.raises(StateValidationError, match=r"^the kick of strength 0.5 carried mass "
                       r"0.0718 past the p grid \(mass is 0.928185"):
        apply_kick(rho, kick_gradient("cos"), 0.5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernels_refuse_a_non_finite_time_or_strength(bad):
    rho = single_p_row_density(GRID, p0=1.0)
    with pytest.raises(ValueError, match="^t must be finite"):
        classical_free_flow(rho, bad)
    with pytest.raises(ValueError, match="^strength must be finite"):
        apply_kick(rho, lambda q: -np.sin(q), bad)


@pytest.mark.parametrize("grad_v,strength", [
    (lambda q: np.full_like(q, np.nan), 0.3),  # used to raise OverflowError in the int cast
    (lambda q: -np.sin(q), 1e308),  # used to end in "density must be nonnegative, min is nan"
], ids=["nan-gradient", "huge-strength"])
def test_kick_refuses_a_non_finite_offset(grad_v, strength):
    rho = single_p_row_density(GRID, p0=1.0)
    with pytest.raises(ValueError, match="^kick offset strength \\* V'\\(q\\) / dp must be finite"):
        apply_kick(rho, grad_v, strength)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p0", [1.0, -1.0])
def test_free_flow_refuses_an_overflowing_offset(p0):
    # used to warn "invalid value encountered in remainder" and end in
    # "density must be nonnegative, min is nan"
    grid = PhaseSpaceGrid(nq=8, n_p=8, dq=np.pi / 4, dp=0.5)
    rho = single_p_row_density(grid, p0=p0)
    sign = "" if p0 > 0 else "-"
    with pytest.raises(ValueError, match=r"^free-flow offset 2 \* p \* t / dq at t = 1\.7e\+308 "
                       f"must be finite, got {sign}inf cells"):
        classical_free_flow(rho, 1.7e308)
    # a huge time whose offsets stay finite still flows
    assert classical_free_flow(rho, 1e307).mass == rho.mass


def test_density_refuses_complex_values():
    # the imaginary part used to be dropped with only a ComplexWarning
    ok = np.full((GRID.nq, GRID.n_p), 1.0 / (GRID.nq * GRID.n_p * GRID.dq * GRID.dp))
    with pytest.raises(StateValidationError, match="values must be real"):
        PhaseSpaceDensity(GRID, ok + 0j)


def test_density_from_values_refuses_complex_values():
    with pytest.raises(StateValidationError, match="values must be real"):
        density_from_values(GRID, np.ones((GRID.nq, GRID.n_p), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_from_values_refuses_values_that_are_not_finite(bad):
    # an inf cell used to warn in the division, then report "min is nan"
    values = np.ones((GRID.nq, GRID.n_p))
    values[2, 3] = bad
    with pytest.raises(StateValidationError, match="^values must be finite$"):
        density_from_values(GRID, values)


def test_kick_refuses_a_complex_gradient():
    rho = single_p_row_density(GRID, p0=1.0)
    with pytest.raises(ValueError, match="grad_v must return real values"):
        apply_kick(rho, lambda q: np.exp(1j * q), 0.1)


def test_marginal_mass_validated():
    with pytest.raises(StateValidationError):
        BetaMarginal(density=np.ones(GRID.n_p), dp=GRID.dp)
    # the mass check is written so that NaN fails it: NaN > tol is False
    for bad in (np.nan, np.inf):
        with pytest.raises(StateValidationError, match="marginal mass"):
            BetaMarginal(density=np.array([bad, 1.0]), dp=1.0)


def test_entropy_of_unit_density_cells_is_plus_zero():
    # every occupied cell has g = 1, so -sum g ln g sums zero terms: +0.0, not -0.0
    s = classical_effective_entropy(BetaMarginal(density=np.array([1.0, 0.0]), dp=1.0))
    assert s == 0.0 and np.copysign(1.0, s) == 1.0


@pytest.mark.parametrize("refused, error, match", [
    (lambda: PhaseSpaceGrid(nq=0, n_p=8, dq=0.1, dp=0.1), ValueError, "nq >= 1"),
    (lambda: PhaseSpaceGrid(nq=8, n_p=0, dq=0.1, dp=0.1), ValueError, "n_p >= 2"),
    (lambda: PhaseSpaceDensity(GRID), TypeError, "needs its values"),
    (lambda: density_from_values(GRID, np.zeros((GRID.nq, GRID.n_p))), ValueError, "no mass"),
    (lambda: apply_kick(single_p_row_density(GRID, 1.0), lambda q: np.zeros(3), 0.1),
     ValueError, "one value per q cell"),
    (lambda: kick_gradient("tan"), ValueError, "unknown kick shape 'tan'"),
], ids=["nq-0", "np-0", "no-values", "no-mass", "gradient-shape", "kick-shape"])
def test_classical_constructors_refuse_malformed_input(refused, error, match):
    with pytest.raises(error, match=match):
        refused()


def test_xi_beta_chart_point_values():
    assert xi_beta_coordinates(0.0, 1.0) == (0.0, 1.0)
    xi, beta = xi_beta_coordinates(2.0, 1.0)
    assert (xi, beta) == (1.0, 1.0)
    # after flowing for t = 3 the same trajectory sits at q = 2 + 2*1*3 = 8
    assert xi_beta_coordinates(8.0, 1.0) == (4.0, 1.0)
    assert xi_beta_coordinates(1.0, -0.5) == (-1.0, -0.5)


def test_free_flow_at_time_zero_is_identity():
    rho = gaussian_density(GRID, q0=np.pi, p0=1.1, sigma_q=0.7, sigma_p=0.5)
    np.testing.assert_array_equal(classical_free_flow(rho, 0.0).values, rho.values)


def test_product_density_reduces_to_momentum_factor():
    fq = 1.0 + 0.3 * np.cos(GRID.q)
    gp = np.exp(-((GRID.p - 0.8) ** 2))
    rho = density_from_values(GRID, np.outer(fq, gp))
    marginal = classical_reduce(rho)
    np.testing.assert_allclose(
        marginal.density, gp / (gp.sum() * GRID.dp), atol=1e-12
    )


def test_fixed_row_spreads_reduce_identically():
    # any q profile on one p row reduces to the same delta-like marginal
    flat = single_p_row_density(GRID, p0=1.0)
    bumpy = _p_row_density(GRID, koopman.nearest_p_row(GRID, 1.0), 1.0 + 0.9 * np.sin(GRID.q))
    np.testing.assert_allclose(
        classical_reduce(flat).density, classical_reduce(bumpy).density, atol=1e-14
    )
    j = int(np.argmax(classical_reduce(flat).density))
    assert classical_reduce(flat).density[j] == pytest.approx(1.0 / GRID.dp, abs=1e-12)


def test_uniform_marginal_entropy_is_log_width():
    cells = 16
    vals = np.zeros((GRID.nq, GRID.n_p))
    vals[:, 10 : 10 + cells] = 1.0
    rho = density_from_values(GRID, vals)
    s = classical_effective_entropy(classical_reduce(rho))
    assert s == pytest.approx(np.log(cells * GRID.dp), abs=1e-12)


# Per-column reference transport: the scheme written one column at a time,
# which the whole-array kernels must reproduce bit for bit.


def _shift_zero(col, s):
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


def _oracle_free_flow(rho, t):
    grid = rho.grid
    out = np.empty_like(rho.values)
    for j, p in enumerate(grid.p):
        offset = 2.0 * p * t / grid.dq
        k = int(np.floor(offset))
        w = offset - k
        col = rho.values[:, j]
        out[:, j] = (1.0 - w) * np.roll(col, k) + w * np.roll(col, k + 1)
    return out


def _oracle_kick(rho, grad_v, strength):
    grid = rho.grid
    dv = np.asarray(grad_v(grid.q), dtype=float)
    out = np.empty_like(rho.values)
    for i in range(grid.nq):
        offset = strength * dv[i] / grid.dp
        k = int(np.floor(offset))
        w = offset - k
        col = rho.values[i, :]
        out[i, :] = (1.0 - w) * _shift_zero(col, k) + w * _shift_zero(col, k + 1)
    return out


def _random_density(nq, n_p, seed, edge=1.0):
    """Random density on an nq x n_p grid, scaled by ``edge`` in the two
    outermost p rows on each side, with some cells holding -0.0 so that
    a comparison of bits also sees the sign of zero."""
    grid = PhaseSpaceGrid(nq=nq, n_p=n_p, dq=2 * np.pi / nq, dp=4.0 / n_p)
    values = np.random.default_rng(seed).uniform(0.0, 1.0, (nq, n_p))
    values[:, :2] *= edge
    values[:, n_p - 2 :] *= edge
    values[::7, ::5] = 0.0
    values = density_from_values(grid, values).values.copy()
    values[::7, ::5] = -0.0
    return PhaseSpaceDensity(grid, values)


def _assert_same_bits(x, y):
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()


GRID_SHAPES = [(48, 30), (64, 64), (1, 8)]


def _wrapping_time(grid):
    """A t at which the largest |offset| exceeds three periods of q."""
    return 3.5 * grid.nq * grid.dq / (2.0 * np.abs(grid.p).max())


@pytest.mark.parametrize("nq,n_p", GRID_SHAPES)
def test_free_flow_matches_per_column_oracle_bit_for_bit(nq, n_p):
    rho = _random_density(nq, n_p, seed=nq + n_p)
    t_wrap = _wrapping_time(rho.grid)
    assert np.abs(2.0 * rho.grid.p * t_wrap / rho.grid.dq).max() > 3 * nq
    # 1e18 puts the offsets past the int64 range
    for t in (0.0, -0.0, 0.37, -1.3, t_wrap, -t_wrap, 1e18):
        _assert_same_bits(classical_free_flow(rho, t).values, _oracle_free_flow(rho, t))


KICK_GRADIENTS = {
    "positive": lambda q: np.ones_like(q),
    "negative": lambda q: -np.ones_like(q),
    "minus-sin": kick_gradient("cos"),
}


@pytest.mark.parametrize("nq,n_p", GRID_SHAPES)
@pytest.mark.parametrize("shape", sorted(KICK_GRADIENTS))
def test_kick_matches_per_column_oracle_bit_for_bit(nq, n_p, shape):
    # faint edge rows: the kicks below lose far less mass than MASS_TOL,
    # yet what they carry past the edge still reaches the compared bits
    rho = _random_density(nq, n_p, seed=3 * nq + n_p, edge=1e-12)
    grad_v = KICK_GRADIENTS[shape]
    for strength in (0.0, 0.3 * rho.grid.dp, 1.7 * rho.grid.dp, -1.2 * rho.grid.dp):
        _assert_same_bits(
            apply_kick(rho, grad_v, strength).values, _oracle_kick(rho, grad_v, strength)
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strength", [1e300, -1e300])
def test_kick_past_the_int64_range_is_refused_as_lost_mass(strength):
    # used to warn "invalid value encountered in cast" and then raise
    # OverflowError: the offsets are finite but beyond 2**63 cells
    grid = PhaseSpaceGrid(nq=8, n_p=8, dq=np.pi / 4, dp=0.5)
    rho = single_p_row_density(grid, p0=0.25)
    message = f"the kick of strength {strength} carried mass 1 past the p grid (mass is 0"
    with pytest.raises(StateValidationError, match="^" + re.escape(message)):
        apply_kick(rho, kick_gradient("sin"), strength)
    # q columns that hold no mass may move that far too: the rest still
    # match the per-column oracle bit for bit
    values = np.zeros((grid.nq, grid.n_p))
    values[: grid.nq // 2, 3:5] = 1.0
    rho = density_from_values(grid, values)
    grad_v = lambda q: np.where(q < np.pi, 0.0, 1.0)
    _assert_same_bits(apply_kick(rho, grad_v, strength).values, _oracle_kick(rho, grad_v, strength))


def test_kick_past_the_grid_edge_is_caught_on_a_random_density():
    rho = _random_density(48, 30, seed=5, edge=1e-12)
    with pytest.raises(StateValidationError):
        apply_kick(rho, lambda q: np.ones_like(q), 3.5 * rho.grid.dp)


# Sparse support: the kernels touch only the p columns that hold mass, and
# must still reproduce the per-column oracle on every bit of the grid.

SPARSE_GRID = PhaseSpaceGrid(nq=48, n_p=40, dq=2 * np.pi / 48, dp=0.1)


def _flow_times(grid):
    t_wrap = _wrapping_time(grid)
    return (0.0, -0.0, 0.37, t_wrap, -t_wrap, 1e18)


def _exact_span(values):
    """[first, last + 1) of the p columns holding any bit other than +0.0."""
    cols = np.flatnonzero(values.view(np.int64).any(axis=0))
    return int(cols[0]), int(cols[-1]) + 1


def _assert_flows_match_oracle(rho):
    for t in _flow_times(rho.grid):
        flowed = classical_free_flow(rho, t)
        _assert_same_bits(flowed.values, _oracle_free_flow(rho, t))
        assert flowed._span == _exact_span(flowed.values)


def _assert_kick_matches_oracle(rho, grad_v, strength):
    kicked = apply_kick(rho, grad_v, strength)
    _assert_same_bits(kicked.values, _oracle_kick(rho, grad_v, strength))
    assert kicked._span == _exact_span(kicked.values)  # the kick's window, trimmed
    return kicked


def _kick_window_is_clipped(rho, grad_v, strength):
    """True iff the kick's window [lo - max k - 1, hi - min k) leaves the p grid."""
    cols = np.flatnonzero(rho.values.view(np.int64).any(axis=0))
    k = np.floor(strength * grad_v(rho.grid.q) / rho.grid.dp)
    return cols[0] - k.max() - 1 < 0 or cols[-1] + 1 - k.min() > rho.grid.n_p


@pytest.mark.parametrize("column", [0, 17, SPARSE_GRID.n_p - 1])
def test_single_row_flow_and_kick_match_the_oracles_bit_for_bit(column):
    grid = SPARSE_GRID
    rho = _p_row_density(grid, column, 1.0 + 0.5 * np.sin(grid.q))
    _assert_flows_match_oracle(rho)
    if column == 17:
        # the harness's path: flow to the kick time, kick, flow again
        kicked = _assert_kick_matches_oracle(
            classical_free_flow(rho, 1.1), kick_gradient("cos"), 2.5 * grid.dp
        )
        assert int(kicked.values.any(axis=0).sum()) > 3
        _assert_flows_match_oracle(kicked)


@pytest.mark.parametrize("column,sign", [(0, -1.0), (SPARSE_GRID.n_p - 1, 1.0)])
def test_kick_window_clipped_at_a_p_edge_matches_the_oracle_bit_for_bit(column, sign):
    # mass only where q < pi, which the kick moves into the grid; the empty
    # q rows are pushed past the edge, so the window is clipped there
    grid = SPARSE_GRID
    rho = _p_row_density(grid, column, (grid.q < np.pi) * 1.0)
    grad_v = lambda q: sign * 1.5 * np.sin(q)  # noqa: E731
    assert _kick_window_is_clipped(rho, grad_v, grid.dp)
    kicked = _assert_kick_matches_oracle(rho, grad_v, grid.dp)
    assert abs(kicked.mass - 1.0) <= 1e-12
    _assert_flows_match_oracle(kicked)


def test_signed_zero_columns_match_the_oracles_bit_for_bit():
    grid = SPARSE_GRID
    values = np.zeros((grid.nq, grid.n_p))
    values[:, 5:21] = np.random.default_rng(2).uniform(0.1, 1.0, (grid.nq, 16))
    values = density_from_values(grid, values).values.copy()
    values[:, 5] = -0.0  # the first support column holds only -0.0
    values[:, 12] = 0.0  # an interior column holds only +0.0
    values[::3, 20] = -0.0
    rho = PhaseSpaceDensity(grid, values / (values.sum() * grid.dq * grid.dp))
    assert np.signbit(rho.values[:, 5]).all() and not np.signbit(rho.values[:, 12]).any()
    _assert_flows_match_oracle(rho)
    for strength in (0.0, 1.7 * grid.dp, -2.2 * grid.dp):
        _assert_flows_match_oracle(_assert_kick_matches_oracle(rho, kick_gradient("cos"), strength))


def test_full_support_density_matches_the_oracles_bit_for_bit():
    rho = gaussian_density(SPARSE_GRID, q0=1.0, p0=0.2, sigma_q=0.6, sigma_p=2.0)
    assert rho.values.view(np.int64).all()
    _assert_flows_match_oracle(rho)
    _assert_kick_matches_oracle(rho, kick_gradient("sin"), 0.0)


def _oracle_reduce(rho):
    """Reference: the p-marginal summed over every p column of the grid."""
    g = rho.values.sum(axis=0) * rho.grid.dq
    return g / (g.sum() * rho.grid.dp)


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("edge", ["low", "high"])
def test_reduce_sums_the_window_bit_for_bit_at_both_p_edges(edge, width):
    # a single p row flowed in q (the pre-kick rows of a run) has a one-column
    # span, which numpy would sum pairwise on its own
    grid = PhaseSpaceGrid(nq=256, n_p=256, dq=2 * np.pi / 256, dp=0.05)
    lo = 0 if edge == "low" else grid.n_p - width
    values = np.zeros((grid.nq, grid.n_p))
    values[:, lo : lo + width] = np.random.default_rng(width).exponential(size=(grid.nq, width))
    rho = density_from_values(grid, values)
    assert rho._span == (lo, lo + width)  # a caller's array: exact, from one scan
    for t in (0.0, 0.1, 1.7, 3.0):
        flowed = classical_free_flow(rho, t)
        assert flowed._span == (lo, lo + width)
        _assert_same_bits(classical_reduce(flowed).density, _oracle_reduce(flowed))


def test_reduce_sums_the_window_bit_for_bit_on_random_windows():
    rng = np.random.default_rng(9)
    for i in range(50):
        nq, n_p = int(rng.integers(1, 200)), 2 * int(rng.integers(4, 80))
        grid = PhaseSpaceGrid(nq=nq, n_p=n_p, dq=2 * np.pi / nq, dp=0.1)
        width = int(rng.integers(1, 3 if i % 2 else n_p - 6))
        lo = int(rng.integers(3, n_p - width - 2))  # the kick moves up to three columns
        values = np.zeros((nq, n_p))
        values[:, lo : lo + width] = rng.exponential(size=(nq, width))
        rho = density_from_values(grid, values)
        flowed = classical_free_flow(rho, float(rng.uniform(0.0, 3.0)))
        kicked = apply_kick(flowed, kick_gradient("cos"), float(rng.uniform(0.0, 2.0)) * grid.dp)
        for state in (rho, flowed, kicked):
            _assert_same_bits(classical_reduce(state).density, _oracle_reduce(state))
        assert flowed._span == (lo, lo + width)


# Ownership: a density never aliases a caller's array, and the arrays the
# module builds are read-only and C-ordered.


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("build", [PhaseSpaceDensity, density_from_values])
def test_density_does_not_alias_the_callers_array(build, order):
    callers = np.full((GRID.nq, GRID.n_p), 1.0 / (GRID.nq * GRID.n_p * GRID.dq * GRID.dp),
                      order=order)
    rho = build(GRID, callers)
    assert "values" not in vars(rho)  # only the window is held
    before = rho.values.tobytes()
    callers[3, 4] = 7.0
    assert rho.values.tobytes() == before
    assert rho.values.flags.c_contiguous and not rho.values.flags.writeable


def test_every_kernel_output_is_read_only_and_c_ordered():
    row = single_p_row_density(GRID, p0=1.0)
    flowed = classical_free_flow(row, 0.7)
    outputs = (
        row,
        flowed,
        apply_kick(flowed, kick_gradient("cos"), 0.3),
        gaussian_density(GRID, q0=1.0, p0=0.5, sigma_q=0.5, sigma_p=0.5),
        density_from_values(GRID, np.ones((GRID.nq, GRID.n_p))),
    )
    for rho in outputs:
        assert rho.values.flags.c_contiguous and not rho.values.flags.writeable
        assert rho._window.flags.c_contiguous and not rho._window.flags.writeable
        # mass is the sum over the window of the exact span, however the
        # density was made
        lo, hi = rho._span
        assert (lo, hi) == _exact_span(rho.values)
        _assert_same_bits(rho._window, rho.values[:, lo:hi])
        assert rho.mass == float(rho._window.sum() * GRID.dq * GRID.dp)
        again = PhaseSpaceDensity(GRID, rho.values)
        assert again._span == (lo, hi) and again.mass == rho.mass


def test_a_run_forms_no_full_grid_until_values_is_read():
    # the classical-kick benchmark's path at 1024^2: a one-column start,
    # 97 columns after the kick
    n = 1024
    grid = PhaseSpaceGrid(nq=n, n_p=n, dq=2 * np.pi / n, dp=6.4 / n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        row = single_p_row_density(grid, p0=0.83)
        kicked = apply_kick(classical_free_flow(row, 1.0), kick_gradient("cos"), 0.3)
        rho = classical_free_flow(kicked, 1.0)
        marginal = classical_reduce(rho)
        assert "values" not in repr(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one float64 grid is 8 MB
    assert row._span[1] - row._span[0] == 1 and rho._span[1] - rho._span[0] < n // 8
    v = rho.values
    assert v is rho.values and not v.flags.writeable and v.flags.c_contiguous
    assert v.shape == (n, n)
    lo, hi = rho._span
    _assert_same_bits(v[:, lo:hi], rho._window)
    assert not v[:, :lo].view(np.int64).any() and not v[:, hi:].view(np.int64).any()
    _assert_same_bits(marginal.density, _oracle_reduce(rho))
    with pytest.raises(AttributeError):
        rho.values = v


def test_run_writes_the_same_csv_bytes_with_the_oracle_kernels(tmp_path, monkeypatch):
    n = 128
    cfg = validate_config(json.dumps({
        "mode": "classical",
        "lattice": {"nq": n, "np": n, "dq": 2 * np.pi / n, "dp": 6.4 / n},
        "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
        "initial_state": {"kind": "single-p-row", "p0": 0.83},
        "time_grid": {"t_max": 2.0, "steps": 10},
        "outputs": {"csv": "trace.csv", "summary": "summary.json"},
    }))
    harness.run(cfg, tmp_path / "kernels")
    monkeypatch.setattr(koopman, "classical_free_flow",
                        lambda rho, t: PhaseSpaceDensity(rho.grid, _oracle_free_flow(rho, t)))
    monkeypatch.setattr(koopman, "apply_kick", lambda rho, g, s: PhaseSpaceDensity(
        rho.grid, _oracle_kick(rho, g, s)))
    harness.run(cfg, tmp_path / "oracles")
    kernels = (tmp_path / "kernels" / "trace.csv").read_bytes()
    assert kernels == (tmp_path / "oracles" / "trace.csv").read_bytes()
    assert len(kernels.splitlines()) == 12
