import json

import numpy as np
import pytest

from lelab.basis import build_basis
from lelab.config import (
    MAX_STEPS,
    MAX_TRACE_CELLS,
    ClassicalGrid,
    CubicLattice,
    LineLattice,
    YukawaConfig,
    quantum_basis,
    validate_config,
)
from lelab.errors import ConfigError, DimensionCapError, StateValidationError
from lelab.koopman import PhaseSpaceGrid
from lelab.states import DensityMatrix, effectively_pure_state

QUANTUM = {
    "mode": "quantum",
    "lattice": {"M": 1, "delta_k": 1.0},
    "potential": {"A": 0.2, "mu": 1.0},
    "initial_state": {"kind": "effectively-pure-mixed", "seed": 7},
    "time_grid": {"t_max": 5.0, "steps": 50},
}

CLASSICAL = {
    "mode": "classical",
    "lattice": {"nq": 32, "np": 32, "dq": 0.196, "dp": 0.1},
    "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
    "initial_state": {"kind": "single-p-row", "p0": 1.0},
    "time_grid": {"t_max": 2.0, "steps": 10},
}


def errors_of(raw) -> dict:
    with pytest.raises(ConfigError) as info:
        validate_config(raw if isinstance(raw, str) else json.dumps(raw))
    return dict(info.value.errors)


def test_empty_input_names_required_fields():
    errs = errors_of("")
    for field in ("mode", "lattice", "potential", "initial_state", "time_grid"):
        assert field in errs, f"missing error for {field}"


def test_minimal_quantum_config_round_trips():
    cfg = validate_config(json.dumps(QUANTUM))
    assert cfg.mode == "quantum"
    assert cfg.lattice == CubicLattice(extent=1, delta_k=1.0)
    assert cfg.potential == YukawaConfig(coupling=0.2, screening=1.0)
    assert cfg.initial_state.kind == "effectively-pure-mixed"
    assert cfg.initial_state.seed == 7
    assert cfg.time_grid.steps == 50
    assert cfg.outputs.csv == "trace.csv"
    assert cfg.echo == QUANTUM


def test_time_grid_times():
    cfg = validate_config(json.dumps(QUANTUM))
    times = cfg.time_grid.times()
    assert len(times) == 51
    assert times[0] == 0.0
    assert times[-1] == 5.0


def test_classical_config_parses():
    cfg = validate_config(json.dumps(CLASSICAL))
    assert cfg.lattice == ClassicalGrid(nq=32, n_p=32, dq=0.196, dp=0.1)
    assert cfg.potential.strength == 0.3
    assert cfg.potential.time == 1.0
    assert cfg.initial_state.p0 == 1.0


def test_kick_time_defaults_to_half_span():
    raw = dict(CLASSICAL, potential={"kick_strength": 0.3, "kick_shape": "cos"})
    cfg = validate_config(json.dumps(raw))
    assert cfg.potential.time == 1.0  # t_max / 2


def test_negative_mu_rejected_with_field_path():
    raw = dict(QUANTUM, potential={"A": 0.2, "mu": -1.0})
    assert "potential.mu" in errors_of(raw)


def test_unknown_fields_rejected():
    raw = dict(QUANTUM, extra=1)
    assert "extra" in errors_of(raw)
    raw = dict(QUANTUM, lattice={"M": 1, "delta_k": 1.0, "shape": "fcc"})
    assert "lattice.shape" in errors_of(raw)
    raw = dict(QUANTUM, initial_state={"kind": "pure-random", "seed": 1, "p0": 2.0})
    assert "initial_state.p0" in errors_of(raw)


def test_mode_lattice_mismatch_rejected():
    raw = dict(QUANTUM, lattice=CLASSICAL["lattice"])
    assert "lattice" in errors_of(raw)
    raw = dict(CLASSICAL, lattice={"M": 1, "delta_k": 1.0})
    assert "lattice" in errors_of(raw)


def test_state_kind_must_match_mode():
    raw = dict(QUANTUM, initial_state={"kind": "single-p-row", "p0": 1.0})
    assert "initial_state.kind" in errors_of(raw)
    raw = dict(CLASSICAL, initial_state={"kind": "pure-random", "seed": 0})
    assert "initial_state.kind" in errors_of(raw)


def test_line_lattice_parses():
    raw = dict(QUANTUM, lattice={"N": 16, "delta_k": 1.0},
               initial_state={"kind": "pure-random", "seed": 3})
    cfg = validate_config(json.dumps(raw))
    assert cfg.lattice == LineLattice(n_points=16, delta_k=1.0)


def test_numeric_field_validation():
    assert "time_grid.steps" in errors_of(dict(QUANTUM, time_grid={"t_max": 1.0, "steps": 0}))
    assert "time_grid.t_max" in errors_of(dict(QUANTUM, time_grid={"t_max": 0.0, "steps": 5}))
    assert "lattice.delta_k" in errors_of(dict(QUANTUM, lattice={"M": 1, "delta_k": -2.0}))
    assert "lattice.M" in errors_of(dict(QUANTUM, lattice={"M": 1.5, "delta_k": 1.0}))
    assert "potential.A" in errors_of(dict(QUANTUM, potential={"A": "big", "mu": 1.0}))
    bad_np = dict(CLASSICAL, lattice={"nq": 32, "np": 31, "dq": 0.196, "dp": 0.1})
    assert "lattice.np" in errors_of(bad_np)


def test_non_finite_numbers_rejected():
    text = json.dumps(QUANTUM).replace('"A": 0.2', '"A": NaN')
    errs = errors_of(text)
    assert "potential.A" in errs
    # an integer beyond the float range is not a finite number either
    text = json.dumps(QUANTUM).replace('"A": 0.2', '"A": 1' + "0" * 400)
    assert errors_of(text) == {"potential.A": "expected a finite number"}


def test_classical_grid_is_the_phase_space_grid():
    assert ClassicalGrid is PhaseSpaceGrid
    assert validate_config(json.dumps(CLASSICAL)).lattice == PhaseSpaceGrid(32, 32, 0.196, 0.1)


def test_multiple_errors_reported_at_once():
    raw = dict(QUANTUM, potential={"A": -1.0, "mu": -1.0},
               time_grid={"t_max": 5.0, "steps": 0})
    errs = errors_of(raw)
    assert {"potential.A", "potential.mu", "time_grid.steps"} <= set(errs)


def test_explicit_mu_matrix_for_mixed_state():
    state = {
        "kind": "effectively-pure-mixed",
        "seed": 1,
        "shells": [0, 1],
        "mu": [[0.5, 0.1], [0.1, 0.5]],
    }
    cfg = validate_config(json.dumps(dict(QUANTUM, initial_state=state)))
    assert cfg.initial_state.shells == (0, 1)
    assert cfg.initial_state.mu == ((0.5, 0.1), (0.1, 0.5))


def test_mu_matrix_validation():
    base = {"kind": "effectively-pure-mixed", "seed": 1, "shells": [0, 1]}
    bad_trace = dict(base, mu=[[0.5, 0.0], [0.0, 0.6]])
    assert "initial_state.mu" in errors_of(dict(QUANTUM, initial_state=bad_trace))
    asym = dict(base, mu=[[0.5, 0.2], [0.0, 0.5]])
    assert "initial_state.mu" in errors_of(dict(QUANTUM, initial_state=asym))
    not_psd = dict(base, mu=[[0.1, 0.45], [0.45, 0.9]])
    assert "initial_state.mu" in errors_of(dict(QUANTUM, initial_state=not_psd))
    wrong_size = dict(base, mu=[[1.0]])
    assert "initial_state.mu" in errors_of(dict(QUANTUM, initial_state=wrong_size))
    dup_shells = dict(base, shells=[1, 1])
    assert "initial_state.shells" in errors_of(dict(QUANTUM, initial_state=dup_shells))


MU_BASE = {"kind": "effectively-pure-mixed", "seed": 1, "shells": [0, 1]}


def _rejection(build):
    """The ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as err:
        return err
    return None


@pytest.mark.parametrize(
    "mu,ok",
    [
        ([[0.5, 0.2 + 2e-12], [0.2, 0.5]], False),  # Hermitian deviation 2e-12
        ([[0.5, 0.2 + 5e-13], [0.2, 0.5]], True),
        ([[0.5, 0.0], [0.0, 0.5 + 2e-10]], False),  # trace off by 2e-10
        ([[0.5, 0.0], [0.0, 0.5 + 5e-11]], True),
        ([[1.0 + 2e-10, 0.0], [0.0, -2e-10]], False),  # min eigenvalue -2e-10
        ([[1.0 + 5e-11, 0.0], [0.0, -5e-11]], True),
    ],
)
def test_mu_is_checked_by_the_one_density_matrix_rule(mu, ok):
    m = np.array(mu)
    basis = build_basis(1, 1.0)
    vecs = [np.array([1.0]), np.eye(6)[0]]
    raw = dict(QUANTUM, initial_state=dict(MU_BASE, mu=mu))
    errs = [
        _rejection(lambda: DensityMatrix(m)),
        _rejection(lambda: effectively_pure_state(basis, [0, 1], vecs, m)),
        _rejection(lambda: validate_config(json.dumps(raw))),
    ]
    if ok:
        assert errs == [None, None, None]
    else:
        assert isinstance(errs[0], StateValidationError)
        assert isinstance(errs[1], ValueError) and "mu" in str(errs[1])
        assert isinstance(errs[2], ConfigError)
        assert "initial_state.mu" in dict(errs[2].errors)


def test_invalid_json_reported():
    errs = errors_of("{not json")
    assert "" in errs and "invalid JSON" in errs[""]
    errs = errors_of("[1, 2]")
    assert "top level" in errs[""]
    errs = errors_of("[" * 200_000 + "]" * 200_000)  # deeper than the parser's recursion limit
    assert errs == {"": "invalid JSON: nested too deeply to parse"}


# p rows at +-0.05 .. +-3.15; cells span [-3.2, 3.2].
EDGE_GRID = {"nq": 64, "np": 64, "dq": 0.09817477042468103, "dp": 0.1}


def test_kick_past_the_p_edge_is_config_error():
    # Mass on the row at p = 3.05 would be kicked up to p = 3.35.
    raw = dict(CLASSICAL, lattice=EDGE_GRID,
               initial_state={"kind": "single-p-row", "p0": 3.05})
    assert set(errors_of(raw)) == {"potential.kick_strength"}
    # The same start row is fine with a kick that stays inside the grid,
    # or with a kick that falls after t_max.
    weak = dict(raw, potential=dict(CLASSICAL["potential"], kick_strength=0.1))
    validate_config(json.dumps(weak))
    late = dict(raw, potential=dict(CLASSICAL["potential"], kick_time=2.0))
    validate_config(json.dumps(late))


def test_p0_off_the_p_grid_is_config_error():
    for p0 in (3.3, -10.0):
        raw = dict(CLASSICAL, lattice=EDGE_GRID,
                   potential=dict(CLASSICAL["potential"], kick_strength=0.0),
                   initial_state={"kind": "single-p-row", "p0": p0})
        assert set(errors_of(raw)) == {"initial_state.p0"}


@pytest.mark.parametrize("lattice,message", [
    ({"M": 11, "delta_k": 1.0}, "(2M+1)^3 = 12167 exceeds cap of 9261 points"),
    ({"N": 4097, "delta_k": 1.0}, "N = 4097 exceeds cap of 4096 points"),
])
def test_a_lattice_over_the_point_cap_is_refused_without_shell_fields(lattice, message):
    # used to pass validation and fail only once the run had started
    with pytest.raises(DimensionCapError) as info:
        validate_config(json.dumps(dict(QUANTUM, lattice=lattice)))
    assert str(info.value) == message


def test_a_quantum_trace_is_capped_by_its_cells():
    # N = 1024 has 1029 columns: 9718 rows are 9,999,822 cells, 9719 rows 10,000,851
    raw = dict(QUANTUM, lattice={"N": 1024, "delta_k": 0.05})
    cfg = validate_config(json.dumps(dict(raw, time_grid={"t_max": 1.0, "steps": 9717})))
    assert cfg.time_grid.steps == 9717
    with pytest.raises(DimensionCapError) as info:
        validate_config(json.dumps(dict(raw, time_grid={"t_max": 1.0, "steps": 9718})))
    assert str(info.value) == ("time_grid.steps = 9718 gives a trace of 10000851 cells, "
                               f"over the cap of {MAX_TRACE_CELLS}")


def test_the_largest_cubic_lattice_keeps_the_full_step_cap():
    # validation only: this trace holds about 0.7 GB, so it is never run here
    raw = dict(QUANTUM, lattice={"M": 7, "delta_k": 1.0},
               time_grid={"t_max": 1.0, "steps": MAX_STEPS})
    cfg = validate_config(json.dumps(raw))
    assert cfg.time_grid.steps == MAX_STEPS
    assert (MAX_STEPS + 1) * (5 + quantum_basis(cfg.lattice).n_shells) == 9_300_093
    # from M = 8 on the trace cells cap the steps: M = 10 (179 shells) keeps 54346
    for m, steps in ((8, 82643), (10, 54346)):
        raw = dict(raw, lattice={"M": m, "delta_k": 1.0})
        ok = validate_config(json.dumps(dict(raw, time_grid={"t_max": 1.0, "steps": steps})))
        assert ok.time_grid.steps == steps
        with pytest.raises(DimensionCapError, match="over the cap of 10000000"):
            validate_config(json.dumps(dict(raw, time_grid={"t_max": 1.0, "steps": steps + 1})))
