"""Strict JSON experiment configuration: the one place a config is judged.

The schema is closed: unknown fields are errors, and every problem is
reported with its field path (``potential.mu``), so a typo in a physics
parameter fails loudly instead of silently running the wrong experiment.
Validation collects all errors before raising, so a bad config is fixed
in one round trip.  Once the fields parse, the size caps are checked by
what the run will hold (a classical grid over ``MAX_GRID_CELLS`` cells, a
quantum basis over its lattice's point cap (``basis.MAX_CUBIC_POINTS``,
``basis.MAX_LINE_POINTS``), more than ``MAX_STEPS`` time
steps or a quantum trace over ``MAX_TRACE_CELLS`` CSV cells raises
DimensionCapError), then the scales the run derives from finite inputs
must be finite floats and the shell energies distinct
(``_check_scales``), then the cross-field rules
run: ``initial_state.shell``, ``shells`` and ``mu`` must fit the
lattice's shells, a classical start row and kick must stay on the p
grid, its start density must be a float of unit mass, and the output
names must be two distinct plain file names.
``harness.run`` trusts the ExperimentConfig returned here and checks
none of this again.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import koopman, states
from ._record import record
from .basis import MomentumBasis, build_basis, build_basis_1d
from .errors import ConfigError, DimensionCapError, StateValidationError

# A classical run holds about four densities at once (the two anchors, the
# last row's state and the one being built), each only its support window:
# nq x w float64 cells, w the p columns the kick spreads a row over.  Peak RSS
# measured, of which 28 MB is Python with numpy and lelab: 33 MB at 1024^2 and
# 40 MB at 2048^2 for a 0.3 kick (w about n_p / 10), 121 MB at 2048^2 for a 3.0
# kick that spreads a row over most of the grid.  Whole-grid windows take
# 32 B per cell, so this cap of 2048^2 cells bounds a run near 0.16 GB.
MAX_GRID_CELLS = 1 << 22
# Each step is one CSV row.  A run streams its rows to the CSV and keeps none,
# so this cap bounds only the file: (steps + 1) rows of the QUANTUM_COLUMNS,
# S_E_<energy> standing for n_shells of them, cells of at most 25 B, 0.25 GB.
# Line N = 1024 at 9698 steps, at the cell cap, peaks at 83 MB, as at 4 steps
# (148 MB when a run kept its rows).
MAX_STEPS = 100_000
MAX_TRACE_CELLS = 10_000_000
# A trace's CSV columns in order.  Each quantum column is written from the
# reduction.TraceRow field it maps to, shell_entropies giving the S_E_<energy>
# columns, one per shell; a classical row is (t, S_classical, mass).
QUANTUM_COLUMNS = {"t": "t", "S_eff": "effective_entropy", "S_global": "global_entropy",
                   "tr_rho2": "purity", "effectively_pure": "effectively_pure",
                   "S_E_<energy>": "shell_entropies", "P0": "alpha0_purity",
                   "S_cg": "coarse_entropy"}
CLASSICAL_COLUMNS = ("t", "S_classical", "mass")


@record(by_value=True)
class CubicLattice:
    """Cubic momentum lattice {-M..M}^3 with spacing delta_k."""

    extent: int
    delta_k: float


@record(by_value=True)
class LineLattice:
    """1D lattice n = 1..N (all squared norms distinct)."""

    n_points: int
    delta_k: float


ClassicalGrid = koopman.PhaseSpaceGrid


def quantum_basis(lattice: CubicLattice | LineLattice) -> MomentumBasis:
    """The momentum basis of a quantum lattice; DimensionCapError over the cap."""
    if isinstance(lattice, CubicLattice):
        return build_basis(lattice.extent, lattice.delta_k)
    return build_basis_1d(lattice.n_points, lattice.delta_k)


@record(by_value=True)
class YukawaConfig:
    coupling: float
    screening: float


@record(by_value=True)
class KickConfig:
    strength: float
    shape: str
    time: float


@record(by_value=True)
class InitialStateConfig:
    kind: str
    seed: int | None = None
    shell: int | None = None
    shells: tuple[int, ...] | None = None
    mu: tuple[tuple[float, ...], ...] | None = None
    p0: float | None = None


@record(by_value=True)
class TimeGridConfig:
    t_max: float
    steps: int

    def times(self) -> np.ndarray:
        """steps + 1 sample times from 0 to t_max inclusive."""
        return np.linspace(0.0, self.t_max, self.steps + 1)


@record(by_value=True)
class OutputsConfig:
    csv: str = "trace.csv"
    summary: str = "summary.json"


@record(by_value=True, hide=("echo",))
class ExperimentConfig:
    mode: str
    lattice: CubicLattice | LineLattice | ClassicalGrid
    potential: YukawaConfig | KickConfig
    initial_state: InitialStateConfig
    time_grid: TimeGridConfig
    outputs: OutputsConfig
    echo: dict


def _is_number(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Field type -> (accepts the raw JSON value, what it expected).
_TYPES = {
    float: (_is_number, "expected a finite number"),
    int: (_is_int, "expected an integer"),
    str: (lambda v: isinstance(v, str) and v != "", "expected a non-empty string"),
}


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def error(self, path: str, message: str):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise ConfigError(self.errors)

    def object(self, raw: dict, key: str) -> dict | None:
        if key not in raw:
            self.error(key, "required field is missing")
            return None
        v = raw[key]
        if not isinstance(v, dict):
            self.error(key, f"expected an object, got {type(v).__name__}")
            return None
        return dict(v)

    def field(self, obj: dict, section: str, key: str, kind, *, required=True, minimum=None,
              exclusive_minimum=None, choices=None):
        """Pop ``obj[key]`` as ``kind``, a type of ``_TYPES`` or a reader
        ``kind(value, path, collector)``, or record why it cannot be read and return None."""
        path = f"{section}.{key}" if section else key
        if key not in obj:
            if required:
                self.error(path, "required field is missing")
            return None
        v = obj.pop(key)
        if kind not in _TYPES:
            return kind(v, path, self)
        accepts, expected = _TYPES[kind]
        if not accepts(v):
            self.error(path, expected)
        elif minimum is not None and v < minimum:
            self.error(path, f"must be >= {minimum}, got {v}")
        elif exclusive_minimum is not None and v <= exclusive_minimum:
            self.error(path, f"must be > {exclusive_minimum}, got {v}")
        elif choices is not None and v not in choices:
            self.error(path, f"must be one of {list(choices)}, got {v!r}")
        else:
            return kind(v)
        return None

    def fields(self, obj: dict, section: str, table) -> dict:
        """Pop the fields of ``table`` in order, then refuse the keys left; key -> value."""
        values = {key: self.field(obj, section, key, kind, **kw) for key, kind, kw in table}
        for key in sorted(obj):
            self.error(f"{section}.{key}" if section else key, "unknown field")
        return values


def _shell_list(v, path: str, chk: _Collector):
    if not isinstance(v, list) or len(v) < 1 or not all(_is_int(x) and x >= 0 for x in v):
        chk.error(path, "expected a list of shell indices >= 0")
    elif len(set(v)) != len(v):
        chk.error(path, "shell indices must be distinct")
    else:
        return tuple(int(x) for x in v)
    return None


def _mu_matrix(value, path: str, chk: _Collector):
    if not isinstance(value, list) or not value:
        chk.error(path, "expected a non-empty square matrix (list of rows)")
        return None
    n = len(value)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n or not all(map(_is_number, row)):
            chk.error(f"{path}[{i}]", f"expected a row of {n} finite numbers")
            return None
    mu = tuple(tuple(map(float, row)) for row in value)
    try:
        states.density_factor(np.array(mu), "matrix")
    except StateValidationError as err:
        chk.error(path, str(err))
        return None
    return mu


def _file_name(v, path: str, chk: _Collector):
    """A non-empty string, kept when it is not a plain file name for the distinct-names rule."""
    accepts, expected = _TYPES[str]
    if not accepts(v):
        chk.error(path, expected)
        return None
    if v in (".", "..") or any(c in v for c in "/\\\0"):
        chk.error(path, f"must be a plain file name, got {v!r}")
    return v


# Each record's fields, in its field order: (JSON key, type, _Collector.field
# keywords).  A lattice variant is picked by a key of its own (not delta_k).
_POSITIVE = {"exclusive_minimum": 0.0}
_DELTA_K = ("delta_k", float, _POSITIVE)
_LATTICES = {
    CubicLattice: (("M", int, {"minimum": 0}), _DELTA_K),
    LineLattice: (("N", int, {"minimum": 1}), _DELTA_K),
    ClassicalGrid: (("nq", int, {"minimum": 1}), ("np", int, {"minimum": 2}),
                    ("dq", float, _POSITIVE), ("dp", float, _POSITIVE)),
}
_POTENTIALS = {
    YukawaConfig: (("A", float, {"minimum": 0.0}), ("mu", float, _POSITIVE)),
    KickConfig: (("kick_strength", float, {}),
                 ("kick_shape", str, {"choices": koopman.KICK_GRADIENTS}),
                 ("kick_time", float, {"required": False, "minimum": 0.0})),
}
_SEED = ("seed", int, {"minimum": 0})
# Initial-state kind -> (the mode it belongs to, its fields).
_STATE_KINDS = {
    "pure-random": ("quantum", (_SEED,)),
    "effectively-pure-mixed": ("quantum", (_SEED, ("shells", _shell_list, {"required": False}),
                                           ("mu", _mu_matrix, {"required": False}))),
    "shell-mixed": ("quantum", (("shell", int, {"minimum": 0}),)),
    "single-p-row": ("classical", (("p0", float, {}),)),
}
_TIME_GRID = (("t_max", float, _POSITIVE), ("steps", int, {"minimum": 1}))
_OUTPUTS = (("csv", _file_name, {"required": False}), ("summary", _file_name, {"required": False}))


def _build(cls, values: dict):
    """``cls`` of the values in field order, or None when one did not read."""
    return None if None in values.values() else cls(*values.values())


def _parse_lattice(raw: dict, mode: str | None, chk: _Collector):
    obj = chk.object(raw, "lattice")
    if obj is None:
        return None
    cls = next((c for c, table in _LATTICES.items()
                if any(key in obj for key, _, _ in table if key != "delta_k")), None)
    if cls is None:
        chk.error("lattice", "must contain M (cubic), N (line) or nq/np/dq/dp (classical)")
        return None
    values = chk.fields(obj, "lattice", _LATTICES[cls])
    if cls is not ClassicalGrid:
        if mode == "classical":
            chk.error("lattice", "classical mode needs a grid {nq, np, dq, dp}")
    elif values["np"] is not None and values["np"] % 2 != 0:
        chk.error("lattice.np", "must be even (the p grid straddles zero)")
        return None
    elif mode == "quantum":
        chk.error("lattice", "quantum mode needs {M, delta_k} or {N, delta_k}")
    return _build(cls, values)


def _parse_potential(raw: dict, mode: str | None, t_max: float | None, chk: _Collector):
    obj = chk.object(raw, "potential")
    if obj is None:
        return None
    kick = mode == "classical" or (mode is None and "kick_strength" in obj)
    values = chk.fields(obj, "potential", _POTENTIALS[KickConfig if kick else YukawaConfig])
    if kick and values["kick_time"] is None:
        values["kick_time"] = (t_max or 0.0) / 2.0
    return _build(KickConfig if kick else YukawaConfig, values)


def _parse_initial_state(raw: dict, mode: str | None, chk: _Collector):
    obj = chk.object(raw, "initial_state")
    if obj is None:
        return None
    kind = chk.field(obj, "initial_state", "kind", str, choices=_STATE_KINDS)
    kind_mode, table = _STATE_KINDS.get(kind, (mode, ()))
    if mode is not None and kind_mode != mode:
        chk.error("initial_state.kind", f"{kind!r} is not a {mode} state kind")
    values = chk.fields(obj, "initial_state", table)
    shells, mu = values.get("shells"), values.get("mu")
    if mu is not None and shells is not None and len(mu) != len(shells):
        chk.error("initial_state.mu", f"size {len(mu)} does not match {len(shells)} shells")
    return None if kind is None else InitialStateConfig(kind=kind, **values)


def _parse_outputs(raw: dict, chk: _Collector):
    """Two distinct plain file names, written inside the run's output directory."""
    obj = chk.object(raw, "outputs") if "outputs" in raw else None  # None: the default names
    values = chk.fields(obj or {}, "outputs", _OUTPUTS)
    outputs = OutputsConfig(**{key: name for key, name in values.items() if name is not None})
    if outputs.csv == outputs.summary:
        chk.error("outputs.summary", f"must differ from outputs.csv, both are {outputs.csv!r}")
    return outputs


def _check_caps(lattice, time_grid: TimeGridConfig) -> MomentumBasis | None:
    """Refuse, with DimensionCapError, a classical grid, a quantum basis, a time
    grid or a quantum trace over its cap; returns the quantum basis, whose
    energies may overflow (``_check_scales`` refuses that next)."""
    classical = isinstance(lattice, ClassicalGrid)
    if classical and lattice.nq * lattice.n_p > MAX_GRID_CELLS:
        raise DimensionCapError(f"classical grid nq * np = {lattice.nq * lattice.n_p} "
                                f"exceeds cap of {MAX_GRID_CELLS} cells")
    with np.errstate(over="ignore", invalid="ignore"):
        basis = None if classical else quantum_basis(lattice)
    if time_grid.steps > MAX_STEPS:
        raise DimensionCapError(f"time_grid.steps = {time_grid.steps} exceeds cap of {MAX_STEPS}")
    cells = 0 if classical else (time_grid.steps + 1) * (len(QUANTUM_COLUMNS) - 1 + basis.n_shells)
    if cells > MAX_TRACE_CELLS:
        raise DimensionCapError(f"time_grid.steps = {time_grid.steps} gives a trace of {cells} "
                                f"cells, over the cap of {MAX_TRACE_CELLS}")
    return basis


def _check_scales(lattice, basis: MomentumBasis | None, potential, t_max: float,
                  chk: _Collector):
    """Refuse finite inputs whose derived scales overflow, naming the field of
    the first such scale; a quantum run's size n and largest energy are read
    from ``basis``.  The scales are Python float products, which overflow to
    inf: ``**`` would raise OverflowError and numpy would warn.  Then refuse
    a delta_k whose shell energies |n|^2 delta_k^2 underflow to equal floats.
    """
    if basis is None:
        scales = [("time_grid.t_max", "the largest free-flow shift 2 (np dp / 2) t_max / dq",
                   2 * (lattice.n_p * lattice.dp / 2) * t_max / lattice.dq)]
    else:
        n = basis.size
        mu = potential.screening
        mu3 = mu * mu * mu
        v_max = 4 * math.pi * potential.coupling / mu3 if mu3 > 0 else math.inf
        e_max = float(basis.shells.energies[-1])  # max|n|^2 delta_k^2, inf if it overflowed
        bound = e_max + n * v_max  # bounds ||H|| and ||v||
        scales = [
            ("potential.mu", "the largest Yukawa element 4 pi A / mu^3", v_max),
            # |k - k'|^2 <= 4 max|k|^2 bounds every transfer build_hamiltonian forms
            ("lattice.delta_k", "the largest squared momentum transfer, at most "
             "4 max|n|^2 delta_k^2,", 4 * e_max),
            ("potential.mu", "the Yukawa denominator mu (|k|^2 + mu^2), at most "
             "mu (4 max|n|^2 delta_k^2 + mu^2),", mu * (4 * e_max + mu * mu)),
            # alpha0_flow's ||H B||^2 and kappa = ||[v, rho0]||_F^2 <= 4 ||v||^2, tr rho0 = 1
            ("lattice.delta_k" if e_max >= n * v_max else "potential.mu",
             "the squared bound 4 (max|n|^2 delta_k^2 + n 4 pi A / mu^3)^2", 4 * bound * bound),
            ("time_grid.t_max", "the bound t_max (max|n|^2 delta_k^2 + n 4 pi A / mu^3) "
             "on |E| t", t_max * bound),
        ]
    for path, what, value in scales:
        if not math.isfinite(value):
            chk.error(path, f"{what} overflows")
            return
    if basis is not None and not (np.diff(basis.shells.energies) > 0).all():
        chk.error("lattice.delta_k", "the shell energies |n|^2 delta_k^2 underflow: "
                  "they are not distinct floats")


def _check_basis_fit(basis: MomentumBasis, st: InitialStateConfig, chk: _Collector):
    """Refuse a shell, shells or a mu that the lattice's shells cannot hold."""
    n_shells = basis.n_shells
    if st.shell is not None and st.shell >= n_shells:
        chk.error("initial_state.shell", f"basis has only {n_shells} shells")
    if st.shells is not None and max(st.shells) >= n_shells:
        chk.error("initial_state.shells", f"basis has only {n_shells} shells")
    if st.mu is not None and st.shells is None and len(st.mu) != n_shells:
        chk.error("initial_state.mu",
                  f"size {len(st.mu)} does not match the basis's {n_shells} shells")


def _check_classical_fit(grid: ClassicalGrid, potential, initial_state, t_max: float,
                         chk: _Collector):
    """Refuse classical runs whose mass would start or be kicked off the p grid,
    or whose start density, built here by ``koopman.single_p_row_density``,
    is not a float of unit mass.

    The free flow keeps every p row; the kick, applied when
    ``kick_time < t_max``, moves the start row by up to strength * max|V'|.
    """
    edge = grid.n_p * grid.dp / 2
    p0 = initial_state.p0
    if abs(p0) > edge:
        chk.error("initial_state.p0", f"{p0} lies outside the p grid [{-edge:g}, {edge:g}]")
        return
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            koopman.single_p_row_density(grid, p0)
    except (ZeroDivisionError, StateValidationError) as err:
        reason = "nq dq dp underflows to 0" if isinstance(err, ZeroDivisionError) else err
        chk.error("lattice.dp",
                  f"the start density 1 / (nq dq dp) is not a float of unit mass: {reason}")
        return
    if potential.strength == 0.0 or t_max <= potential.time:
        return
    row = koopman.nearest_p_row(grid, p0)
    grad_v = koopman.kick_gradient(potential.shape)
    if not koopman.kick_keeps_row_on_grid(grid, row, grad_v, potential.strength):
        chk.error(
            "potential.kick_strength",
            f"a kick of {potential.strength} carries mass from p = {grid.p[row]:g} past the "
            f"p grid [{-edge:g}, {edge:g}]; widen lattice.np or lattice.dp, or weaken the kick",
        )


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config, collecting every field error.

    Raises ConfigError whose ``errors`` lists (field path, message) pairs,
    or DimensionCapError when a classical grid, a quantum basis, the time
    grid or a quantum trace is over its cap (checked once every field
    parses).
    """
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([("", f"invalid JSON: {exc}")]) from exc
        except RecursionError:
            raise ConfigError([("", "invalid JSON: nested too deeply to parse")]) from None
    if not isinstance(raw, dict):
        raise ConfigError([("", f"top level must be an object, got {type(raw).__name__}")])

    chk = _Collector()
    known = {"mode", "lattice", "potential", "initial_state", "time_grid", "outputs"}
    for key in sorted(set(raw) - known):
        chk.error(key, "unknown field")

    work = {k: v for k, v in raw.items() if k in known}
    mode = chk.field(work, "", "mode", str, choices=("quantum", "classical"))
    obj = chk.object(work, "time_grid")
    time_grid = None if obj is None else _build(TimeGridConfig,
                                                chk.fields(obj, "time_grid", _TIME_GRID))
    lattice = _parse_lattice(work, mode, chk)
    potential = _parse_potential(work, mode, time_grid.t_max if time_grid else None, chk)
    initial_state = _parse_initial_state(work, mode, chk)
    outputs = _parse_outputs(work, chk)
    chk.raise_if_any()
    basis = _check_caps(lattice, time_grid)
    _check_scales(lattice, basis, potential, time_grid.t_max, chk)
    chk.raise_if_any()
    if mode == "classical":
        _check_classical_fit(lattice, potential, initial_state, time_grid.t_max, chk)
    else:
        _check_basis_fit(basis, initial_state, chk)
    chk.raise_if_any()

    return ExperimentConfig(mode, lattice, potential, initial_state, time_grid, outputs, raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())
