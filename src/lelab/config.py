"""Strict JSON experiment configuration.

The schema is closed: unknown fields are errors, and every problem is
reported with its field path (``potential.mu``), so a typo in a physics
parameter fails loudly instead of silently running the wrong experiment.
Validation collects all errors before raising, so a bad config is fixed
in one round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import koopman, states
from .errors import ConfigError, StateValidationError

QUANTUM_STATE_KINDS = ("pure-random", "effectively-pure-mixed", "shell-mixed")
CLASSICAL_STATE_KINDS = ("single-p-row",)
KICK_SHAPES = ("cos", "sin")


@dataclass(frozen=True)
class CubicLattice:
    """Cubic momentum lattice {-M..M}^3 with spacing delta_k."""

    extent: int
    delta_k: float


@dataclass(frozen=True)
class LineLattice:
    """1D lattice n = 1..N (all squared norms distinct)."""

    n_points: int
    delta_k: float


@dataclass(frozen=True)
class ClassicalGrid:
    nq: int
    n_p: int
    dq: float
    dp: float


@dataclass(frozen=True)
class YukawaConfig:
    coupling: float
    screening: float


@dataclass(frozen=True)
class KickConfig:
    strength: float
    shape: str
    time: float


@dataclass(frozen=True)
class InitialStateConfig:
    kind: str
    seed: int | None = None
    shell: int | None = None
    shells: tuple[int, ...] | None = None
    mu: tuple[tuple[float, ...], ...] | None = None
    p0: float | None = None


@dataclass(frozen=True)
class TimeGridConfig:
    t_max: float
    steps: int

    def times(self) -> np.ndarray:
        """steps + 1 sample times from 0 to t_max inclusive."""
        return np.linspace(0.0, self.t_max, self.steps + 1)


@dataclass(frozen=True)
class OutputsConfig:
    csv: str = "trace.csv"
    summary: str = "summary.json"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    lattice: CubicLattice | LineLattice | ClassicalGrid
    potential: YukawaConfig | KickConfig
    initial_state: InitialStateConfig
    time_grid: TimeGridConfig
    outputs: OutputsConfig
    echo: dict = field(repr=False)


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def error(self, path: str, message: str):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise ConfigError(self.errors)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _object(raw: dict, key: str, chk: _Collector) -> dict | None:
    if key not in raw:
        chk.error(key, "required field is missing")
        return None
    v = raw[key]
    if not isinstance(v, dict):
        chk.error(key, f"expected an object, got {type(v).__name__}")
        return None
    return dict(v)


def _number(obj: dict, key: str, path: str, chk: _Collector, *, required=True, minimum=None, exclusive_minimum=None):
    if key not in obj:
        if required:
            chk.error(path, "required field is missing")
        return None
    v = obj.pop(key)
    if not _is_number(v):
        chk.error(path, "expected a finite number")
        return None
    if minimum is not None and v < minimum:
        chk.error(path, f"must be >= {minimum}, got {v}")
        return None
    if exclusive_minimum is not None and v <= exclusive_minimum:
        chk.error(path, f"must be > {exclusive_minimum}, got {v}")
        return None
    return float(v)


def _integer(obj: dict, key: str, path: str, chk: _Collector, *, required=True, minimum=None):
    if key not in obj:
        if required:
            chk.error(path, "required field is missing")
        return None
    v = obj.pop(key)
    if not _is_int(v):
        chk.error(path, "expected an integer")
        return None
    if minimum is not None and v < minimum:
        chk.error(path, f"must be >= {minimum}, got {v}")
        return None
    return int(v)


def _string(obj: dict, key: str, path: str, chk: _Collector, *, required=True, choices=None, default=None):
    if key not in obj:
        if required:
            chk.error(path, "required field is missing")
        return default
    v = obj.pop(key)
    if not isinstance(v, str) or not v:
        chk.error(path, "expected a non-empty string")
        return default
    if choices is not None and v not in choices:
        chk.error(path, f"must be one of {list(choices)}, got {v!r}")
        return default
    return v


def _reject_unknown(obj: dict, path: str, chk: _Collector):
    for key in sorted(obj):
        chk.error(f"{path}.{key}" if path else key, "unknown field")


def _parse_lattice(raw: dict, mode: str | None, chk: _Collector):
    obj = _object(raw, "lattice", chk)
    if obj is None:
        return None
    if "M" in obj:
        extent = _integer(obj, "M", "lattice.M", chk, minimum=0)
        delta_k = _number(obj, "delta_k", "lattice.delta_k", chk, exclusive_minimum=0.0)
        _reject_unknown(obj, "lattice", chk)
        if mode == "classical":
            chk.error("lattice", "classical mode needs a grid {nq, np, dq, dp}")
        if extent is None or delta_k is None:
            return None
        return CubicLattice(extent=extent, delta_k=delta_k)
    if "N" in obj:
        n_points = _integer(obj, "N", "lattice.N", chk, minimum=1)
        delta_k = _number(obj, "delta_k", "lattice.delta_k", chk, exclusive_minimum=0.0)
        _reject_unknown(obj, "lattice", chk)
        if mode == "classical":
            chk.error("lattice", "classical mode needs a grid {nq, np, dq, dp}")
        if n_points is None or delta_k is None:
            return None
        return LineLattice(n_points=n_points, delta_k=delta_k)
    if any(k in obj for k in ("nq", "np", "dq", "dp")):
        nq = _integer(obj, "nq", "lattice.nq", chk, minimum=1)
        n_p = _integer(obj, "np", "lattice.np", chk, minimum=2)
        dq = _number(obj, "dq", "lattice.dq", chk, exclusive_minimum=0.0)
        dp = _number(obj, "dp", "lattice.dp", chk, exclusive_minimum=0.0)
        _reject_unknown(obj, "lattice", chk)
        if n_p is not None and n_p % 2 != 0:
            chk.error("lattice.np", "must be even (the p grid straddles zero)")
            return None
        if mode == "quantum":
            chk.error("lattice", "quantum mode needs {M, delta_k} or {N, delta_k}")
        if None in (nq, n_p, dq, dp):
            return None
        return ClassicalGrid(nq=nq, n_p=n_p, dq=dq, dp=dp)
    chk.error("lattice", "must contain M (cubic), N (line) or nq/np/dq/dp (classical)")
    return None


def _parse_potential(raw: dict, mode: str | None, t_max: float | None, chk: _Collector):
    obj = _object(raw, "potential", chk)
    if obj is None:
        return None
    if mode == "classical" or (mode is None and "kick_strength" in obj):
        strength = _number(obj, "kick_strength", "potential.kick_strength", chk)
        shape = _string(obj, "kick_shape", "potential.kick_shape", chk, choices=KICK_SHAPES)
        time = _number(obj, "kick_time", "potential.kick_time", chk, required=False, minimum=0.0)
        _reject_unknown(obj, "potential", chk)
        if strength is None or shape is None:
            return None
        if time is None:
            time = (t_max or 0.0) / 2.0
        return KickConfig(strength=strength, shape=shape, time=time)
    coupling = _number(obj, "A", "potential.A", chk, minimum=0.0)
    screening = _number(obj, "mu", "potential.mu", chk, exclusive_minimum=0.0)
    _reject_unknown(obj, "potential", chk)
    if coupling is None or screening is None:
        return None
    return YukawaConfig(coupling=coupling, screening=screening)


def _parse_mu_matrix(value, path: str, chk: _Collector):
    if not isinstance(value, list) or not value:
        chk.error(path, "expected a non-empty square matrix (list of rows)")
        return None
    n = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n or not all(_is_number(x) for x in row):
            chk.error(f"{path}[{i}]", f"expected a row of {n} finite numbers")
            return None
        rows.append(tuple(float(x) for x in row))
    try:
        states.validated_spectrum(np.array(rows), "matrix")
    except StateValidationError as err:
        chk.error(path, str(err))
        return None
    return tuple(rows)


def _parse_initial_state(raw: dict, mode: str | None, chk: _Collector):
    obj = _object(raw, "initial_state", chk)
    if obj is None:
        return None
    all_kinds = QUANTUM_STATE_KINDS + CLASSICAL_STATE_KINDS
    kind = _string(obj, "kind", "initial_state.kind", chk, choices=all_kinds)
    if kind is None:
        _reject_unknown(obj, "initial_state", chk)
        return None
    if mode == "quantum" and kind not in QUANTUM_STATE_KINDS:
        chk.error("initial_state.kind", f"{kind!r} is not a quantum state kind")
    if mode == "classical" and kind not in CLASSICAL_STATE_KINDS:
        chk.error("initial_state.kind", f"{kind!r} is not a classical state kind")

    seed = shell = shells = mu = p0 = None
    if kind == "pure-random":
        seed = _integer(obj, "seed", "initial_state.seed", chk, minimum=0)
    elif kind == "effectively-pure-mixed":
        seed = _integer(obj, "seed", "initial_state.seed", chk, minimum=0)
        if "shells" in obj:
            v = obj.pop("shells")
            if (not isinstance(v, list) or len(v) < 1
                    or not all(_is_int(x) and x >= 0 for x in v)):
                chk.error("initial_state.shells", "expected a list of shell indices >= 0")
            elif len(set(v)) != len(v):
                chk.error("initial_state.shells", "shell indices must be distinct")
            else:
                shells = tuple(int(x) for x in v)
        if "mu" in obj:
            mu = _parse_mu_matrix(obj.pop("mu"), "initial_state.mu", chk)
            if mu is not None and shells is not None and len(mu) != len(shells):
                chk.error("initial_state.mu", f"size {len(mu)} does not match {len(shells)} shells")
    elif kind == "shell-mixed":
        shell = _integer(obj, "shell", "initial_state.shell", chk, minimum=0)
    elif kind == "single-p-row":
        p0 = _number(obj, "p0", "initial_state.p0", chk)
    _reject_unknown(obj, "initial_state", chk)
    return InitialStateConfig(kind=kind, seed=seed, shell=shell, shells=shells, mu=mu, p0=p0)


def _parse_time_grid(raw: dict, chk: _Collector):
    obj = _object(raw, "time_grid", chk)
    if obj is None:
        return None
    t_max = _number(obj, "t_max", "time_grid.t_max", chk, exclusive_minimum=0.0)
    steps = _integer(obj, "steps", "time_grid.steps", chk, minimum=1)
    _reject_unknown(obj, "time_grid", chk)
    if t_max is None or steps is None:
        return None
    return TimeGridConfig(t_max=t_max, steps=steps)


def _parse_outputs(raw: dict, chk: _Collector):
    if "outputs" not in raw:
        return OutputsConfig()
    obj = _object(raw, "outputs", chk)
    if obj is None:
        return OutputsConfig()
    csv = _string(obj, "csv", "outputs.csv", chk, required=False, default="trace.csv")
    summary = _string(obj, "summary", "outputs.summary", chk, required=False, default="summary.json")
    _reject_unknown(obj, "outputs", chk)
    return OutputsConfig(csv=csv, summary=summary)


def _check_classical_fit(lattice, potential, initial_state, t_max: float, chk: _Collector):
    """Refuse classical runs whose mass would start or be kicked off the p grid.

    The free flow keeps every p row; the kick, applied when
    ``kick_time < t_max``, moves the start row by up to strength * max|V'|.
    """
    grid = koopman.PhaseSpaceGrid(nq=lattice.nq, n_p=lattice.n_p, dq=lattice.dq, dp=lattice.dp)
    edge = grid.n_p * grid.dp / 2
    p0 = initial_state.p0
    if abs(p0) > edge:
        chk.error("initial_state.p0", f"{p0} lies outside the p grid [{-edge:g}, {edge:g}]")
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

    Raises ConfigError whose ``errors`` lists (field path, message) pairs.
    """
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([("", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("", f"top level must be an object, got {type(raw).__name__}")])

    chk = _Collector()
    known = {"mode", "lattice", "potential", "initial_state", "time_grid", "outputs"}
    for key in sorted(set(raw) - known):
        chk.error(key, "unknown field")

    work = {k: v for k, v in raw.items() if k in known}
    if "mode" not in work:
        chk.error("mode", "required field is missing")
        mode = None
    else:
        mode = _string(work, "mode", "mode", chk, choices=("quantum", "classical"))

    time_grid = _parse_time_grid(work, chk)
    lattice = _parse_lattice(work, mode, chk)
    potential = _parse_potential(work, mode, time_grid.t_max if time_grid else None, chk)
    initial_state = _parse_initial_state(work, mode, chk)
    outputs = _parse_outputs(work, chk)
    chk.raise_if_any()
    if mode == "classical":
        _check_classical_fit(lattice, potential, initial_state, time_grid.t_max, chk)
        chk.raise_if_any()

    return ExperimentConfig(
        mode=mode,
        lattice=lattice,
        potential=potential,
        initial_state=initial_state,
        time_grid=time_grid,
        outputs=outputs,
        echo=raw,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())
