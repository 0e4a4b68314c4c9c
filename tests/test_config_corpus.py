"""Golden corpus of config outcomes.

The cases are generated here: four base configs, every field of every
section deleted or set to each of a fixed list of bad values, an unknown
key in each section, swapped and invalid modes, and the cross-field
cases of ``test_config.py``.  ``tests/data/config_errors.json`` holds
the outcome of each case before shell, shells and mu were checked
against the lattice, the output names had to be distinct plain file
names and classical grids and time grids were capped: the
``ConfigError`` list, the ``DimensionCapError`` message, or the accepted
config.  Every case must keep that outcome, except the ones in
``NEW_REFUSALS``, which the old validation accepted and whose run then
failed, wrote elsewhere or would have exhausted memory.  The lattice
cases at and over the point caps (cubic M = 8 to 11, line N = 4096 and
4097) came with the per-lattice caps.

``python tests/test_config_corpus.py [OUT]`` writes the outcomes of the
current code to OUT (default: the data file), keeping the stored outcome
of each ``NEW_REFUSALS`` case; rewrite the data file only for an
intended change of outcome.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

from lelab import cli, config
from lelab.errors import ConfigError, DimensionCapError

GOLDEN = Path(__file__).parent / "data" / "config_errors.json"

BASES = {
    "cubic-shells": {
        "mode": "quantum",
        "lattice": {"M": 1, "delta_k": 1.0},
        "potential": {"A": 0.2, "mu": 1.0},
        "initial_state": {"kind": "effectively-pure-mixed", "seed": 7, "shells": [0, 2],
                          "mu": [[0.6, 0.1], [0.1, 0.4]]},
        "time_grid": {"t_max": 5.0, "steps": 50},
        "outputs": {"csv": "run.csv", "summary": "run.json"},
    },
    "line-random": {
        "mode": "quantum",
        "lattice": {"N": 16, "delta_k": 1.0},
        "potential": {"A": 1.0, "mu": 1.0},
        "initial_state": {"kind": "pure-random", "seed": 3},
        "time_grid": {"t_max": 10.0, "steps": 40},
    },
    "cubic-shell-mixed": {
        "mode": "quantum",
        "lattice": {"M": 1, "delta_k": 1.0},
        "potential": {"A": 0.0, "mu": 1.0},
        "initial_state": {"kind": "shell-mixed", "shell": 1},
        "time_grid": {"t_max": 5.0, "steps": 25},
    },
    "classical-kick": {
        "mode": "classical",
        "lattice": {"nq": 64, "np": 64, "dq": 0.09817477042468103, "dp": 0.1},
        "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
        "initial_state": {"kind": "single-p-row", "p0": 1.0},
        "time_grid": {"t_max": 2.0, "steps": 20},
        "outputs": {"csv": "classical-kick.csv", "summary": "classical-kick.summary.json"},
    },
}

DELETE = object()
# json.dumps cannot write 1e400 (it overflows to inf when read), so it is
# spliced into the text in place of this string.
HUGE = "__1e400__"
VALUES = ("x", True, None, -1, 0, 1.5, -2.5, [], {}, [1, 2], HUGE)

STATE = {"kind": "effectively-pure-mixed", "seed": 1, "shells": [0, 1]}
EDGE_GRID = {"nq": 64, "np": 64, "dq": 0.09817477042468103, "dp": 0.1}


def _text(raw) -> str:
    return json.dumps(raw).replace(json.dumps(HUGE), "1e400")


def _label(value) -> str:
    return "<deleted>" if value is DELETE else "1e400" if value == HUGE else json.dumps(value)


def _with(raw: dict, path: tuple, value) -> dict:
    """A copy of ``raw`` with the field at ``path`` set to ``value`` or deleted."""
    raw = copy.deepcopy(raw)
    *parents, key = path
    target = raw
    for p in parents:
        target = target[p]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return raw


def _cross_cases() -> dict:
    """The cross-field cases of test_config.py, on the cubic and kick bases."""
    q, c = BASES["cubic-shells"], BASES["classical-kick"]
    state = ("initial_state",)
    mu_cases = {
        "mu-trace": [[0.5, 0.0], [0.0, 0.6]],
        "mu-asymmetric": [[0.5, 0.2], [0.0, 0.5]],
        "mu-not-psd": [[0.1, 0.45], [0.45, 0.9]],
        "mu-1x1": [[1.0]],
        "mu-hermitian-2e-12": [[0.5, 0.2 + 2e-12], [0.2, 0.5]],
        "mu-hermitian-5e-13": [[0.5, 0.2 + 5e-13], [0.2, 0.5]],
        "mu-trace-2e-10": [[0.5, 0.0], [0.0, 0.5 + 2e-10]],
        "mu-trace-5e-11": [[0.5, 0.0], [0.0, 0.5 + 5e-11]],
        "mu-eigenvalue-2e-10": [[1.0 + 2e-10, 0.0], [0.0, -2e-10]],
        "mu-eigenvalue-5e-11": [[1.0 + 5e-11, 0.0], [0.0, -5e-11]],
    }
    cases = {f"cross:{name}": _text(_with(q, state, dict(STATE, mu=mu)))
             for name, mu in mu_cases.items()}
    kick = c["potential"]
    cases.update({
        "cross:empty": "",
        "cross:invalid-json": "{not json",
        "cross:top-level-list": "[1, 2]",
        "cross:nan": _text(q).replace('"A": 0.2', '"A": NaN'),
        "cross:quantum-with-grid": _text(_with(q, ("lattice",), c["lattice"])),
        "cross:classical-with-cubic": _text(_with(c, ("lattice",), {"M": 1, "delta_k": 1.0})),
        "cross:quantum-with-p-row": _text(_with(q, state, {"kind": "single-p-row", "p0": 1.0})),
        "cross:classical-with-pure": _text(_with(c, state, {"kind": "pure-random", "seed": 0})),
        "cross:duplicate-shells": _text(_with(q, state, dict(STATE, shells=[1, 1]))),
        "cross:explicit-mu": _text(_with(q, state, dict(STATE, mu=[[0.5, 0.1], [0.1, 0.5]]))),
        "cross:pure-with-p0": _text(_with(q, state, {"kind": "pure-random", "seed": 1, "p0": 2.0})),
        "cross:odd-np": _text(_with(c, ("lattice", "np"), 31)),
        "cross:many-errors": _text(_with(_with(q, ("potential",), {"A": -1.0, "mu": -1.0}),
                                         ("time_grid", "steps"), 0)),
        "cross:kick-default-time": _text(_with(c, ("potential",),
                                               {"kick_strength": 0.3, "kick_shape": "cos"})),
    })
    for p0 in (3.05, 3.3, -10.0):
        for name, pot in (("kick", kick), ("weak-kick", dict(kick, kick_strength=0.1)),
                          ("late-kick", dict(kick, kick_time=2.0)),
                          ("no-kick", dict(kick, kick_strength=0.0))):
            raw = _with(c, ("potential",), pot)
            raw["lattice"] = dict(EDGE_GRID)
            raw["initial_state"] = {"kind": "single-p-row", "p0": p0}
            cases[f"cross:{name}-p0={p0}"] = _text(raw)
    # grids whose start density 1 / (nq dq dp) is not a float of unit mass
    for name, dq, dp in (("dq=dp=1e-200", 1e-200, 1e-200), ("dp=1e-310", 1.0, 1e-310),
                         ("dq=dp=1e200", 1e200, 1e200)):
        raw = _with(c, ("potential",), dict(kick, kick_strength=0.0))
        raw["lattice"] = {"nq": 4, "np": 4, "dq": dq, "dp": dp}
        raw["initial_state"] = {"kind": "single-p-row", "p0": 0.0}
        cases[f"cross:start-density-{name}"] = _text(raw)
    # a mu whose Yukawa denominator mu (|k|^2 + mu^2) overflows: through mu^3,
    # which 4 pi A / mu^3 read as 0, or through the largest transfer |k|^2
    cases["cross:mu-cube-overflow"] = _text(_with(q, ("potential", "mu"), 1e103))
    cases["cross:mu-transfer-overflow"] = _text(
        _with(_with(q, ("potential", "mu"), 1e10), ("lattice", "delta_k"), 1e150))
    # a delta_k whose shell energies |n|^2 delta_k^2 all underflow to 0.0
    for name, raw in (("cubic", q), ("line", BASES["line-random"])):
        cases[f"cross:delta_k-underflow-{name}"] = _text(_with(raw, ("lattice", "delta_k"), 1e-170))
    return cases


def _lattice_cases() -> dict:
    """Shells, a shell or a mu that the lattice cannot hold, and unusable output names."""
    q, s = BASES["cubic-shells"], BASES["cubic-shell-mixed"]
    no_shells = _with(q, ("initial_state", "shells"), DELETE)
    cases = {
        "lattice:shell-9": _with(s, ("initial_state", "shell"), 9),
        "lattice:shell-4": _with(s, ("initial_state", "shell"), 4),
        "lattice:shell-3": _with(s, ("initial_state", "shell"), 3),
        "lattice:shells-0-7": _with(q, ("initial_state", "shells"), [0, 7]),
        "lattice:shells-3-0": _with(q, ("initial_state", "shells"), [3, 0]),
        "lattice:mu-4x4-no-shells": _with(no_shells, ("initial_state", "mu"),
                                          [[0.25 * (i == j) for j in range(4)] for i in range(4)]),
    }
    cases["lattice:line-shells-0-16"] = _with(BASES["line-random"], ("initial_state",), dict(
        STATE, shells=[0, 16], mu=[[0.5, 0.0], [0.0, 0.5]]))
    for name in ("out/run.csv", "../run.csv", "/tmp/run.csv", "a\\b.csv", ".", "..", "run.json"):
        cases[f"outputs:csv={name}"] = _with(q, ("outputs", "csv"), name)
    cases["outputs:summary=sub/run.json"] = _with(q, ("outputs", "summary"), "sub/run.json")
    cases["outputs:csv=summary.json"] = _with(BASES["line-random"], ("outputs",),
                                              {"csv": "summary.json"})
    return {k: _text(v) for k, v in cases.items()}


def _cap_cases() -> dict:
    """Classical grids, time grids and lattices at and over their caps (2048^2
    cells, 100000 steps, cubic M = 10, line N = 4096)."""
    q, c = BASES["cubic-shells"], BASES["classical-kick"]

    def grid(nq, n_p):
        return _with(_with(c, ("lattice", "nq"), nq), ("lattice", "np"), n_p)

    cases = {
        "caps:grid-2048x2048": grid(2048, 2048),
        "caps:grid-2048x2050": grid(2048, 2050),
        "caps:grid-1x4194306": grid(1, 4194306),
        "caps:grid-100000x100000": grid(100000, 100000),
        "caps:steps-100000": _with(q, ("time_grid", "steps"), 100000),
        "caps:steps-100001": _with(q, ("time_grid", "steps"), 100001),
        "caps:steps-10**12": _with(q, ("time_grid", "steps"), 10**12),
        "caps:classical-steps-10**12": _with(c, ("time_grid", "steps"), 10**12),
        "caps:line-N=4096": _with(BASES["line-random"], ("lattice", "N"), 4096),
        "caps:line-N=4097": _with(BASES["line-random"], ("lattice", "N"), 4097),
    }
    for m in (8, 9, 10, 11):
        cases[f"caps:cubic-M={m}"] = _with(q, ("lattice", "M"), m)
    return {k: _text(v) for k, v in cases.items()}


def corpus() -> dict:
    """Case id -> config text."""
    cases = {}
    for base, raw in BASES.items():
        paths = [(key,) for key in raw]
        paths += [(key, sub) for key, sect in raw.items() if isinstance(sect, dict) for sub in sect]
        for path in paths:
            for value in (DELETE,) + VALUES:
                cases[f"{base}:{'.'.join(path)}={_label(value)}"] = _text(_with(raw, path, value))
        cases[f"{base}:bogus"] = _text(dict(raw, bogus=1))
        for key, sect in raw.items():
            if isinstance(sect, dict):
                cases[f"{base}:{key}.bogus"] = _text(_with(raw, (key, "bogus"), 1))
        swapped = "classical" if raw["mode"] == "quantum" else "quantum"
        cases[f"{base}:mode-swapped"] = _text(_with(raw, ("mode",), swapped))
        cases[f"{base}:mode-invalid"] = _text(_with(raw, ("mode",), "hybrid"))
    cases.update(_cross_cases())
    cases.update(_lattice_cases())
    cases.update(_cap_cases())
    return cases


# The name lelab.config binds each of its classes to (koopman's
# PhaseSpaceGrid is config.ClassicalGrid), so that _decode finds it.
CLASS_NAMES = {v: k for k, v in vars(config).items() if isinstance(v, type)}


def _encode(x):
    names = getattr(type(x), "_fields", None)  # a record's fields, in order
    if names is not None:
        return {"class": CLASS_NAMES[type(x)],
                "fields": {name: _encode(getattr(x, name)) for name in names}}
    if isinstance(x, tuple):
        return [_encode(v) for v in x]
    return x


def _decode(x):
    """Inverse of _encode, with classes looked up by name in lelab.config."""
    if isinstance(x, dict):
        cls = getattr(config, x["class"])
        return cls(**{k: v if k == "echo" else _decode(v) for k, v in x["fields"].items()})
    if isinstance(x, list):
        return tuple(_decode(v) for v in x)
    return x


def outcome(text: str) -> dict:
    try:
        cfg = config.validate_config(text)
    except ConfigError as err:
        return {"errors": [list(e) for e in err.errors]}
    except DimensionCapError as err:
        return {"cap": str(err)}
    return {"config": _encode(cfg)}


# Cases the old validation accepted and whose run then failed, wrote
# somewhere else or would have run out of memory, with the ConfigError
# list, or the DimensionCapError message, that now refuses them.
NEW_REFUSALS = {
    "lattice:shell-9": [("initial_state.shell", "basis has only 4 shells")],
    "lattice:shell-4": [("initial_state.shell", "basis has only 4 shells")],
    "lattice:shells-0-7": [("initial_state.shells", "basis has only 4 shells")],
    "lattice:line-shells-0-16": [("initial_state.shells", "basis has only 16 shells")],
    "cubic-shells:lattice.M=0": [("initial_state.shells", "basis has only 1 shells")],
    "cubic-shells:initial_state.shells=<deleted>": [
        ("initial_state.mu", "size 2 does not match the basis's 4 shells")],
    "cubic-shell-mixed:lattice.M=0": [("initial_state.shell", "basis has only 1 shells")],
    "outputs:csv=out/run.csv": [("outputs.csv", "must be a plain file name, got 'out/run.csv'")],
    "outputs:csv=../run.csv": [("outputs.csv", "must be a plain file name, got '../run.csv'")],
    "outputs:csv=/tmp/run.csv": [("outputs.csv", "must be a plain file name, got '/tmp/run.csv'")],
    "outputs:csv=a\\b.csv": [("outputs.csv", "must be a plain file name, got 'a\\\\b.csv'")],
    "outputs:csv=.": [("outputs.csv", "must be a plain file name, got '.'")],
    "outputs:csv=..": [("outputs.csv", "must be a plain file name, got '..'")],
    "outputs:csv=run.json": [("outputs.summary", "must differ from outputs.csv, both are 'run.json'")],
    "outputs:summary=sub/run.json": [
        ("outputs.summary", "must be a plain file name, got 'sub/run.json'")],
    "outputs:csv=summary.json": [
        ("outputs.summary", "must differ from outputs.csv, both are 'summary.json'")],
    "caps:grid-2048x2050": "classical grid nq * np = 4198400 exceeds cap of 4194304 cells",
    "caps:grid-1x4194306": "classical grid nq * np = 4194306 exceeds cap of 4194304 cells",
    "caps:grid-100000x100000":
        "classical grid nq * np = 10000000000 exceeds cap of 4194304 cells",
    "caps:steps-100001": "time_grid.steps = 100001 exceeds cap of 100000",
    "caps:steps-10**12": "time_grid.steps = 1000000000000 exceeds cap of 100000",
    "caps:classical-steps-10**12": "time_grid.steps = 1000000000000 exceeds cap of 100000",
    "cross:start-density-dq=dp=1e-200": [("lattice.dp", "the start density 1 / (nq dq dp) is "
                                          "not a float of unit mass: nq dq dp underflows to 0")],
    "cross:start-density-dp=1e-310": [("lattice.dp", "the start density 1 / (nq dq dp) is "
                                       "not a float of unit mass: mass is inf, not 1")],
    "cross:start-density-dq=dp=1e200": [("lattice.dp", "the start density 1 / (nq dq dp) is "
                                         "not a float of unit mass: mass is 0.0, not 1")],
    "cross:mu-cube-overflow": [("potential.mu", "the Yukawa denominator mu (|k|^2 + mu^2), "
                                "at most mu (4 max|n|^2 delta_k^2 + mu^2), overflows")],
    "cross:mu-transfer-overflow": [("potential.mu", "the Yukawa denominator mu (|k|^2 + mu^2), "
                                    "at most mu (4 max|n|^2 delta_k^2 + mu^2), overflows")],
    "cross:delta_k-underflow-cubic": [("lattice.delta_k", "the shell energies |n|^2 delta_k^2 "
                                       "underflow: they are not distinct floats")],
    "cross:delta_k-underflow-line": [("lattice.delta_k", "the shell energies |n|^2 delta_k^2 "
                                      "underflow: they are not distinct floats")],
}

CASES = corpus()


def test_corpus_matches_the_golden_case_list():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) > 700


@pytest.mark.parametrize("group", sorted({k.split(":")[0] for k in CASES}))
def test_outcomes_match_the_golden_corpus(group):
    golden = json.loads(GOLDEN.read_text())
    for case, text in CASES.items():
        if case.split(":")[0] != group or case in NEW_REFUSALS:
            continue
        want = golden[case]
        if "errors" in want:
            with pytest.raises(ConfigError) as info:
                config.validate_config(text)
            assert info.value.errors == [tuple(e) for e in want["errors"]], case
        elif "cap" in want:
            with pytest.raises(DimensionCapError) as info:
                config.validate_config(text)
            assert str(info.value) == want["cap"], case
        else:
            assert config.validate_config(text) == _decode(want["config"]), case


@pytest.mark.parametrize("case", sorted(NEW_REFUSALS))
def test_config_the_lattice_cannot_hold_is_now_refused(case):
    assert "config" in json.loads(GOLDEN.read_text())[case]
    want = NEW_REFUSALS[case]
    if isinstance(want, str):  # a grid or a time grid over its cap
        with pytest.raises(DimensionCapError) as info:
            config.validate_config(CASES[case])
        assert str(info.value) == want
        return
    with pytest.raises(ConfigError) as info:
        config.validate_config(CASES[case])
    assert info.value.errors == want


def _refusal(case: str, golden: dict):
    """The outcome the current code gives a case: the errors list, the cap
    message, or None for an accepted config."""
    want = NEW_REFUSALS.get(case)
    if want is not None:
        return {"cap": want} if isinstance(want, str) else {"errors": [list(e) for e in want]}
    return None if "config" in golden[case] else golden[case]


@pytest.mark.parametrize("group", sorted({k.split(":")[0] for k in CASES}))
def test_cli_exit_code_of_every_refused_case(group, tmp_path, capsys):
    """``lelab run`` exits 2 with one ``config error`` line per ConfigError
    entry, or 4 with the one ``dimension cap`` line, and writes nothing."""
    golden = json.loads(GOLDEN.read_text())
    path, out = tmp_path / "exp.json", tmp_path / "out"
    for case, text in CASES.items():
        want = _refusal(case, golden) if case.split(":")[0] == group else None
        if want is None:
            continue
        path.write_text(text, encoding="utf-8")
        code = cli.main(["run", "--config", str(path), "--out-dir", str(out)])
        printed = capsys.readouterr()
        if "errors" in want:
            lines = [f"config error: {field or 'config'}: {message}\n"
                     for field, message in want["errors"]]
            assert (code, printed.err) == (2, "".join(lines)), case
        else:
            assert (code, printed.err) == (4, f"dimension cap: {want['cap']}\n"), case
        assert printed.out == "" and not out.exists(), case


def write_golden(path) -> int:
    """Write every case's outcome to ``path`` and return the case count.

    A ``NEW_REFUSALS`` case keeps its stored outcome, the acceptance that
    ``test_config_the_lattice_cannot_hold_is_now_refused`` asserts; every
    other case gets the outcome of the current code.
    """
    stored = json.loads(GOLDEN.read_text())
    lines = [f"{json.dumps(k)}: "
             f"{json.dumps(stored[k] if k in NEW_REFUSALS else outcome(v), sort_keys=True)}"
             for k, v in sorted(CASES.items())]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return len(lines)


def test_the_writer_reproduces_the_golden_file(tmp_path):
    out = tmp_path / GOLDEN.name
    assert write_golden(out) == len(CASES)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    print(f"wrote {write_golden(target)} cases to {target}")
