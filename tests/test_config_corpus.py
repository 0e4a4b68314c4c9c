"""Golden corpus of config outcomes.

The cases are generated here: four base configs, every field of every
section deleted or set to each of a fixed list of bad values, an unknown
key in each section, swapped and invalid modes, and the cross-field
cases of ``test_config.py``.  ``tests/data/config_errors.json`` holds
the outcome of each case before shell, shells and mu were checked
against the lattice and the output names had to be distinct plain file
names: the ``ConfigError`` list, or the accepted config.  Every case
must keep that outcome, except the ones in ``NEW_REFUSALS``, which the
old validation accepted and whose run then failed or wrote elsewhere.

``python tests/test_config_corpus.py`` rewrites the data file from the
current code; do that only for an intended change of outcome.
"""

import copy
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from lelab import config
from lelab.errors import ConfigError

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
    return cases


def _encode(x):
    if is_dataclass(x):
        return {"class": type(x).__name__,
                "fields": {f.name: _encode(getattr(x, f.name)) for f in fields(x)}}
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
    return {"config": _encode(cfg)}


# Cases the old validation accepted and whose run then failed or wrote
# somewhere else, with the error that now refuses them.
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
        else:
            assert config.validate_config(text) == _decode(want["config"]), case


@pytest.mark.parametrize("case", sorted(NEW_REFUSALS))
def test_config_the_lattice_cannot_hold_is_now_refused(case):
    assert "config" in json.loads(GOLDEN.read_text())[case]
    with pytest.raises(ConfigError) as info:
        config.validate_config(CASES[case])
    assert info.value.errors == NEW_REFUSALS[case]


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(outcome(v), sort_keys=True)}"
             for k, v in sorted(CASES.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN}")
