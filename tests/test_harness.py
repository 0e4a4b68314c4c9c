import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lelab
from lelab import cli, config, dynamics, harness, reduction
from lelab.config import validate_config
from lelab.errors import ConfigError, DimensionCapError, InvariantViolation, StateValidationError

QUANTUM = {
    "mode": "quantum",
    "lattice": {"M": 1, "delta_k": 1.0},
    "potential": {"A": 0.2, "mu": 1.0},
    "initial_state": {"kind": "effectively-pure-mixed", "seed": 7},
    "time_grid": {"t_max": 1.0, "steps": 5},
}

CLASSICAL = {
    "mode": "classical",
    "lattice": {"nq": 32, "np": 32, "dq": 2 * np.pi / 32, "dp": 0.2},
    "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 0.5},
    "initial_state": {"kind": "single-p-row", "p0": 1.0},
    "time_grid": {"t_max": 1.0, "steps": 4},
}

QUANTUM_HEADER = "t,S_eff,S_global,tr_rho2,effectively_pure,S_E_0,S_E_1,S_E_2,S_E_3,P0,S_cg"


def _single_row(dq: float, dp: float) -> dict:
    """An unkicked classical config on a 4 x 4 grid, all mass on the row nearest p = 0."""
    return {
        "mode": "classical",
        "lattice": {"nq": 4, "np": 4, "dq": dq, "dp": dp},
        "potential": {"kick_strength": 0.0, "kick_shape": "cos"},
        "initial_state": {"kind": "single-p-row", "p0": 0.0},
        "time_grid": {"t_max": 1.0, "steps": 2},
    }


def make_config(**overrides):
    return validate_config(json.dumps(dict(QUANTUM, **overrides)))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_quantum_run_writes_csv_and_summary(tmp_path):
    summary = harness.run(make_config(), out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header[:5] == ["t", "S_eff", "S_global", "tr_rho2", "effectively_pure"]
    assert header[5:] == ["S_E_0", "S_E_1", "S_E_2", "S_E_3", "P0", "S_cg"]
    assert len(rows) == 6
    assert float(rows[0][1]) <= 1e-12  # starts effectively pure
    assert rows[0][4] == "1"
    assert summary.all_checks_pass
    assert summary.effectively_pure_initial is True
    assert summary.final_purity == pytest.approx(float(rows[-1][3]))

    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["mode"] == "quantum"
    assert loaded["config"] == QUANTUM
    assert loaded["all_checks_pass"] is True
    assert set(loaded["invariant_checks"]) == {"eigenbasis_orthonormal", "eigenbasis_residual",
                                               "purity_constant", "coarse_entropy_bound",
                                               "coarse_entropy_floor"}


def test_free_run_records_entropy_constancy_check(tmp_path):
    cfg = make_config(potential={"A": 0.0, "mu": 1.0},
                      initial_state={"kind": "shell-mixed", "shell": 1})
    summary = harness.run(cfg, out_dir=tmp_path)
    assert summary.invariant_checks["free_entropy_constant"]
    _, rows = read_csv(tmp_path / "trace.csv")
    s_eff = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(s_eff, np.log(6), atol=1e-12)


def test_nondegenerate_run_records_no_mixing_check(tmp_path):
    cfg = make_config(lattice={"N": 8, "delta_k": 1.0},
                      initial_state={"kind": "pure-random", "seed": 3})
    summary = harness.run(cfg, out_dir=tmp_path)
    assert summary.invariant_checks["nondegenerate_no_mixing"]
    assert summary.final_effective_entropy <= 1e-9


def test_classical_run(tmp_path):
    summary = harness.run(validate_config(json.dumps(CLASSICAL)), out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["t", "S_classical", "mass"]
    assert len(rows) == 5
    assert summary.invariant_checks["mass_conserved"]
    assert summary.final_mass == pytest.approx(1.0, abs=1e-6)
    # kick at t=0.5 raises the marginal entropy and it stays up
    assert summary.final_effective_entropy > float(rows[0][1]) + 1e-3


def test_unit_cell_classical_run_reports_plus_zero_entropy(tmp_path, capsys):
    # all mass in one cell of g = 1: the entropy sums zero terms, whose negation is -0.0
    raw = dict(_single_row(1.0, 1.0), lattice={"nq": 1, "np": 2, "dq": 1.0, "dp": 1.0})
    cfg_path = tmp_path / "unit.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    assert "final effective entropy: 0\n" in capsys.readouterr().out
    s = json.loads((tmp_path / "summary.json").read_text())["final_effective_entropy"]
    assert s == 0.0 and math.copysign(1.0, s) == 1.0
    summary = harness.run(validate_config(json.dumps(raw)), out_dir=tmp_path / "again")
    assert math.copysign(1.0, summary.final_effective_entropy) == 1.0


def test_runs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    harness.run(make_config(), out_dir=a)
    harness.run(make_config(), out_dir=b)
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa.pop("run_info"), sb.pop("run_info")
    assert sa == sb


@pytest.mark.parametrize("raw,stages", [
    (QUANTUM, ["harness.build_quantum_basis", "dynamics.build_hamiltonian",
               "dynamics.Propagator.from_hamiltonian", "dynamics.Propagator.eigenbasis_errors",
               "harness.build_initial_state", "reduction.alpha0_flow", "reduction.entropy_trace"]),
    (CLASSICAL, ["koopman.single_p_row_density", "harness._run_classical"]),
], ids=["quantum", "classical"])
def test_run_info_times_each_stage_within_the_wall_time(tmp_path, monkeypatch, raw, stages):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    summary = harness.run(validate_config(json.dumps(raw)), out_dir=tmp_path)
    info = json.loads((tmp_path / "summary.json").read_text())["run_info"]
    assert info == summary.run_info
    assert list(summary.run_info["stages_s"]) == stages  # in run order; the file sorts keys
    assert min(info["stages_s"].values()) >= 0
    assert sum(info["stages_s"].values()) <= info["wall_time_s"]
    assert info["peak_rss_mb"] > 0
    assert info["versions"] == {"lelab": lelab.__version__, "numpy": np.__version__,
                                "python": ".".join(map(str, sys.version_info[:3]))}
    assert info["threads"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
                               "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert info["blas"] == {"name": blas["name"], "version": blas["version"]}


@pytest.mark.parametrize("error", [AttributeError, KeyError, TypeError])
def test_run_info_names_the_blas_unknown_where_numpy_cannot_say(monkeypatch, error):
    # a numpy whose show_config takes no mode raises TypeError
    def show_config(*args, **kwargs):
        raise error("mode")

    monkeypatch.setattr(np, "show_config", show_config)
    assert harness._run_info(0.0, {})["blas"] == "unknown"


@pytest.mark.parametrize("platform,mb", [("darwin", 3.0), ("linux", 3072.0)])
def test_run_info_reads_peak_rss_in_the_platforms_unit(monkeypatch, platform, mb):
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    class Usage:
        ru_maxrss = 3 << 20

    monkeypatch.setattr(harness.resource, "getrusage", lambda who: Usage())
    monkeypatch.setattr(sys, "platform", platform)
    assert harness._run_info(0.0, {})["peak_rss_mb"] == mb


@pytest.mark.parametrize("raw", [
    QUANTUM,
    dict(QUANTUM, potential={"A": 0.0, "mu": 1.0}, initial_state={"kind": "shell-mixed", "shell": 1}),
    dict(QUANTUM, lattice={"N": 8, "delta_k": 1.0}, initial_state={"kind": "pure-random", "seed": 3}),
    CLASSICAL,
], ids=["cubic", "free", "line", "classical"])
def test_every_check_is_its_margin_against_its_tolerance(tmp_path, raw):
    summary = harness.run(validate_config(json.dumps(raw)), out_dir=tmp_path)
    loaded = json.loads((tmp_path / "summary.json").read_text())
    margins, checks = loaded["invariant_margins"], loaded["invariant_checks"]
    assert margins == summary.invariant_margins and set(margins) == set(checks)
    for name, margin in margins.items():
        assert set(margin) == {"measured", "tolerance"}
        assert checks[name] is (margin["measured"] <= margin["tolerance"])
    # each measured value is the one the rows give, bit for bit
    header, rows = read_csv(tmp_path / "trace.csv")
    col = {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)}
    if raw is CLASSICAL:
        assert {name: m["measured"] for name, m in margins.items()} == {
            "mass_conserved": np.abs(col["mass"] - 1.0).max()}
        assert loaded["alpha0_purity"] is None
        return
    p0, s_cg = col["P0"], col["S_cg"]
    want = {"purity_constant": np.abs(col["tr_rho2"] - col["tr_rho2"][0]).max(),
            "coarse_entropy_bound": (col["S_global"] - s_cg).max(),
            "coarse_entropy_floor": max(-math.log(x) - s for x, s in zip(p0, s_cg))}
    if raw["potential"]["A"] == 0.0:
        want["free_entropy_constant"] = np.abs(col["S_eff"] - col["S_eff"][0]).max()
        want["alpha0_purity_constant"] = np.abs(p0 - p0[0]).max()
    if "N" in raw["lattice"]:
        want["nondegenerate_no_mixing"] = col["S_eff"].max()
    want.update(eigenbasis_orthonormal=margins["eigenbasis_orthonormal"]["measured"],
                eigenbasis_residual=margins["eigenbasis_residual"]["measured"])
    assert {name: m["measured"] for name, m in margins.items()} == want
    assert loaded["alpha0_purity"] == {"first": p0[0], "last": p0[-1], "min": p0.min(),
                                       "max": p0.max()}


@pytest.mark.parametrize("raw", [QUANTUM, CLASSICAL], ids=["quantum", "classical"])
def test_a_quantum_summary_records_the_flow_out_of_alpha_zero(tmp_path, raw):
    cfg = validate_config(json.dumps(raw))
    harness.run(cfg, out_dir=tmp_path)
    flow = json.loads((tmp_path / "summary.json").read_text())["alpha0_flow"]
    if raw is CLASSICAL:
        assert flow is None
        return
    basis = harness.build_quantum_basis(cfg)
    h = dynamics.build_hamiltonian(basis, cfg.potential.coupling, cfg.potential.screening)
    c1, kappa = reduction.alpha0_flow(harness.build_initial_state(cfg, basis), h, basis)
    assert flow == {"c1": c1, "kappa": kappa} and kappa > 0


@pytest.mark.parametrize("name", ["free-invariance", "nondegenerate", "yukawa-mixing"])
def test_every_quantum_demo_passes_the_alpha0_checks(tmp_path, name):
    summary = harness.run(harness.demo_config(name), out_dir=tmp_path)
    wanted = {"coarse_entropy_bound", "coarse_entropy_floor"}
    if name == "free-invariance":  # A = 0: P0 is constant
        wanted.add("alpha0_purity_constant")
    assert wanted <= set(summary.invariant_checks) and summary.all_checks_pass


def test_a_nan_row_fails_the_checks_that_read_it():
    # min and max carry a NaN to the end, whichever row it comes in
    for values in ((1.0, float("nan"), 1.0), (float("nan"), 1.0, 1.0), (1.0, 1.0, float("nan"))):
        fold = harness._Fold(io.StringIO(), ["x"], lambda v: ([repr(v)], (v,)))
        for v in values:
            fold.append(v)
        (x,) = fold.stats()
        assert len(fold) == 3 and math.isnan(harness._drift(x)) and math.isnan(x["max"])
        assert not harness._passes(harness._margin(harness._drift(x), 1.0))


@pytest.mark.parametrize("eigenbasis", ["passes", "fails"])
def test_the_checks_are_read_from_the_margins(tmp_path, monkeypatch, eigenbasis):
    # the summary keeps only the margins; both verdicts are read from them
    made, to_dict, ok = [], harness.RunSummary.to_dict, eigenbasis == "passes"
    monkeypatch.setattr(harness.RunSummary, "to_dict", lambda s: made.append(s) or to_dict(s))
    if not ok:
        _scale_eigenvectors(monkeypatch)
    with contextlib.nullcontext() if ok else pytest.raises(InvariantViolation):
        harness.run(make_config(), out_dir=tmp_path)
    (summary,) = made
    if not ok:  # no row ran: the stages stop at the check
        assert list(summary.run_info["stages_s"])[-1] == "dynamics.Propagator.eigenbasis_errors"
    want = {name: m["measured"] <= m["tolerance"] for name, m in summary.invariant_margins.items()}
    assert summary.invariant_checks == want and want["eigenbasis_orthonormal"] == ok
    assert summary.all_checks_pass == all(want.values()) == ok
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert (loaded["invariant_checks"], loaded["all_checks_pass"]) == (want, all(want.values()))


def test_a_failed_eigenbasis_check_records_both_errors(tmp_path, monkeypatch):
    _scale_eigenvectors(monkeypatch)
    with pytest.raises(InvariantViolation):
        harness.run(make_config(), out_dir=tmp_path)
    margins = json.loads((tmp_path / "summary.json").read_text())["invariant_margins"]
    assert set(margins) == {"eigenbasis_orthonormal", "eigenbasis_residual"}
    assert margins["eigenbasis_orthonormal"]["measured"] > harness.EIGENBASIS_ORTHONORMAL_TOL
    assert margins["eigenbasis_residual"]["measured"] <= harness.EIGENBASIS_RESIDUAL_TOL


def test_a_row_that_fails_its_trace_check_leaves_no_output(tmp_path, monkeypatch):
    # row 2 of 6 loses its unit trace: the rows before it were streamed to
    # the CSV's temporary file, which must go with the run
    evolved = dynamics.Propagator.evolved_factors

    def off_at_row_2(self, b, times):
        for i, c in enumerate(evolved(self, b, times)):
            yield c * 1.1 if i == 2 else c

    monkeypatch.setattr(dynamics.Propagator, "evolved_factors", off_at_row_2)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    (kept / "trace.csv").write_text("an earlier run\n")
    for out in (fresh, kept):
        with pytest.raises(StateValidationError, match="state at t = 0.4 has trace 1.21"):
            harness.run(make_config(), out_dir=out)
    assert list(fresh.iterdir()) == []
    assert [p.name for p in kept.iterdir()] == ["trace.csv"]
    assert (kept / "trace.csv").read_text() == "an earlier run\n"


def test_shell_index_out_of_range_is_config_error(tmp_path, monkeypatch, capsys):
    # validate_config checks shells against the lattice, so no run starts
    with pytest.raises(ConfigError) as info:
        make_config(initial_state={"kind": "shell-mixed", "shell": 9})
    assert dict(info.value.errors).keys() == {"initial_state.shell"}
    with pytest.raises(ConfigError) as info:
        make_config(initial_state={"kind": "effectively-pure-mixed", "seed": 1, "shells": [0, 4]})
    assert dict(info.value.errors).keys() == {"initial_state.shells"}

    def no_hamiltonian(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built for a refused config")

    # M = 7 (3375 points) is inside the cap; the refusal comes before H is built.
    monkeypatch.setattr(dynamics, "build_hamiltonian", no_hamiltonian)
    cfg_path = tmp_path / "m7.json"
    cfg_path.write_text(json.dumps(dict(QUANTUM, lattice={"M": 7, "delta_k": 1.0},
                                        initial_state={"kind": "shell-mixed", "shell": 999})))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "initial_state.shell: basis has only 88 shells" in capsys.readouterr().err
    assert not out.exists()


def test_quantum_run_diagonalizes_once(tmp_path, monkeypatch):
    # once means one eigh per symmetry block of H, and none of size n
    cfg = make_config()
    basis = harness.build_quantum_basis(cfg)
    blocks = dynamics.build_hamiltonian(basis, 0.2, 1.0).blocks
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    harness.run(cfg, out_dir=tmp_path)
    assert shapes == [hb.shape for hb in blocks]
    assert len(shapes) == 8 and sum(s[0] for s in shapes) == basis.size


def test_a_cubic_run_reads_no_dense_hamiltonian(tmp_path, monkeypatch):
    built = []
    build = dynamics.build_hamiltonian

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(dynamics, "build_hamiltonian", keep)
    harness.run(make_config(lattice={"M": 2, "delta_k": 1.0}), out_dir=tmp_path)
    (h,) = built
    assert "v" not in vars(h) and "matrix" not in vars(h)  # formed only when read
    assert max(len(hb) for hb in h.blocks) == 27 < h.dim


def test_quantum_run_takes_no_n_by_n_eigvalsh_and_no_unitary(tmp_path, monkeypatch):
    # Rows work on the n x r factor, and the final check reads the eigenpairs.
    cfg = make_config(lattice={"M": 2, "delta_k": 1.0})
    basis = harness.build_quantum_basis(cfg)
    n, r = harness.build_initial_state(cfg, basis).factor.shape
    assert r == basis.n_shells < n
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    step = dynamics.Propagator.evolved_factors

    def no_unitary(self, b, times):  # the step of B = I is the dense U(t)
        if np.shape(b)[1] == n:
            raise AssertionError("the run built a dense U(t)")
        return step(self, b, times)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(dynamics.Propagator, "evolved_factors", no_unitary)
    with pytest.raises(AssertionError, match="dense U"):
        no_unitary(None, np.eye(n), [1.0])
    harness.run(cfg, out_dir=tmp_path)
    assert len(shapes) >= len(cfg.time_grid.times())  # at least S_global on every row
    assert max(max(s) for s in shapes) <= r


def test_bad_final_state_is_recorded_before_raising(tmp_path, monkeypatch):
    # Eigenpairs of another H (A = 0.5 instead of 0.2) are unitary, so every
    # row is a valid state, but they are not the decomposition of the run's H.
    build = dynamics.build_hamiltonian
    other = build(harness.build_quantum_basis(make_config()), 0.5, 1.0).propagator
    for case in ("eigenpairs", "eigenvalues"):
        def wrong_eigenpairs(basis, coupling, screening):
            h = build(basis, coupling, screening)
            own = other if case == "eigenpairs" else h.propagator
            pairs = tuple((w, q) for (w, _), (_, q) in zip(other.blocks, own.blocks))
            h.__dict__["propagator"] = dynamics.Propagator(pairs, h.orbits)
            return h

        monkeypatch.setattr(dynamics, "build_hamiltonian", wrong_eigenpairs)
        out = tmp_path / case
        with pytest.raises(InvariantViolation, match="eigenbasis_residual"):
            harness.run(make_config(), out_dir=out)
        loaded = json.loads((out / "summary.json").read_text())
        assert loaded["invariant_checks"]["eigenbasis_residual"] is False
        assert loaded["invariant_checks"]["eigenbasis_orthonormal"] is True
        assert loaded["all_checks_pass"] is False
        assert loaded["final_purity"] is None
        assert (out / "trace.csv").read_text() == QUANTUM_HEADER + "\n"


def _scale_eigenvectors(monkeypatch):
    """Make every Hamiltonian the run builds carry Q scaled by 1 + 1e-6: the
    residual HQ - Q diag(w) stays at roundoff, but Q^dagger Q = I breaks."""
    build = dynamics.build_hamiltonian

    def scaled(basis, coupling, screening):
        h = build(basis, coupling, screening)
        pairs = tuple((w, q * (1.0 + 1e-6)) for w, q in h.propagator.blocks)
        h.__dict__["propagator"] = dynamics.Propagator(pairs, h.orbits)
        return h

    monkeypatch.setattr(dynamics, "build_hamiltonian", scaled)


def test_a_non_orthonormal_eigenbasis_is_recorded_before_any_row(tmp_path, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("a row was computed from a decomposition that failed its check")

    _scale_eigenvectors(monkeypatch)
    monkeypatch.setattr(reduction, "entropy_trace", no_trace)
    with pytest.raises(InvariantViolation, match="eigenbasis_orthonormal"):
        harness.run(make_config(), out_dir=tmp_path)
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["invariant_checks"] == {"eigenbasis_orthonormal": False,
                                          "eigenbasis_residual": True}
    assert loaded["all_checks_pass"] is False
    finals = ("final_effective_entropy", "final_purity", "final_mass",
              "effectively_pure_initial", "effectively_pure_final")
    assert all(loaded[k] is None for k in finals)
    assert (tmp_path / "trace.csv").read_text() == QUANTUM_HEADER + "\n"


def test_cli_exits_3_on_a_non_orthonormal_eigenbasis(tmp_path, monkeypatch, capsys):
    _scale_eigenvectors(monkeypatch)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(QUANTUM))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
    assert "eigenbasis_orthonormal" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]


def test_demo_configs_all_validate():
    for name in harness.DEMO_CONFIGS:
        cfg = harness.demo_config(name)
        assert cfg.outputs.csv == f"{name}.csv"
    with pytest.raises(ConfigError):
        harness.demo_config("does-not-exist")


def test_invariant_check_battery_passes():
    results = harness.run_invariant_checks()
    assert results and all(map(harness._passes, results.values()))
    assert {"free_period_returns_the_state", "time_reversal_returns_the_state",
            "time_reversal_undoes_the_entropy"} <= set(results)


def test_check_battery_sees_a_return_by_eigenvalues_other_than_the_forward_ones(monkeypatch):
    # back by -t with eigenvalues detuned by 1e-6: the state misses its
    # return, and S_eff stays above zero
    evolve = dynamics.Propagator.evolve

    def detuned_back(self, rho, t):
        if t < 0:
            self = dynamics.Propagator(tuple((w * (1 + 1e-6), q) for w, q in self.blocks),
                                       self.orbits)
        return evolve(self, rho, t)

    monkeypatch.setattr(dynamics.Propagator, "evolve", detuned_back)
    results = harness.run_invariant_checks()
    assert [k for k, m in results.items() if not harness._passes(m)] == [
        "time_reversal_returns_the_state", "time_reversal_undoes_the_entropy"]


def test_check_battery_sees_eigenvalues_off_the_free_period(monkeypatch):
    # eigenvalues detuned by 1e-6 still give a unitary, shell-preserving free
    # evolution; only the return after one free period sees them
    from_h = dynamics.Propagator.from_hamiltonian.__func__

    def detuned(cls, h):
        p = from_h(cls, h)
        return cls(tuple((w * (1 + 1e-6), q) for w, q in p.blocks), p.orbits)

    monkeypatch.setattr(dynamics.Propagator, "from_hamiltonian", classmethod(detuned))
    results = harness.run_invariant_checks()
    assert [k for k, m in results.items() if not harness._passes(m)] == [
        "free_period_returns_the_state"]


def test_cli_run_and_demo(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(QUANTUM))
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "invariant checks: pass" in out
    assert (tmp_path / "trace.csv").exists()

    demo_dir = tmp_path / "demo"
    assert cli.main(["demo", "free-invariance", "--out-dir", str(demo_dir)]) == 0
    assert (demo_dir / "free-invariance.csv").exists()


def test_classical_demo_csv_matches_golden_bytes(tmp_path):
    # tests/data/classical-kick.csv is the demo output: its t and S_classical
    # are those of the per-column transport kernels that the whole-array
    # kernels replaced, its mass the sums over the support windows
    golden = Path(__file__).parent / "data" / "classical-kick.csv"
    assert cli.main(["demo", "classical-kick", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "classical-kick.csv").read_bytes() == golden.read_bytes()


def test_quantum_demo_csv_matches_golden_values(tmp_path):
    # tests/data/yukawa-mixing.csv is the demo output of the dense eigenbasis
    # trace that the factored trace replaced; values may move by roundoff only
    golden = (Path(__file__).parent / "data" / "yukawa-mixing.csv").read_text().splitlines()
    assert cli.main(["demo", "yukawa-mixing", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "yukawa-mixing.csv").read_text().splitlines()
    assert lines[0] == golden[0]
    assert len(lines) == len(golden)
    flag = golden[0].split(",").index("effectively_pure")
    for got, want in zip(lines[1:], golden[1:]):
        got, want = got.split(","), want.split(",")
        assert got[flag] == want[flag]
        del got[flag], want[flag]
        assert np.abs(np.array(got, dtype=float) - np.array(want, dtype=float)).max() <= 1e-12


def test_nondegenerate_demo_writes_no_negative_global_entropy(tmp_path):
    # a pure state: roundoff lifts its one Gram eigenvalue just above 1
    assert cli.main(["demo", "nondegenerate", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "nondegenerate.csv").read_text().splitlines()
    col = lines[0].split(",").index("S_global")
    cells = [line.split(",")[col] for line in lines[1:]]
    assert len(cells) == 41 and not any(c.startswith("-") for c in cells)


def test_cli_check_command(capsys):
    # one line per margin: its verdict, name, measured value and tolerance
    margins = harness.run_invariant_checks()
    assert cli.main(["check"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["ok", name, "measured", f"{m['measured']:.3e}", "tolerance", f"{m['tolerance']:g}"]
        for name, m in margins.items()]


def test_cli_check_fails_a_margin_over_its_tolerance(capsys, monkeypatch):
    measured = harness.run_invariant_checks()["superoperator_matches_commutator"]["measured"]
    assert 0 < measured <= harness.SUPEROPERATOR_TOL
    monkeypatch.setattr(harness, "SUPEROPERATOR_TOL", measured / 2)
    assert cli.main(["check"]) == cli.EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if not line.startswith("ok   ")] == [
        ["FAIL", "superoperator_matches_commutator"]]


_DEMO_CHOICES = ", ".join(sorted(harness.DEMO_CONFIGS))
_USAGE_ERRORS = {
    "no-command": ([], "no command given"),
    "unknown-command": (["frobnicate", "--out-dir", "out"], "unknown command 'frobnicate'"),
    "run-without-config": (["run", "--out-dir", "out"], "run needs --config"),
    "option-without-value": (["run", "--config"], "option --config needs a value"),
    "option-before-option": (["run", "--config", "--out-dir", "out"],
                             "option --config needs a value"),
    "unknown-option": (["run", "--config", "exp.json", "--out-dir", "out", "--verbose"],
                       "unrecognized argument '--verbose'"),
    "abbreviated-option": (["run", "--conf", "exp.json", "--out-dir", "out"],
                           "unrecognized argument '--conf'"),
    "check-with-an-argument": (["check", "now"], "unrecognized argument 'now'"),
    "demo-without-name": (["demo", "--out-dir", "out"], "demo needs NAME"),
    "demo-nosuch": (["demo", "nosuch", "--out-dir", "out"],
                    f"unknown demo 'nosuch' (choose from {_DEMO_CHOICES})"),
    "demo-two-names": (["demo", "nondegenerate", "yukawa-mixing", "--out-dir", "out"],
                       "unrecognized argument 'yukawa-mixing'"),
}


@pytest.mark.parametrize("argv,message", list(_USAGE_ERRORS.values()), ids=list(_USAGE_ERRORS))
def test_cli_usage_errors_return_2_with_the_usage_and_one_error_line(
        tmp_path, capsys, monkeypatch, argv, message):
    # main returns the code: a SystemExit would fail the test
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(QUANTUM))
    assert cli.main(argv) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == f"{cli.USAGE}lelab: error: {message}\n"
    assert out.err.startswith("usage: ") and out.err.count("lelab: error:") == 1
    assert out.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["check", "--help"],
                                  ["demo", "nondegenerate", "-h"],
                                  ["run", "--config", "absent.json", "--help"]],
                         ids=["h", "help", "run-h", "check-help", "demo-h", "run-config-help"])
def test_cli_help_prints_the_usage_to_stdout_and_returns_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (cli.USAGE, "")


def test_cli_options_take_either_form_in_any_order_and_the_last_repeat_wins(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(QUANTUM))
    assert cli.main(["run", "--out-dir=first", "--config=absent.json", "--config", "exp.json",
                     "--out-dir", "second"]) == 0
    assert cli.main(["demo", "--out-dir=a=b", "--out-dir=demo", "nondegenerate"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.count("invariant checks: pass") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo", "exp.json", "second"]
    assert (tmp_path / "demo" / "nondegenerate.csv").is_file()
    assert sorted(p.name for p in (tmp_path / "second").iterdir()) == ["summary.json", "trace.csv"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(QUANTUM, potential={"A": 0.2, "mu": -1.0})))
    assert cli.main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "potential.mu" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    # A kick that would carry mass off the p grid is refused before the run.
    bad.write_text(json.dumps({
        "mode": "classical",
        "lattice": {"nq": 64, "np": 64, "dq": 2 * np.pi / 64, "dp": 0.1},
        "potential": {"kick_strength": 0.3, "kick_shape": "cos", "kick_time": 1.0},
        "initial_state": {"kind": "single-p-row", "p0": 3.05},
        "time_grid": {"t_max": 2.0, "steps": 20},
    }))
    assert cli.main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "potential.kick_strength" in capsys.readouterr().err


@pytest.mark.parametrize("field,change", [
    # each of these used to fail only after the run had started, or to
    # write somewhere other than the output directory
    ("initial_state.mu", {"initial_state": {"kind": "effectively-pure-mixed", "seed": 7,
                                            "mu": [[0.5, 0.0], [0.0, 0.5]]}}),
    ("outputs.csv", {"outputs": {"csv": "sub/trace.csv"}}),
    ("outputs.csv", {"outputs": {"csv": ".."}}),
    ("outputs.summary", {"outputs": {"summary": "../summary.json"}}),
    ("outputs.summary", {"outputs": {"csv": "summary.json"}}),
    # valid finite inputs whose derived scales overflow: each used to end in a
    # LinAlgError, an OverflowError or "density must be nonnegative, min is nan"
    ("time_grid.t_max", {"time_grid": {"t_max": 1e308, "steps": 5}}),
    ("potential.mu", {"potential": {"A": 0.2, "mu": 1e-200}}),
    ("lattice.delta_k", {"lattice": {"M": 1, "delta_k": 1e200}}),
    # the largest energy 3 delta_k^2 is finite, the largest transfer 12 delta_k^2 is not
    ("lattice.delta_k", {"lattice": {"M": 1, "delta_k": 4e153}}),
    ("time_grid.t_max", {
        "mode": "classical",
        "lattice": {"nq": 16, "np": 16, "dq": 0.1, "dp": 0.1},
        "potential": {"kick_strength": 0.0, "kick_shape": "cos"},
        "initial_state": {"kind": "single-p-row", "p0": 0.75},
        "time_grid": {"t_max": 1e308, "steps": 4},
    }),
    # a start density 1 / (nq dq dp) that is not a float of unit mass: each
    # used to end in a ZeroDivisionError, "mass is inf, not 1" or "mass is 0.0, not 1"
    ("lattice.dp", _single_row(1e-200, 1e-200)),
    ("lattice.dp", _single_row(1.0, 1e-310)),
    ("lattice.dp", _single_row(1e200, 1e200)),
    # a delta_k whose shell energies |n|^2 delta_k^2 all underflow to 0.0: the
    # run used to write a CSV whose shell columns were all named S_E_0
    ("lattice.delta_k", {"lattice": {"M": 1, "delta_k": 1e-170}}),
    ("lattice.delta_k", {"lattice": {"N": 16, "delta_k": 1e-170}}),
    # the squared bound 4 (max|n|^2 delta_k^2 + n 4 pi A / mu^3)^2 overflows: each
    # used to pass its checks with "kappa": NaN in summary.json, and to die of an
    # overflow in alpha0_flow's matmul under -W error::RuntimeWarning
    ("potential.mu", {"lattice": {"N": 2, "delta_k": 1.0}, "potential": {"A": 5.0, "mu": 1e-100},
                      "time_grid": {"t_max": 100.0, "steps": 1}}),
    ("lattice.delta_k", {"lattice": {"M": 2, "delta_k": 1e150},
                         "initial_state": {"kind": "shell-mixed", "shell": 3}}),
])
def test_cli_refuses_what_used_to_fail_mid_run(tmp_path, capsys, field, change):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(dict(QUANTUM, **change)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {field}: ")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


def _strict_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_SCALE = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)  # log-uniform over 1e-150..1e150


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattice=st.one_of(st.fixed_dictionaries({"M": st.integers(0, 1), "delta_k": _SCALE}),
                         st.fixed_dictionaries({"N": st.integers(1, 4), "delta_k": _SCALE})),
       coupling=_SCALE, screening=_SCALE, t_max=_SCALE,
       state=st.sampled_from([{"kind": "pure-random", "seed": 3},
                              {"kind": "effectively-pure-mixed", "seed": 7},
                              {"kind": "shell-mixed", "shell": 0}]))
def test_every_scale_is_refused_or_runs_to_a_strict_summary(lattice, coupling, screening, t_max,
                                                            state):
    # any finite scales: refused up front, or a run with no RuntimeWarning
    # that exits 0 or 3 and whose summary holds no NaN or Infinity
    raw = {"mode": "quantum", "lattice": lattice, "potential": {"A": coupling, "mu": screening},
           "initial_state": state, "time_grid": {"t_max": t_max, "steps": 2}}
    try:
        validate_config(json.dumps(raw))
    except (ConfigError, DimensionCapError):
        return
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg_path = Path(tmp) / "exp.json"
        cfg_path.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code in (0, 3), raw
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_strict_constant)
        assert summary["all_checks_pass"] == (code == 0), raw


def test_cli_refuses_deeply_nested_json(tmp_path, capsys):
    # json.loads raises RecursionError here, which used to end in a traceback
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config: invalid JSON: nested too deeply to parse\n"


@pytest.mark.parametrize("lattice", [{"M": 1}, {"N": 16}], ids=["cubic", "line"])
def test_the_smallest_admitted_delta_k_writes_distinct_shell_names(tmp_path, lattice):
    def delta_k(bits: int) -> float:  # the positive float with these bits
        return float(np.int64(bits).view(np.float64))

    def admitted(bits: int) -> bool:
        try:
            make_config(lattice=dict(lattice, delta_k=delta_k(bits)))
        except ConfigError:
            return False
        return True

    # bisect over the bit patterns of positive floats, which sort as the floats do
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1e-170, 1.0))
    assert not admitted(lo) and admitted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if admitted(mid) else (mid, hi)
    harness.run(make_config(lattice=dict(lattice, delta_k=delta_k(hi))), out_dir=tmp_path)
    header = (tmp_path / "trace.csv").read_text().splitlines()[0].split(",")
    assert len(set(header)) == len(header)


def test_an_explicit_mu_run_end_to_end(tmp_path):
    # mu of rank one: the state is one column, Phi L, and pure in every shell
    cfg = make_config(lattice={"M": 2, "delta_k": 0.7},
                      initial_state={"kind": "effectively-pure-mixed", "seed": 7,
                                     "shells": [1, 2], "mu": [[0.1, 0.3], [0.3, 0.9]]})
    rho0 = harness.build_initial_state(cfg, harness.build_quantum_basis(cfg))
    assert rho0.factor.shape[1] == 1
    csvs = []
    for out in ("a", "b"):
        summary = harness.run(cfg, out_dir=tmp_path / out)
        assert summary.all_checks_pass
        csvs.append(Path(summary.csv_path).read_bytes())
    assert csvs[0] == csvs[1]
    header, rows = read_csv(tmp_path / "a" / cfg.outputs.csv)
    assert float(rows[0][header.index("S_eff")]) <= 1e-9


def test_cli_unreadable_config_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["out-dir-under-a-file", "csv-path-is-a-directory"])
@pytest.mark.parametrize("command", ["demo", "run"])
def test_cli_unusable_out_dir_is_one_output_error(tmp_path, capsys, command, where):
    cfg = harness.DEMO_CONFIGS["yukawa-mixing"]
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    if where == "out-dir-under-a-file":
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "x"  # NotADirectoryError when it is made
    else:
        out_dir = tmp_path / "out"
        (out_dir / cfg["outputs"]["csv"]).mkdir(parents=True)  # IsADirectoryError on the write
    argv = ["demo", "yukawa-mixing"] if command == "demo" else ["run", "--config", str(cfg_path)]
    assert cli.main([*argv, "--out-dir", str(out_dir)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("output error: ") and out.err.count("\n") == 1
    assert out.out == ""


class _FullStdout:
    """A stdout whose every write fails, as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["check"], ["demo", "nondegenerate"], ["--help"]],
                         ids=["check", "demo", "help"])
def test_cli_unwritable_stdout_is_one_output_error(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "demo":
        argv = [*argv, "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "output error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_the_process_entry_exits_2_when_stdout_fails(tmp_path, unbuffered):
    # stdout is a pipe with no reader; shutdown's flush of what is still
    # buffered must not turn the exit code into 120
    code = ("import os, sys\n"
            "r, w = os.pipe()\n"
            "os.close(r)\n"
            "os.dup2(w, 1)\n"
            f"sys.argv[1:] = ['demo', 'nondegenerate', '--out-dir', {str(tmp_path)!r}]\n"
            "from lelab import cli\n"
            "cli.entry()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == cli.EXIT_CONFIG
    assert done.stderr.startswith("output error: ") and done.stderr.count("\n") == 1


def test_cli_dimension_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    for m in (11, 10**200):  # the caps build the basis, which refuses both before any scale
        big.write_text(json.dumps(dict(QUANTUM, lattice={"M": m, "delta_k": 1.0})))
        assert cli.main(["run", "--config", str(big), "--out-dir", str(tmp_path)]) == 4
        assert "dimension cap" in capsys.readouterr().err


@pytest.mark.parametrize("lattice,cap", [({"M": 11, "delta_k": 1.0}, 9261),
                                         ({"N": 4097, "delta_k": 1.0}, 4096)],
                         ids=["lattice0", "lattice1"])
def test_cli_refuses_a_lattice_over_the_point_cap_before_writing(tmp_path, capsys, lattice, cap):
    # used to create --out-dir and only then fail in the run's basis build
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(dict(QUANTUM, lattice=lattice)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 4
    assert f"exceeds cap of {cap} points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change,message", [
    ({"time_grid": {"t_max": 1.0, "steps": 100001}}, "time_grid.steps = 100001 exceeds cap"),
    ({"mode": "classical", "lattice": {"nq": 100000, "np": 100000, "dq": 0.1, "dp": 0.1},
      "potential": {"kick_strength": 0.3, "kick_shape": "cos"},
      "initial_state": {"kind": "single-p-row", "p0": 1.0}}, "classical grid nq * np"),
])
def test_cli_refuses_grids_over_their_caps(tmp_path, capsys, change, message):
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(dict(QUANTUM, **change)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 4
    assert f"dimension cap: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lattice", [{"M": 1, "delta_k": 1.0}, {"N": 16, "delta_k": 0.5}],
                         ids=["M1", "N16"])
def test_the_trace_cell_cap_counts_the_cells_a_run_writes(tmp_path, monkeypatch, lattice):
    raw = json.dumps(dict(QUANTUM, lattice=lattice))
    csv = harness.run(validate_config(raw), out_dir=tmp_path).csv_path
    header, rows = read_csv(Path(csv))
    cells = len(rows) * len(header)
    assert {len(row) for row in rows} == {len(header)}
    monkeypatch.setattr(config, "MAX_TRACE_CELLS", cells)
    validate_config(raw)
    monkeypatch.setattr(config, "MAX_TRACE_CELLS", cells - 1)
    with pytest.raises(DimensionCapError, match=f"gives a trace of {cells} cells"):
        validate_config(raw)


def test_cli_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    def explode(cfg, out_dir="."):
        raise InvariantViolation("purity drifted")

    monkeypatch.setattr(cli, "run", explode)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(QUANTUM))
    assert cli.main(["run", "--config", str(cfg_path)]) == 3
    assert "purity drifted" in capsys.readouterr().err


@pytest.mark.parametrize("state", [{"kind": "effectively-pure-mixed", "seed": 11},
                                   {"kind": "shell-mixed", "shell": 20}],
                         ids=["effectively-pure-mixed", "shell-mixed"])
def test_a_quantum_run_forms_no_dense_state(tmp_path, state):
    # M = 4, n = 729: the whole run, H's blocks included, stays below one
    # dense complex n x n matrix, which a built rho(0) or rho(t) would take
    cfg = make_config(lattice={"M": 4, "delta_k": 0.7}, initial_state=state)
    n = harness.build_quantum_basis(cfg).size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        harness.run(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16


def test_importing_the_cli_loads_no_dataclasses(tmp_path):
    # dataclasses writes and compiles each class's methods at import, about
    # 0.75 ms a class: most of what importing lelab.cli used to cost.
    # argparse imports gettext, and its first parse locale: neither the
    # import nor a quantum or a classical run may load them
    steps = []
    for mode, cfg in (("quantum", QUANTUM), ("classical", CLASSICAL)):
        (tmp_path / f"{mode}.json").write_text(json.dumps(cfg))
        steps.append(["run", "--config", str(tmp_path / f"{mode}.json"),
                      "--out-dir", str(tmp_path / mode)])
    code = ("import json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import lelab.cli\n"
            "added = sorted(set(sys.modules) - before)\n"
            "parser = {'argparse', 'gettext', 'locale'}\n"
            "loaded = [sorted(parser & set(sys.modules))]\n"
            f"for argv in {steps!r}:\n"
            "    assert lelab.cli.main(argv) == 0, argv\n"
            "    loaded.append(sorted(parser & set(sys.modules)))\n"
            "print(json.dumps([added, loaded]))\n")
    src = str(Path(harness.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    added, loaded = json.loads(done.stdout.splitlines()[-1])
    assert "lelab.cli" in added and "dataclasses" not in added
    assert loaded == [[], [], []]


def test_a_quantum_run_never_imports_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma; the run groups without it
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(dict(QUANTUM, lattice={"M": 2, "delta_k": 0.7})))
    code = ("import sys\n"
            "from lelab import cli\n"
            f"assert cli.main(['run', '--config', {str(cfg_path)!r}, "
            f"'--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(harness.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_seeded_runs_and_the_check_never_import_numpy_random(tmp_path):
    # numpy.random loads mtrand, four bit generators and secrets -> hashlib
    # -> OpenSSL; lelab._rng draws the same normals without it
    steps = []
    for kind in ("pure-random", "effectively-pure-mixed"):
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(dict(QUANTUM, initial_state={"kind": kind, "seed": 5})))
        steps.append(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / kind)])
    steps.append(["check"])
    code = ("import json, sys\n"
            "from lelab import cli\n"
            "loaded = []\n"
            f"for argv in {steps!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n"
            "print(json.dumps(loaded))\n")
    src = str(Path(harness.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [[], [], []]


def _entry_child(args, cwd=None, code=None):
    """``python -m lelab.cli ARGS``, or ``python -c CODE ARGS`` when ``code``
    is given, run with lelab on its path and buffered stdout; the finished
    process."""
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               PYTHONUNBUFFERED="")
    head = ["-m", "lelab.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_the_process_entry_exits_with_mains_codes(tmp_path):
    ok = _entry_child(["demo", "nondegenerate", "--out-dir", str(tmp_path / "ok")])
    missing = _entry_child(["run", "--config", str(tmp_path / "absent.json")])
    big = tmp_path / "big.json"
    big.write_text(json.dumps(dict(QUANTUM, lattice={"M": 11, "delta_k": 1.0})))
    capped = _entry_child(["run", "--config", str(big), "--out-dir", str(tmp_path / "big")])
    violated = _entry_child(["check"], code=(
        "from lelab import cli\n"
        "from lelab.errors import InvariantViolation\n"
        "def explode():\n"
        "    raise InvariantViolation('purity drifted')\n"
        "cli.run_invariant_checks = explode\n"
        "cli.entry()\n"))
    codes = [done.returncode for done in (ok, missing, violated, capped)]
    assert codes == [0, cli.EXIT_CONFIG, cli.EXIT_INVARIANT, cli.EXIT_DIMENSION]
    assert ok.stderr == ""
    for done, head in ((missing, "config error: "), (violated, "invariant violation: "),
                       (capped, "dimension cap: ")):
        assert done.stderr.startswith(head) and done.stderr.count("\n") == 1
        assert done.stdout == ""


@pytest.mark.parametrize("argv", [["run", "--config", "exp.json", "--out-dir", "out"],
                                  ["run", "--config", "absent.json", "--out-dir", "out"],
                                  ["demo", "yukawa-mixing", "--out-dir", "out"],
                                  ["check"],
                                  ["run", "--out-dir", "out"],
                                  ["demo", "--help"]],
                         ids=["run", "run-missing", "demo", "check", "run-usage", "help"])
def test_the_process_entry_writes_what_main_writes(tmp_path, capsys, monkeypatch, argv):
    # the same relative paths from two working directories, so the printed
    # CSV path is the same text
    for side in ("main", "entry"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "exp.json").write_text(json.dumps(QUANTUM))
    monkeypatch.chdir(tmp_path / "main")
    code = cli.main(argv)
    out = capsys.readouterr()
    done = _entry_child(argv, cwd=tmp_path / "entry")
    assert (done.returncode, done.stdout, done.stderr) == (code, out.out, out.err)
    written = sorted(p.name for p in (tmp_path / "main" / "out").glob("*"))
    assert written == sorted(p.name for p in (tmp_path / "entry" / "out").glob("*"))
    for name in written:
        main_bytes, entry_bytes = ((tmp_path / side / "out" / name).read_bytes()
                                   for side in ("main", "entry"))
        if name.endswith(".json"):
            main_bytes, entry_bytes = ({k: v for k, v in json.loads(b).items() if k != "run_info"}
                                       for b in (main_bytes, entry_bytes))
        assert entry_bytes == main_bytes, name
    assert bool(written) == (code == 0 and argv[0] != "check" and "--help" not in argv)


def test_the_process_entry_runs_each_atexit_handler_once_and_flushes_its_output(tmp_path):
    # the handler prints without flushing; the entry flushes after the handlers
    log = tmp_path / "atexit.log"
    done = _entry_child(["demo", "nondegenerate", "--out-dir", str(tmp_path / "out")], code=(
        "import atexit\n"
        "def handler():\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write('ran\\n')\n"
        "    print('atexit handler ran')\n"
        "atexit.register(handler)\n"
        "from lelab import cli\n"
        "cli.entry()\n"))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.endswith("invariant checks: pass\natexit handler ran\n")
    assert log.read_text() == "ran\n"


def test_the_console_script_and_the_module_call_one_entry():
    root = Path(__file__).resolve().parents[1]
    script = re.search(r'^lelab = "lelab\.cli:(\w+)"$', (root / "pyproject.toml").read_text(), re.M)
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    assert script and ast.unparse(stmt) == f"{script.group(1)}()"
    assert getattr(cli, script.group(1)) is cli.entry


def test_the_module_entry_writes_what_main_writes_and_exits_with_its_code(tmp_path):
    assert cli.main(["demo", "nondegenerate", "--out-dir", str(tmp_path / "main")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    child = [sys.executable, "-m", "lelab.cli"]
    subprocess.run([*child, "demo", "nondegenerate", "--out-dir", str(tmp_path / "entry")],
                   env=env, capture_output=True, check=True)
    csv = "nondegenerate.csv"
    assert (tmp_path / "entry" / csv).read_bytes() == (tmp_path / "main" / csv).read_bytes()
    missing = subprocess.run([*child, "run", "--config", str(tmp_path / "absent.json")],
                             env=env, capture_output=True, text=True)
    assert missing.returncode == cli.EXIT_CONFIG and missing.stderr.startswith("config error:")
