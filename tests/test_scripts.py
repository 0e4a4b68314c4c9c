import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lelab.config import MAX_TRACE_CELLS, validate_config
from lelab.errors import DimensionCapError

ROOT = Path(__file__).resolve().parents[1]


def test_entropy_vs_coupling_writes_plain_floats(tmp_path):
    out = tmp_path / "evc.csv"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "entropy_vs_coupling.py"),
                    "--steps", "4", "--out", str(out)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   capture_output=True, check=True)
    header, *rows = out.read_text().splitlines()
    assert header == "A,max_S_eff,final_S_eff,purity_drift"
    assert len(rows) == 9
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 4
        values = [float(c) for c in cells]  # np.float64(...) would raise here
        assert values[3] <= 1e-10


def test_the_long_trace_guard_runs_at_the_trace_cell_cap():
    # the memory guard's long line must be the longest trace the config admits
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import peak_rss_guard as guard
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    assert validate_config(json.dumps(guard.LONG)).time_grid.steps == guard.LONG_STEPS
    longer = dict(guard.LONG, time_grid=dict(guard.LONG["time_grid"], steps=guard.LONG_STEPS + 1))
    with pytest.raises(DimensionCapError, match=f"over the cap of {MAX_TRACE_CELLS}"):
        validate_config(json.dumps(longer))


def test_output_digests_name_every_output_with_the_sha256_of_its_bytes(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import output_digests
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    assert output_digests.main(["--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split("  ")[1] for line in lines]
    assert names == sorted(
        ["check.txt", "classical-kick/trace.csv", "cubic-yukawa/trace.csv", "line-long/trace.csv"]
        + [f"{w}/summary.json" for w in ("classical-kick", "cubic-yukawa", "line-long")]
        + [f"demo/{name}{ext}" for name in ("classical-kick", "free-invariance", "nondegenerate",
                                           "yukawa-mixing") for ext in (".csv", ".summary.json")]
        + [f"bohr-M{m}-seed{seed}.json" for m in (1, 3) for seed in (0, 7)])
    for line, name in zip(lines, names):
        assert line.split("  ")[0] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    for name in names:
        if name.endswith("summary.json"):  # hashed without the one value reruns change
            summary = json.loads((tmp_path / name).read_text())
            assert "wall_time_s" not in summary and "all_checks_pass" in summary
    assert (tmp_path / "check.txt").read_text().startswith("ok   purity_conserved\n")
