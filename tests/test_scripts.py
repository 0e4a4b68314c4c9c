import os
import subprocess
import sys
from pathlib import Path

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
