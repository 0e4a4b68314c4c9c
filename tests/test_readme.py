"""The README's library tour is code that must keep running."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    rows = out.getvalue().splitlines()
    assert len(rows) == 11 and rows[0].startswith("t= 0.0")
    # effectively pure at t = 0 (S_eff = 0), mixing under the interaction
    assert "S_eff=0.0000" in rows[0] and "pure=True" in rows[0]
    assert "pure=False" in rows[-1]
