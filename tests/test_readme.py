"""The README's library tour is code that must keep running, and every
lelab name the README cites must exist."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import lelab

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


def test_every_qualified_name_in_the_readme_resolves():
    # a name moved or removed in the code must not live on in the README,
    # whether it is written lelab.reduction.reduce or reduction.reduce
    text = README.read_text(encoding="utf-8")
    modules = "|".join(m.name for m in pkgutil.iter_modules(lelab.__path__))
    short = set(re.findall(rf"(?<![\w./])(?:{modules})(?:\.\w+)+", text))
    assert "harness._Fold" in short and "_record._row_blocks" in short  # both forms are found
    names = set(re.findall(r"\blelab(?:\.\w+)+", text)) | {"lelab." + name for name in short}
    assert any(name.count(".") >= 2 for name in names)  # module members are found
    for name in sorted(names):
        parts = name.split(".")
        # the longest importable prefix is the module, the rest are attributes
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            break
        for attr in parts[cut:]:
            assert hasattr(obj, attr), f"README names {name}, which does not resolve"
            obj = getattr(obj, attr)


def test_the_command_line_block_is_the_usage_lelab_prints(capsys):
    from lelab import cli, harness

    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", text[text.index("## Command line"):], re.DOTALL).group(1)
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == block
    assert "{" + ",".join(sorted(harness.DEMO_CONFIGS)) + "} " in block
