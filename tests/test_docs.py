"""The README's library example runs as written, so a signature change
fails here rather than in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_python_block("## Library use"), str(README), "exec"), {})
    printed = capsys.readouterr().out
    for name in ("sam", "ergas", "scc", "q2n"):
        assert f"'{name}'" in printed, printed
