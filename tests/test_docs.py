"""The README's library example runs as written, and every Python
snippet's imports resolve, so a signature change or a moved name fails
here rather than in the docs."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def _python_block(heading: str) -> str:
    """The first ```python block under ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return BLOCK.search(section).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_python_block("## Library use"), str(README), "exec"), {})
    printed = capsys.readouterr().out
    for name in ("sam", "ergas", "scc", "q2n"):
        assert f"'{name}'" in printed, printed


def test_every_python_block_imports_resolve():
    """Only the imports run: the training snippet would read and write
    directories the test has no business making."""
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    for block in blocks:
        imports = [node for node in ast.parse(block).body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        module = ast.Module(imports, type_ignores=[])
        exec(compile(module, str(README), "exec"), {})
