"""The package's public surface: barstress.__all__ and README's library tour."""

import ast
import re
from pathlib import Path

import barstress

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_resolves_and_lists_every_import():
    tree = ast.parse(Path(barstress.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [n for n in barstress.__all__ if not hasattr(barstress, n)] == []
    assert sorted(imported - set(barstress.__all__)) == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
