"""The package's public surface: barstress.__all__ and README's library tour."""

import ast
import re
from pathlib import Path

import barstress
from test_benchmark_names import TRACED

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


def test_every_public_name_is_used_by_the_package_or_traced():
    # A name only tests call is surface to keep for nothing. Docstrings and
    # comments do not count: a use is a name or attribute in parsed code.
    used = set()
    for path in Path(barstress.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    traced = {name.partition(".")[2] for name in TRACED}
    assert sorted(set(barstress.__all__) - used - traced) == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
