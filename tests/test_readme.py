"""The README's python quick start runs, prints what its comments say and
imports exactly what the package root exports."""
import ast
import inspect
import re
from pathlib import Path

import gaqb

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def test_quick_start_prints_its_comments(capsys):
    block = quick_start()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # a print call's comment starts with its output, up to the first ':'
    expected = [line.split("  # ", 1)[1].split(":", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert printed == expected


def test_package_root_exports_the_quick_start_names():
    imported = {alias.name for node in ast.walk(ast.parse(quick_start()))
                if isinstance(node, ast.ImportFrom) and node.module == "gaqb"
                for alias in node.names}
    exported = {name for name, value in vars(gaqb).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported
    assert gaqb.__version__
