import ast
from pathlib import Path


def test_every_test_import_is_used():
    # src/ is not scanned: gaqb/__init__.py re-exports names on purpose
    unused = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in imports for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
