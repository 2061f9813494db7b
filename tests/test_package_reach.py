"""Every public function and class in the package is reached from outside
the tests.

The roots are the command line (``gaqb.cli.main``), the names the README's
python quick start imports from ``gaqb``, and the attributes the
benchmark's tracer wraps (``SITES`` in ``perfbench/tracer.py``).  From
them the walk follows the package's own references, by ``ast``, until
nothing new is reached.  A reference counts only from a reached
definition, or from the top-level code of a module that holds one, so a
helper that only an unreached function calls is unreached too.  A public
definition left over is reached only from tests, and belongs in them.
"""
import ast
from pathlib import Path

from conftest import quick_start_imports

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaqb"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


class Module:
    """One module's top-level bindings, its package imports and its other
    top-level code."""

    def __init__(self, path):
        self.name = "gaqb" if path.stem == "__init__" else f"gaqb.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self.defs = {}     # name -> the top-level statements that bind it
        self.imports = {}  # name -> (module, name) of a `from .module import name`
        self.top = []      # top-level statements that bind no name
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (f"gaqb.{node.module}", alias.name)
            elif isinstance(node, DEFINITIONS):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Assign):
                for name in {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                    self.defs.setdefault(name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.top.append(node)
        self.public = [node.name for node in tree.body
                       if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]

    def refs(self, nodes):
        """(module, name) of each binding of this module the nodes name."""
        names = {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}
        return [(self.name, n) for n in names if n in self.defs or n in self.imports]


def tracer_roots():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    sites = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SITES"])
    return [(modname, attr) for _, modname, attr in ast.literal_eval(sites)]


def reached(modules, roots):
    """(module, name) of every top-level binding the roots reach."""
    seen, loaded = set(), set()
    todo = list(roots)
    while todo:
        modname, name = todo.pop()
        module = modules[modname]
        if modname not in loaded:
            loaded.add(modname)
            todo += module.refs(module.top)
        if (modname, name) in seen:
            continue
        seen.add((modname, name))
        if name in module.imports:
            todo.append(module.imports[name])
        else:
            todo += module.refs(module.defs[name])
    return seen


def test_every_public_definition_is_reached_outside_tests():
    modules = {m.name: m for m in map(Module, sorted(PACKAGE.glob("*.py")))}
    roots = [("gaqb.cli", "main"), *(("gaqb", name) for name in quick_start_imports()),
             *tracer_roots()]
    seen = reached(modules, roots)
    test_only = [f"{m.name}.{name}" for m in modules.values() for name in m.public
                 if (m.name, name) not in seen]
    assert test_only == [], f"reached only from tests: {test_only}"
