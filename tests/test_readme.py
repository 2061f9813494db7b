"""The README's python quick start runs, prints what its comments say and
imports exactly what the package root exports."""
import inspect

from conftest import README, quick_start, quick_start_imports
import gaqb


def test_quick_start_prints_its_comments(capsys):
    block = quick_start()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # a print call's comment starts with its output, up to the first ':'
    expected = [line.split("  # ", 1)[1].split(":", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert printed == expected


def test_package_root_exports_the_quick_start_names():
    imported = quick_start_imports()
    exported = {name for name, value in vars(gaqb).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported
    assert gaqb.__version__
