"""The README's python quick start runs and prints what its comments say."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_comments(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # a print call's comment starts with its output, up to the first ':'
    expected = [line.split("  # ", 1)[1].split(":", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert printed == expected
