"""The README's python examples name only what ``fragdiff`` exports."""

import functools
import re
from pathlib import Path

import fragdiff as fd

README = Path(__file__).resolve().parent.parent / "README.md"


def _resolves(dotted):
    try:
        functools.reduce(getattr, dotted.split("."), fd)
    except AttributeError:
        return False
    return True


def test_readme_python_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    names = {m for block in blocks for m in re.findall(r"\bfd\.((?:\w+\.)*\w+)", block)}
    assert "run_simulation" in names  # the Library block was found
    assert sorted(n for n in names if not _resolves(n)) == []
