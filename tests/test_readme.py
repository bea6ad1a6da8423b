"""The README's code must name what the package provides."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_import():
    # run the import block under "Library entry points", so a name the
    # package no longer exports cannot stay listed there
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from coopchan import" in block
    exec(compile(block, str(README), "exec"), {})
