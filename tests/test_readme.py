"""The README's code must name what the package provides."""

import re
import shlex
from pathlib import Path

from coopchan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_import():
    # run the import block under "Library entry points", so a name the
    # package no longer exports cannot stay listed there
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from coopchan import" in block
    exec(compile(block, str(README), "exec"), {})


def test_shell_examples_parse():
    # every coopchan line of the sh blocks, continuation lines joined,
    # parses with its command's options, so a removed flag cannot stay in
    # an example
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [words[1:] for words in commands if words[:1] == ["coopchan"]]
    assert len(commands) >= 10
    for name, *args in commands:
        main.commands[name].make_context(name, args)
