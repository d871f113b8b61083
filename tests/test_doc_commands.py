"""Every ``repro`` command the README and ``docs/*.md`` show parses.

Each fenced ``bash`` block is read with its ``\\`` continuations joined
and its comments stripped, and every command in it that starts with
``repro`` goes to ``repro.cli.build_parser().parse_args``. Only the
parsing is checked; the commands are not run.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BLOCK = re.compile(r"^```bash\n(.*?)^```", re.S | re.M)


def documented_commands() -> List[Tuple[str, List[str]]]:
    """``(where, arguments)`` of each documented ``repro`` command:
    ``where`` is the document and the line the command starts on."""
    commands = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for block in BLOCK.finditer(text):
            first = text.count("\n", 0, block.start(1)) + 1
            pending = ""
            for offset, line in enumerate(block.group(1).splitlines()):
                if not pending:
                    start = first + offset
                if line.endswith("\\"):
                    pending += line[:-1] + " "
                    continue
                words = shlex.split(pending + line, comments=True)
                pending = ""
                if words[:1] == ["repro"]:
                    commands.append((f"{document.name}:{start}", words[1:]))
    return commands


COMMANDS = documented_commands()


def test_the_readme_and_the_tutorial_show_commands():
    shown = {where.split(":")[0] for where, _ in COMMANDS}
    assert {"README.md", "TUTORIAL.md"} <= shown


@pytest.mark.parametrize(
    "arguments", [arguments for _, arguments in COMMANDS],
    ids=[where for where, _ in COMMANDS],
)
def test_a_documented_command_parses(arguments, capsys):
    try:
        build_parser().parse_args(arguments)
    except SystemExit as exc:
        if exc.code:
            pytest.fail(
                f"repro {shlex.join(arguments)} does not parse: "
                f"{capsys.readouterr().err.strip()}"
            )
