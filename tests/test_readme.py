"""The README's command-line examples print what the README says they print,
and the limits it states are the ones the code enforces.

Every example in the "Command line" section that states a result with
``# -> result`` is run through ``cli.main`` from the repository root; the
result may sit on the command's own line or alone on the line after it.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from linkhomotopy.cli import main

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"#\s*->\s*(.*)$")


def command_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def readme_examples() -> list[tuple[list[str], str]]:
    examples = []
    argv = None
    for line in command_block().splitlines():
        if line.startswith("linkhomotopy "):
            argv = shlex.split(line, comments=True)[1:]
        result = RESULT.search(line)
        if result and argv is not None:
            examples.append((argv, result.group(1).rstrip()))
            argv = None
    return examples


EXAMPLES = readme_examples()


def test_readme_examples_found():
    commands = [" ".join(argv[:2]) for argv, _ in EXAMPLES]
    assert "link classify" in commands  # its result is on the next line
    assert len(EXAMPLES) == command_block().count("# ->")


@pytest.mark.parametrize(("argv", "expected"), EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def power(value: int) -> str:
    """A power of two as the README writes it, e.g. ``2**22``."""
    assert value & (value - 1) == 0, value
    return f"`2**{value.bit_length() - 1}`"


LIMITS = {
    "homotopy._MAX_LYNDON_WORDS": lambda v: f"more than {power(v)} summands ({v:,})",
    "homotopy._MAX_LYNDON_LETTERS": lambda v: f"more than {power(v)} letters ({v:,})",
    "homotopy._MAX_LYNDON_WEIGHTS": lambda v: f"more than {power(v)} sphere dimensions ({v:,})",
    "magnus._MAX_SLOTS": lambda v: f"more than {power(v)} slots ({v:,})",
    "magnus._MAX_BYTES": lambda v: f"more than {power(v)} bytes ({v // 2**20} MiB)",
    "magnus._MAX_LETTERS": lambda v: f"decode to more than {power(v)} letters ({v:,})",
    "links._MAX_PRESET_COMPONENTS": lambda v: f"takes at most {v} components",
    "words._MAX_NESTING": lambda v: f"nest at most {v} levels deep",
    "words._MAX_SYLLABLES": lambda v: f"more than {power(v)} syllables ({v:,})",
}


@pytest.mark.parametrize("constant", LIMITS)
def test_readme_states_each_limit(constant):
    module, name = constant.split(".")
    value = getattr(importlib.import_module(f"linkhomotopy.{module}"), name)
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert LIMITS[constant](value) in text


def test_readme_lists_every_module_the_layers_import():
    # every module a layer imports anywhere in its source, by top-level name,
    # except __future__ and the package's own modules
    package = importlib.import_module("linkhomotopy")
    imported = set()
    for layer in package._LAYERS:
        path = ROOT / "src" / "linkhomotopy" / f"{layer}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    imported = {name.split(".")[0] for name in imported} - {"__future__", "linkhomotopy"}
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    listed = re.search(r"the layers import only ([^.]*)\.", text).group(1)
    assert imported == set(re.findall(r"`(\w+)`", listed))
