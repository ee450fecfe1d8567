"""The README's command sections name exactly the options each command takes."""

import argparse
import re
from pathlib import Path

import pytest

from cesaro.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _section(command: str) -> str:
    """The README text under ``### <command> — ...``, up to the next heading."""
    match = re.search(rf"^### {command} — .*?$(.*?)(?=^#)", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no section for {command}"
    return match.group(1)


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_readme_section_names_the_command_flags(command):
    parser = _subparsers()[command]
    flags = {opt for action in parser._actions for opt in action.option_strings
             if opt.startswith("--")}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _section(command)))
    assert named - {"--help"} == flags - {"--help"}
