"""The package namespace: ``numlaws.__all__`` lists exactly what it exports,
and the README names only what exists."""

import re
import shlex
import types
from pathlib import Path

import numlaws
from numlaws.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_matches_the_public_names():
    """Every listed name resolves, none is listed twice, and every public
    attribute other than a submodule is listed."""
    assert len(set(numlaws.__all__)) == len(numlaws.__all__)
    assert [name for name in numlaws.__all__ if not hasattr(numlaws, name)] == []
    public = {
        name
        for name, value in vars(numlaws).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(numlaws.__all__)) == []


def test_readme_names_are_exported():
    """Every ``nl.<name>`` in the README's Python blocks is exported, so a
    stale quick start fails the suite."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    names = set(re.findall(r"\bnl\.(\w+)", "".join(blocks)))
    assert names
    assert sorted(names - set(numlaws.__all__)) == []


def test_readme_cli_commands_parse():
    """Every ``numlaws …`` command in the README's bash blocks parses with
    the CLI's own parser, optional parts included, so a stale flag fails
    the suite."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text("utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [
        shlex.split(line.replace("[", "").replace("]", ""))
        for line in lines
        if line.startswith("numlaws ")
    ]
    assert {argv[1] for argv in commands} == {"stats", "analyze", "synth", "cutoff"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
