"""The package namespace: ``numlaws.__all__`` lists exactly what it exports."""

import re
import types
from pathlib import Path

import numlaws

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
