"""The test extras cover what the tests import, and the benchmark's own
self-test passes.

``pip install -e .[test]`` must give a suite that collects: every
third-party module that a test file imports, at module level, inside a
function or through ``pytest.importorskip``, is a runtime dependency or a
``test`` extra, and the README's install line lists the same extras.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _distribution_names(requirements) -> set[str]:
    """``["pytest>=7", ...]`` -> ``{"pytest", ...}``."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules ``path`` imports, by statement or by
    ``pytest.importorskip``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "importorskip"
        ):
            names.add(node.args[0].value)
    return {name.partition(".")[0] for name in names}


def _project() -> dict:
    """``pyproject.toml``'s ``[project]`` table; skipped without ``tomllib``
    (Python 3.10)."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _test_extras() -> set[str]:
    return _distribution_names(_project()["optional-dependencies"]["test"])


def test_every_third_party_import_is_a_dependency_or_a_test_extra():
    declared = _distribution_names(_project()["dependencies"]) | _test_extras()
    files = sorted(TESTS.rglob("*.py"))
    local = {"numlaws"} | {path.stem for path in files}
    imported = set().union(*map(_imported_modules, files))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "pytest", "mpmath"} <= third_party
    assert sorted(third_party - declared) == []


def test_readme_install_line_lists_the_test_extras():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    line = re.search(r"^pip install (.*?)\s*# test extras", readme, re.M)
    assert set(line.group(1).split()) == _test_extras()


def test_benchmark_self_test_passes():
    """Every benchmark check passes on real outputs, and each planted
    corruption is caught by the check meant for it."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
