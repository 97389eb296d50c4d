"""The benchmark's tracer still finds every function it wraps by name.

``perfbench/tracing.py`` replaces numlaws functions under the module
attributes that ``cli``, ``pipeline`` and ``fitting`` call them by.  A
rename inside numlaws would leave those spans unrecorded without failing
any other test, so this runs one traced ``analyze`` that reaches every
wrapped function.
"""

import importlib.util
from pathlib import Path

from numlaws import cli
from numlaws.cli import EXIT_OK

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "statement_fixture.txt"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_analyze_records_every_wrapped_function(tmp_path, capsys):
    tracing = load_tracing()
    text = FIXTURE.read_text(encoding="utf-8")
    years = (2019, 2020, 2021)
    paths = []
    for year in years:
        path = tmp_path / f"statement_{year}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    year_map = ",".join(f"statement_{year}={year}" for year in years)
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(
            [
                "analyze", "--input", *paths, "--cutoff", "--format", "both",
                "--out-dir", str(tmp_path / "out"), "--year-map", year_map,
            ]
        )
    capsys.readouterr()
    assert code == EXIT_OK
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name, _ in tracing.FUNCTIONS} | {"corpus.view"}
    assert expected - recorded == set()
