"""The comparison of ``tools/output_digests.py``, on recorded digest dicts;
no workload runs here."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# the tool imports bench_pairs as its neighbour, as it does when run as a script
sys.path.insert(0, str(TOOLS))
_spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)

BASE = {
    "tiny/random00/report.json": "a0",
    "tiny/fault_b_nonfinite/error": "e1",
    "statements/torlunlunc/report.json": "b2",
    "statements/torlunlunc/torlunlunc_2015.digits.gamma.csv": "c3",
}


def test_equal_digests_are_all_the_same():
    comparison = output_digests.compare(BASE, dict(BASE))
    assert comparison == {"same": sorted(BASE), "changed": [], "base_only": [],
                          "head_only": []}
    assert not output_digests.differs(comparison)


def test_changed_and_one_sided_names_are_told_apart():
    head = dict(BASE)
    head["tiny/random00/report.json"] = "a9"
    del head["tiny/fault_b_nonfinite/error"]
    head["tiny/fault_b_nonfinite/report.json"] = "f4"
    comparison = output_digests.compare(BASE, head)
    assert comparison == {
        "same": ["statements/torlunlunc/report.json",
                 "statements/torlunlunc/torlunlunc_2015.digits.gamma.csv"],
        "changed": ["tiny/random00/report.json"],
        "base_only": ["tiny/fault_b_nonfinite/error"],
        "head_only": ["tiny/fault_b_nonfinite/report.json"],
    }
    assert output_digests.differs(comparison)


def test_any_one_kind_of_difference_is_a_difference():
    for head in ({}, {**BASE, "bulk/bulk0/report.json": "d5"},
                 {**BASE, "statements/torlunlunc/report.json": "b3"}):
        assert output_digests.differs(output_digests.compare(BASE, head))
    assert not output_digests.differs(output_digests.compare({}, {}))

