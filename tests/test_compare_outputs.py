"""`tools/compare_outputs.py`: how far the numbers of a differing file
moved."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py"))
TOOL = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(TOOL)


def test_moved_counts_the_cells_of_a_csv_and_their_largest_change():
    base = b"r,u\n0,1\n0.5,0\n1,4\n1.5,nan\n"
    head = b"r,u\n0,1.5\n0.5,2e-300\n1,4\n1.5,nan\n"
    assert TOOL.moved("snapshots/t0.csv", base, head) == (
        "2 numeric cells differ; largest relative change where both are "
        "nonzero 0.5; 1 zero on one side only")


def test_moved_walks_a_json_file_and_names_unpaired_cells():
    base = b'{"steps": 5, "pass": true, "rows": [{"slope": 2.0}]}'
    head = b'{"steps": 5, "pass": false, "rows": [{"slope": 2.5}, {"x": 1}]}'
    assert TOOL.moved("summary.json", base, head) == (
        "1 numeric cells differ; largest relative change where both are "
        "nonzero 0.25; 0 zero on one side only; 1 cells on one side only")


def test_moved_says_nothing_of_other_files():
    assert TOOL.moved("notes.txt", b"1", b"2") == ""
