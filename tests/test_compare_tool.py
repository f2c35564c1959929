"""``tools/compare.py``: every leaf is compared, and a moved byte is named.

The CLI suite is called directly, so the kernel suite, which takes about
25 s, does not run here.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from twograph.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_tool", ROOT / "tools" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unload():
    """Drop the packages loaded as ``twograph_compared_*``."""
    for key in [key for key in sys.modules if key.startswith("twograph_compared_")]:
        del sys.modules[key]


@pytest.fixture
def unload():
    """Drop the compared packages after the test."""
    yield
    _unload()


def test_every_leaf_is_in_the_byte_comparison(compare):
    assert compare.LEAVES.keys() == build_parser().leaves.keys()


def _suite(compare, tmp_path, module: str, old: str, new: str, declared: list) -> str:
    """The CLI suite with the manifest ``declared`` against a copy of
    ``src`` whose ``module`` has the one message text ``old`` changed to
    ``new``; the copy is made on the first call for ``tmp_path``."""
    other = tmp_path / "src"
    if not other.exists():
        shutil.copytree(ROOT / "src" / "twograph", other / "twograph",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = other / "twograph" / module
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
    _unload()  # a copy another test or fixture loaded
    return compare.cli_suite(compare.load(ROOT / "src", "twograph_compared_this"),
                             compare.load(tmp_path, "twograph_compared_other"), declared)


def _report(compare, tmp_path, module: str, old: str, new: str, declared=()) -> str:
    """The mismatch report of :func:`_suite`, with no change declared by
    default."""
    with pytest.raises(compare.Mismatch) as caught:
        _suite(compare, tmp_path, module, old, new, list(declared))
    return str(caught.value)


def _pasted(report: str) -> list:
    """The entries the report prints for its undeclared requests, pasted
    and given ROADMAP item 19."""
    entries = json.loads(report[report.rindex("ROADMAP item:\n") + len("ROADMAP item:\n"):])
    assert entries and all(entry["item"] is None for entry in entries)
    return [{**entry, "item": 19} for entry in entries]


# a message that two malformed `group transfer` requests print
_MOVED = ("groups.py", "table must be a list of rationals", "table must be a list of rational numbers")


@pytest.fixture(scope="module")
def moved(compare, tmp_path_factory):
    """The directory of the ``_MOVED`` copy, and its report with nothing
    declared."""
    tmp_path = tmp_path_factory.mktemp("moved")
    return tmp_path, _report(compare, tmp_path, *_MOVED)


def test_cli_suite_names_the_request_whose_message_moved(moved):
    _, report = moved
    request = ["group", "transfer", "--group", '{"kind": "finite", "factors": [2]}',
               "--a", "1", "--table", '"5"']
    assert report.startswith(f"MISMATCH in cli.main on {request!r}: this tree ")
    assert "list of rationals" in report and "list of rational numbers" in report


@pytest.mark.parametrize(
    "module, old, new, argv",
    [
        ("graphs.py", "listed twice", "listed two times",
         ["theta", "validate", "--spec",
          '{"n1": 2, "n2": 1, "theta": [[0, 0, 0, 0], [0, 0, 0, 1]]}']),
        ("groups.py", "invariant factor {d} < 1", "invariant factor {d} is below 1",
         ["group", "classify", "--group", '{"kind": "finite", "factors": [0]}']),
    ],
)
def test_cli_suite_sees_a_moved_input_error_message(compare, unload, tmp_path,
                                                    module, old, new, argv):
    # the malformed --spec and --group values reach the readers' messages
    report = _report(compare, tmp_path, module, old, new)
    assert report.startswith(f"MISMATCH in cli.main on {argv!r}: this tree ")


def test_a_correctly_declared_change_passes(compare, unload, moved):
    tmp_path, report = moved
    declared = _pasted(report)
    assert len(declared) == 2
    line = _suite(compare, tmp_path, *_MOVED, declared)
    assert line.endswith(" CLI requests, 2 differing as declared: 0 mismatches")


def test_a_change_declared_with_the_wrong_hash_fails(compare, unload, moved):
    tmp_path, report = moved
    declared = _pasted(report)
    case = declared[-1]["case"]
    declared[-1]["sha256"] = compare.digest((1, "", "error: table must be a list of rationals"))
    report = _report(compare, tmp_path, *_MOVED, declared)
    assert report.startswith(f"MISMATCH in declared case {case} on ")
    assert report.count("\n") == 0


def test_a_declaration_without_a_roadmap_item_fails(compare, unload, moved):
    tmp_path, report = moved
    declared = [{**entry, "item": None} for entry in _pasted(report)]
    report = _report(compare, tmp_path, *_MOVED, declared)
    assert report.splitlines() == [
        f"MISMATCH: declared case {entry['case']} names no ROADMAP item" for entry in declared
    ]
