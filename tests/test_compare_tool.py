"""``tools/compare.py``: every leaf is compared, and a moved byte is named.

The CLI suite is called directly, so the kernel suite, which takes about
25 s, does not run here.
"""

import importlib.util
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


@pytest.fixture
def unload():
    """Drop the packages a test loads as ``twograph_compared_*``."""
    yield
    for key in [key for key in sys.modules if key.startswith("twograph_compared_")]:
        del sys.modules[key]


def test_every_leaf_is_in_the_byte_comparison(compare):
    assert compare.LEAVES.keys() == build_parser().leaves.keys()


def _report(compare, tmp_path, module: str, old: str, new: str) -> str:
    """The mismatch report of the CLI suite against a copy of ``src`` whose
    ``module`` has the one message text ``old`` changed to ``new``."""
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "twograph", other / "twograph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "twograph" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(compare.Mismatch) as caught:
        compare.cli_suite(compare.load(ROOT / "src", "twograph_compared_this"),
                          compare.load(tmp_path, "twograph_compared_other"))
    return str(caught.value)


def test_cli_suite_names_the_request_whose_message_moved(compare, unload, tmp_path):
    report = _report(compare, tmp_path, "groups.py", "table must be a list of rationals",
                     "table must be a list of rational numbers")
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
