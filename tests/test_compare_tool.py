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


def test_cli_suite_names_the_request_whose_message_moved(compare, unload, tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "twograph", other / "twograph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    groups = other / "twograph" / "groups.py"
    text = groups.read_text(encoding="utf-8")
    assert text.count("table must be a list of rationals") == 1
    groups.write_text(text.replace("table must be a list of rationals",
                                   "table must be a list of rational numbers"), encoding="utf-8")
    with pytest.raises(compare.Mismatch) as caught:
        compare.cli_suite(compare.load(ROOT / "src", "twograph_compared_this"),
                          compare.load(tmp_path, "twograph_compared_other"))
    request = ["group", "transfer", "--group", '{"kind": "finite", "factors": [2]}',
               "--a", "1", "--table", '"5"']
    report = str(caught.value)
    assert report.startswith(f"MISMATCH in cli.main on {request!r}: this tree ")
    assert "list of rationals" in report and "list of rational numbers" in report
