"""What a command loads, and the package surface that loads on demand.

``theta``, ``double`` and ``crossed-product`` never load the word algebra,
the group systems or ``dataclasses``; ``core verify`` and ``group``
commands load what they run when they run it.  Pytest has already
imported every module, so the loading checks run in fresh interpreters
with only ``src`` on the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twograph
from twograph import algebra, doubling, graphs, groups, periodicity

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name the package exports, by the module it came from.
EXPORTS = {
    graphs: (
        "BLUE", "RED", "DEFAULT_PATH_CAP", "BadRangeError", "Degree", "GraphError",
        "IdOutOfRangeError", "NotBijectiveError", "Path", "PatternMismatchError",
        "SizeLimitError", "SpecMismatchError", "TwoGraph", "flip_graph",
        "random_two_graph", "twin_graph",
    ),
    periodicity: (
        "APERIODIC", "NO_CANDIDATE_PAIRS", "PERIODIC", "UNKNOWN",
        "DegenerateCountsError", "PeriodicityVerdict", "PeriodWitness",
        "candidate_pairing", "decide_periodicity", "minimal_exponents", "verify_period",
    ),
    doubling: ("CrossedProductReport", "DoubledTwoGraph", "crossed_product_report", "double"),
    algebra: (
        "GradedElement", "LevelMismatchError", "ModuleVector", "SuiteCheck",
        "identity_suite", "shift", "transfer",
    ),
    groups: (
        "ConditionReport", "ConditionVerdict", "FiniteAbelian", "GroupError", "Padic",
        "Solenoid", "SystemReport", "TableSizeError", "Torus", "check_conditions",
        "classify", "group_from_json", "group_to_json", "ker_size", "transfer_eval",
    ),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]

_FLIP = json.dumps(twograph.flip_graph(2, 2).to_json())
_BAD_GROUP = '{"kind": "finite", "factors": [0]}'
_HEAVY = ("twograph.algebra", "twograph.groups", "dataclasses")


def _fresh(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, with only ``src`` added to the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# Runs the argv lists given as JSON on argv[1] through cli.main, then prints
# which of _HEAVY are loaded.
_LOADED_AFTER = f"""
import contextlib, io, json, sys
from twograph import cli, graphs, periodicity
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m for m in {_HEAVY!r} if m in sys.modules]]))
"""


def _loaded_after(*argvs) -> list:
    result = _fresh("-c", _LOADED_AFTER, json.dumps(argvs))
    assert result.stderr == ""
    codes, loaded = json.loads(result.stdout)
    assert codes == [0] * len(argvs)
    return loaded


def test_graph_commands_load_neither_algebra_nor_groups_nor_dataclasses():
    loaded = _loaded_after(
        ["theta", "periodicity", "--spec", _FLIP],
        ["double", "--spec", _FLIP],
        ["crossed-product", "--spec", _FLIP],
    )
    assert loaded == []


def test_core_verify_loads_the_algebra():
    loaded = _loaded_after(["core", "verify", "--spec", _FLIP, "--max-degree", "1,1"])
    assert "twograph.algebra" in loaded


def test_group_g123_loads_the_groups():
    loaded = _loaded_after(["group", "g123", "--group", '{"kind": "torus", "rank": 1}'])
    assert "twograph.groups" in loaded


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["group", "g123", "--group", _BAD_GROUP],
            "error: invariant factor 0 < 1\n",
        ),
        (
            ["core", "verify", "--spec", _FLIP, "--max-degree", "a,1"],
            "error: bad --max-degree 'a,1', expected like '2,2'\n",
        ),
        (
            ["core", "verify", "--spec", _FLIP, "--max-degree=-1,2"],
            "error: max_degree must be non-negative, got (-1, 2)\n",
        ),
    ],
    ids=["g123-bad-factor", "core-verify-malformed-degree", "core-verify-negative-degree"],
)
def test_errors_of_lazily_loaded_commands_in_a_fresh_process(argv, err):
    result = _fresh("-m", "twograph", *argv)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", err)


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_every_exported_name_is_its_module_object(module, name):
    assert getattr(twograph, name) is getattr(module, name)
    namespace: dict = {}
    exec("from twograph import *", namespace)
    assert namespace[name] is getattr(module, name)


def test_all_lists_the_exports():
    assert sorted(twograph.__all__) == sorted(name for _, name in EXPORTED)
    assert set(twograph.__all__) <= set(dir(twograph))


def test_groups_error_is_the_graphs_one():
    assert groups.GroupError is graphs.GroupError is twograph.GroupError


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        twograph.no_such_name  # noqa: B018


def test_lazy_submodules_resolve_as_attributes_in_a_fresh_process():
    result = _fresh(
        "-c", "import twograph; print(twograph.algebra.__name__, twograph.groups.__name__)"
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "twograph.algebra twograph.groups\n", ""
    )


def test_undone_patch_of_a_lazy_name_does_not_stick(monkeypatch):
    original = algebra.shift

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "shift", patched)
    assert twograph.shift is patched
    monkeypatch.undo()
    assert twograph.shift is algebra.shift is original
    assert "shift" not in vars(twograph)
