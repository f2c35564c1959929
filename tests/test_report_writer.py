"""The CLI's report writer prints exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

import contextlib
import enum
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twograph import cli, flip_graph, twin_graph
from twograph.doubling import double


def _dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    return out.getvalue()


_TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "😀", 'a"b\\c']
)
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-(10**40))
    | _FLOATS
    | _TEXT
)
_INTS = st.integers() | st.integers(max_value=-(10**40)) | st.integers(min_value=10**40)
# Lists of non-empty int lists take the writer's own branch; a bool or a
# tuple among the rows, or an empty row, must send them to the general one.
_INT_TABLES = st.lists(
    st.lists(_INTS, min_size=1, max_size=5)
    | st.lists(_INTS | st.booleans(), max_size=5)
    | st.lists(_INTS, max_size=5).map(tuple),
    max_size=5,
)
# Every report key is a str; the writer refuses any other key.
_KEYS = _TEXT
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.lists(_TEXT, max_size=5)
    | _INT_TABLES
    | st.dictionaries(_KEYS, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(obj):
    assert _emitted(obj) == _dumped(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        {"a": {}},
        (),
        [True, 1, False, 0],
        [1, True],
        [0, "0"],
        ["a", 1],
        {"3": "x", "1.5": "y", "true": "z"},
        {"null": [None], "": {"\u00e9": 1}},
        [-(10**60), 10**60],
        [-0.0, float("inf"), float("-inf"), float("nan")],
        [[-(10**60)], [0, 1, -1]],
        {"a": [[1, 2], [3]]},
        [[1], [True]],
        [[1], []],
        [[1], (2,)],
    ],
)
def test_writer_edge_cases(obj):
    assert _emitted(obj) == _dumped(obj)


class _Color(enum.IntEnum):
    RED = 3


_DOUBLED_THETA = double(flip_graph(4, 4)).to_json()["theta"]


# the fast branches: int tables of one %d template per row width, and str
# lists joined inside one pair of quotes when nothing needs escaping
@pytest.mark.parametrize(
    "obj",
    [
        [[1, 2, 3], [4], [5, 6], [-(10**40), 0, 7, 8, 9]],
        {"ragged": [[0], [1, 2], [3, 4, 5], [6, 7]]},
        [[1, _Color.RED], [2, 3]],
        [[_Color.RED]],
        ["a", _Color.RED, "b"],
        [[1, 2], [True, 3]],
        [[1, 2], [3, 2.0]],
        [[0.5], [1]],
        ["plain", '"', "2/3"],
        ["plain", "\\", "2/3"],
        ["plain", "\x7f", "2/3"],
        ["plain", "\x1f", "2/3"],
        ["plain", "caf\u00e9", "2/3"],
        ["plain", "\n", ""],
        ["-8/5", "0", "13/2"],
        _DOUBLED_THETA,
        {"theta": _DOUBLED_THETA, "n1": 16},
    ],
    ids=[
        "ragged", "ragged-in-dict", "intenum-row", "intenum-only", "intenum-in-strs",
        "bool-row", "float-row", "float-first", "quote", "backslash", "del", "control",
        "non-ascii", "newline", "plain-strs", "doubled-theta", "doubled-theta-in-dict",
    ],
)
def test_writer_fast_branches(obj):
    assert _emitted(obj) == _dumped(obj)


@pytest.mark.parametrize("obj", [_DOUBLED_THETA, ["-8/5", "0", "13/2", "7"]])
def test_writer_lays_out_known_lists_as_json_does(obj):
    # double marks a graph's rows, which the constructor checked, and
    # group transfer its values, written from digits, "-" and "/"
    assert cli._layout(cli._Known(obj), "\n") == json.dumps(obj, indent=2)


def test_writer_and_json_refuse_an_int_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-to-str digit limit in this interpreter")
    table = [[1, 2], [10**limit, 3]]
    with pytest.raises(ValueError):
        json.dumps(table, indent=2, sort_keys=True)
    with pytest.raises(ValueError):
        _emitted(table)


@pytest.mark.parametrize("obj", [[object()], {"a": {1: 0, "b": 1}}, {(1, 2): 0}])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _emitted(obj)


@pytest.mark.parametrize("obj", [{1: 0}, {"a": {None: 0}}, [{True: 0}], {1.5: [0]}])
def test_writer_rejects_a_key_that_is_not_a_str(obj):
    # json.dumps accepts these keys, but no report has one, so the writer
    # takes str keys only
    json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _emitted(obj)


_FLIP = json.dumps(flip_graph(2, 2).to_json())
_TWIN = json.dumps(twin_graph(2).to_json())
_FINITE = '{"kind": "finite", "factors": [2, 4]}'

_REPORTS = {
    "validate": ["theta", "validate", "--spec", _FLIP],
    "normal-form": ["theta", "normal-form", "--spec", _FLIP, "--word", "r1 b0",
                    "--pattern", "RB"],
    "periodicity": ["theta", "periodicity", "--spec", _TWIN, "--kmax", "2"],
    "double": ["double", "--spec", _FLIP],
    "double-4x4": ["double", "--spec", json.dumps(flip_graph(4, 4).to_json())],
    "crossed-product": ["crossed-product", "--spec", _TWIN, "--kmax", "2"],
    "core-verify": ["core", "verify", "--spec", _FLIP, "--max-degree", "1,1",
                    "--output", "json"],
    "classify": ["group", "classify", "--group", '{"kind": "padic", "p": 3}'],
    "g123": ["group", "g123", "--group", _FINITE],
    "transfer": ["group", "transfer", "--group", _FINITE, "--a", "2",
                 "--table", '[1, "1/2", -3, 0, "7/3", 2, 5, "-1/4"]'],
}


@pytest.mark.parametrize("kind", sorted(_REPORTS))
def test_report_bytes_are_json_dumps_of_the_report(capsys, kind):
    assert cli.main(_REPORTS[kind]) == 0
    out = capsys.readouterr().out
    assert out == _dumped(json.loads(out))
