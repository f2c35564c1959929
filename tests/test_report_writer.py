"""The CLI's report writer prints exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twograph import cli, flip_graph, twin_graph


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
