"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twograph import cli, flip_graph, twin_graph
from twograph.cli import main
from twograph.graphs import GraphError, GroupError


@pytest.fixture
def twin_spec(tmp_path):
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(twin_graph(2).to_json()))
    return str(path)


@pytest.fixture
def flip_spec(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(flip_graph(2, 2).to_json()))
    return str(path)


@pytest.fixture
def mixed_spec(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(flip_graph(2, 3).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def _int_error(text: str) -> str:
    """The interpreter's own message on converting ``text`` to an int."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text[:20]}... converts")


_TOO_LONG = "9" * 5000
# The parametrized tables below that check an error message give each row
# the id pytest first generated for it, from the expected message of that
# time, written out: rewording a message renames no test.  _LIMIT is the
# digit-limit message as those ids spell it.
_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has "
    "5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)
_FINITE_2 = '{"kind": "finite", "factors": [2]}'
# Every integer option by leaf, after what else its leaf requires; the
# graph leaves get their --spec from the test.  The guard test below
# checks that these are all the typed options there are.
_INT_OPTIONS = {
    ("theta", "periodicity"): ((), ("--kmax", "--path-cap")),
    ("crossed-product",): ((), ("--kmax", "--path-cap")),
    ("core", "verify"): ((), ("--seed", "--path-cap")),
    ("group", "classify"): (("--group", _FINITE_2), ("--range",)),
    ("group", "transfer"): (("--group", _FINITE_2, "--table", "[0, 1]"), ("--a",)),
    ("group", "g123"): (("--group", _FINITE_2), ("--range",)),
}
# int() reads each of these, but an integer option is ASCII digits after
# at most one "-"
_LOOSE_INTS = {
    f"{' '.join(words)} {option} {text!r}": (
        (*words, *required, option, text),
        cli.build_parser().leaves[words].format_usage()
        + f"error: argument {option}: invalid int value: {text!r}\n",
    )
    for words, (required, options) in _INT_OPTIONS.items()
    for option in options
    for text in ("+1", "1_0", " 7", "\u0663", "\uff11")
}

# --max-degree is "m,n": split on "," alone, so parentheses, spaces and
# extra commas are refused, not read as separators
_LOOSE_DEGREES = (")1((2", "1,,,2", "1 2", "(1)(1)", "(1,1)", "1, 2")


def test_validate_good_spec(capsys, twin_spec):
    code, out = run(capsys, "theta", "validate", "--spec", twin_spec)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_bad_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"n1": 2, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]}
        )
    )
    code = main(["theta", "validate", "--spec", str(path)])
    assert code == 1


def test_missing_file_is_input_error(capsys):
    assert main(["theta", "validate", "--spec", "/nonexistent.json"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["theta", "periodicity"])  # missing --spec
    assert exc.value.code == 1


def test_normal_form(capsys, twin_spec):
    code, out = run(
        capsys, "theta", "normal-form", "--spec", twin_spec, "--word", "r0 b1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"] == "b0 r1"
    assert data["degree"] == [1, 1]


def test_normal_form_with_pattern(capsys, twin_spec):
    code, out = run(
        capsys,
        "theta",
        "normal-form",
        "--spec",
        twin_spec,
        "--word",
        "b0 r1",
        "--pattern",
        "RB",
    )
    data = json.loads(out)
    assert data["reordered"] == "r0 b1"


def test_empty_pattern_reorders_only_the_empty_word(capsys, twin_spec):
    argv = ["theta", "normal-form", "--spec", twin_spec, "--pattern", ""]
    code, out = run(capsys, *argv, "--word", "")
    assert (code, json.loads(out)["reordered"]) == (0, "")
    assert main([*argv, "--word", "b0"]) == 1
    assert capsys.readouterr().err == "error: pattern does not match degree (1, 0)\n"


def test_periodicity_twin_exit_zero(capsys, twin_spec):
    code, out = run(capsys, "theta", "periodicity", "--spec", twin_spec)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "periodic"
    assert data["witness"]["a"] == 1 and data["witness"]["b"] == 1


def test_periodicity_flip_aperiodic(capsys, flip_spec):
    code, out = run(
        capsys, "theta", "periodicity", "--spec", flip_spec, "--kmax", "3"
    )
    assert code == 0
    assert json.loads(out)["kind"] == "aperiodic"


def test_periodicity_unknown_exit_two(capsys, flip_spec):
    code, out = run(
        capsys, "theta", "periodicity", "--spec", flip_spec, "--path-cap", "1"
    )
    assert code == 2
    assert json.loads(out)["kind"] == "unknown"


@pytest.mark.parametrize("command", [("theta", "periodicity"), ("crossed-product",)])
@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_kmax_below_one_is_input_error(capsys, twin_spec, command, kmax):
    # an empty search must not read as "aperiodic" (or "simple")
    code = main([*command, "--spec", twin_spec, "--kmax", kmax])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: kmax must be at least 1, got {kmax}\n"


def test_negative_max_degree_is_input_error(capsys, flip_spec):
    code = main(["core", "verify", "--spec", flip_spec, "--max-degree=-1,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: max_degree must be non-negative, got (-1, 2)\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("theta", "normal-form", "--word", "b"), "error: bad letter 'b'\n"),
        (
            ("core", "verify", "--max-degree", "a,1"),
            "error: bad --max-degree 'a,1', expected like '2,2'\n",
        ),
        # int() reads each of these, but a letter id is ASCII digits, and a
        # degree part ASCII digits after at most one "-"
        *[
            (("theta", "normal-form", "--word", word), f"error: bad letter {word!r}\n")
            for word in ("b+1", "b-0", "b١", "b1_0", "r²")
        ],
        *[
            (
                ("core", "verify", f"--max-degree={degree}"),
                f"error: bad --max-degree {degree!r}, expected like '2,2'\n",
            )
            for degree in ("+1,2", "1,+2", "1_0,1", "١,1", "--1,2", "1,2,3")
        ],
        # digits past the interpreter's int-to-str limit
        (
            ("theta", "normal-form", "--word", "r0 b" + _TOO_LONG),
            f"error: blue letter 1 has an id too long to read: {_int_error(_TOO_LONG)}\n",
        ),
        (
            ("core", "verify", f"--max-degree=1,{_TOO_LONG}"),
            f"error: --max-degree has a part too long to read: {_int_error(_TOO_LONG)}\n",
        ),
        # a degree is two parts split by one "," and nothing else
        *[
            (
                ("core", "verify", "--max-degree", degree),
                f"error: bad --max-degree {degree!r}, expected like '2,2'\n",
            )
            for degree in _LOOSE_DEGREES
        ],
        *_LOOSE_INTS.values(),
    ],
    ids=[
        "argv0-error: bad letter 'b'\n",
        "argv1-error: bad --max-degree 'a,1', expected like '2,2'\n",
        "argv2-error: bad letter 'b+1'\n",
        "argv3-error: bad letter 'b-0'\n",
        "argv4-error: bad letter 'b\u0661'\n",
        "argv5-error: bad letter 'b1_0'\n",
        "argv6-error: bad letter 'r\u00b2'\n",
        "argv7-error: bad --max-degree '+1,2', expected like '2,2'\n",
        "argv8-error: bad --max-degree '1,+2', expected like '2,2'\n",
        "argv9-error: bad --max-degree '1_0,1', expected like '2,2'\n",
        "argv10-error: bad --max-degree '\u0661,1', expected like '2,2'\n",
        "argv11-error: bad --max-degree '--1,2', expected like '2,2'\n",
        "argv12-error: bad --max-degree '1,2,3', expected like '2,2'\n",
        'argv13-error: blue letter 1 has an id too long to read: ' + _LIMIT + '\n',
        'argv14-error: --max-degree has a part too long to read: ' + _LIMIT + '\n',
        *[f"argv{i}-error: bad --max-degree {degree!r}, expected like '2,2'\n"
          for i, degree in enumerate(_LOOSE_DEGREES, 15)],
        *_LOOSE_INTS,
    ],
)
def test_malformed_number_names_the_field(flip_spec, argv, err):
    if argv[0] != "group":
        argv = (*argv, "--spec", flip_spec)
    # a usage error exits 1 from the parser
    assert _main_result(argv) == (1, "", err)


def test_every_typed_option_reads_ints_by_the_one_rule():
    # a new type=int option would skip the rule, and the table above
    typed = {}
    for words, leaf in cli.build_parser.__wrapped__().leaves.items():
        for action in leaf._actions:
            if action.type is not None:
                assert action.type is cli._int_arg, action.option_strings
                typed.setdefault(words, []).append(action.option_strings[0])
    assert typed == {words: list(options) for words, (_, options) in _INT_OPTIONS.items()}


@pytest.mark.parametrize(
    "cap, code, err",
    [
        ("1", 1, "error: 2 paths of degree (0, 1) exceed cap 1\n"),
        ("3", 1, "error: 4 paths of degree (1, 1) exceed cap 3\n"),
        ("4", 0, ""),
    ],
    ids=[
        '1-1-error: 2 paths of degree (0, 1) exceed cap 1\n',
        '3-1-error: 4 paths of degree (1, 1) exceed cap 3\n',
        '4-0-',
    ],
)
def test_core_verify_path_cap(capsys, flip_spec, cap, code, err):
    # the cap covers every degree up to --max-degree, in degrees_upto order
    argv = ["core", "verify", "--spec", flip_spec, "--max-degree", "1,1"]
    assert main([*argv, "--path-cap", cap]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (captured.out == "") == (code == 1)


def test_periodicity_unknown_detail(capsys, flip_spec, tmp_path):
    code, out = run(
        capsys, "theta", "periodicity", "--spec", flip_spec, "--kmax", "3", "--path-cap", "3"
    )
    assert code == 2
    assert json.loads(out) == {
        "checked": [[1, 1]],
        "detail": "path cap hit at (a, b) = (2, 2): 4 paths of degree (2, 0) exceed cap 3",
        "kind": "unknown",
        "kmax": 3,
    }
    # the blue count is checked before the red one
    spec = tmp_path / "flip42.json"
    spec.write_text(json.dumps(flip_graph(4, 2).to_json()))
    code, out = run(capsys, "theta", "periodicity", "--spec", str(spec), "--path-cap", "3")
    assert code == 2
    assert json.loads(out)["detail"] == (
        "path cap hit at (a, b) = (1, 2): 4 paths of degree (1, 0) exceed cap 3"
    )


def test_crossed_product_unknown_detail(capsys, flip_spec):
    code, out = run(capsys, "crossed-product", "--spec", flip_spec, "--path-cap", "10")
    assert code == 2
    assert json.loads(out)["doubled_periodicity"] == {
        "checked": [[1, 1]],
        "detail": "path cap hit at (a, b) = (2, 2): 16 paths of degree (2, 0) exceed cap 10",
        "kind": "unknown",
        "kmax": 4,
    }


def test_crossed_product_degenerate_names_source_counts(capsys):
    spec = json.dumps({"n1": 1, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 1, 0]]})
    code = main(["crossed-product", "--spec", spec])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: need at least two edges of each color, got (1, 2)\n"


def test_double_emits_provenance(capsys, twin_spec):
    code, out = run(capsys, "double", "--spec", twin_spec)
    assert code == 0
    data = json.loads(out)
    assert data["n1"] == 4 and "provenance" in data


def test_crossed_product_twin(capsys, twin_spec):
    code, out = run(capsys, "crossed-product", "--spec", twin_spec)
    assert code == 0
    data = json.loads(out)
    assert data["simple"] is False


def test_crossed_product_mixed_counts(capsys, mixed_spec):
    code, out = run(capsys, "crossed-product", "--spec", mixed_spec)
    assert code == 0
    data = json.loads(out)
    assert data["simple"] is True and data["purely_infinite"] is True


def test_crossed_product_unknown_exit_two(capsys, flip_spec):
    code, out = run(
        capsys, "crossed-product", "--spec", flip_spec, "--path-cap", "1"
    )
    assert code == 2
    data = json.loads(out)
    assert data["simple"] is None
    assert data["doubled_periodicity"]["kind"] == "unknown"


def test_core_verify_table(capsys, flip_spec):
    code, out = run(
        capsys, "core", "verify", "--spec", flip_spec, "--max-degree", "1,1"
    )
    assert code == 0
    assert "transfer-identity-generators" in out
    assert "FAIL" not in out


def test_core_verify_json(capsys, twin_spec):
    code, out = run(
        capsys,
        "core",
        "verify",
        "--spec",
        twin_spec,
        "--max-degree",
        "1,1",
        "--output",
        "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert all(entry["passed"] for entry in checks)


_SUITE_TABLES = {
    "twin2": """\
transfer-unit                        4  pass
shift-unit                           4  pass
transfer-identity-generators      1250  pass
transfer-identity-all-degrees      676  pass
transfer-action                    225  pass
transfer-section                   100  pass
module-orthonormal                   4  pass
module-product                      81  pass
cuntz-commutation                   16  pass
cuntz-family                         2  pass
covariance                          25  pass
star-axioms                         25  pass
""",
    "flip23": """\
transfer-unit                        4  pass
shift-unit                           4  pass
transfer-identity-generators      5000  pass
transfer-identity-all-degrees     2626  pass
transfer-action                    450  pass
transfer-section                   200  pass
module-orthonormal                   4  pass
module-product                     171  pass
cuntz-commutation                   36  pass
cuntz-family                         2  pass
covariance                          50  pass
star-axioms                         25  pass
""",
}


@pytest.mark.parametrize(
    "name, graph", [("twin2", twin_graph(2)), ("flip23", flip_graph(2, 3))]
)
def test_core_verify_stdout_bytes(capsys, name, graph):
    # the exact suite output, in both formats, at the default seed
    argv = ("core", "verify", "--spec", json.dumps(graph.to_json()), "--max-degree", "1,1")
    table = _SUITE_TABLES[name]
    checks = []
    for line in table.splitlines():
        check, cases, _ = line.split()
        checks.append({"cases": int(cases), "detail": "", "name": check, "passed": True})
    assert run(capsys, *argv, "--output", "table") == (0, table)
    assert run(capsys, *argv, "--output", "json") == (0, _render(checks))


def test_module_entry_point_runs_from_source():
    # python -m twograph works from a checkout with only src on the path
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "twograph", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: twograph ")


def _run_with_closed_stdout(*argv):
    # the read end is closed before the child starts, so writing stdout
    # fails whatever the pipe buffer holds.  stdout is block-buffered, as
    # it is by default
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "twograph", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("size", [3, 6])
def test_closed_stdout_ends_quietly(size):
    # the 3x3 double's report (5 kB) fails only when stdout is flushed,
    # the 6x6 one (71 kB) as it is printed
    spec = json.dumps(flip_graph(size, size).to_json())
    result = _run_with_closed_stdout("double", "--spec", spec)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize("argv", [["--help"], ["theta", "--help"], ["double", "--help"]])
def test_closed_stdout_on_help_ends_quietly(argv):
    # argparse prints the help and leaves by SystemExit, so the flush
    # must come before that exit leaves main
    result = _run_with_closed_stdout(*argv)
    assert (result.returncode, result.stderr) == (1, b"")


def test_group_classify(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"kind": "torus", "rank": 2}))
    code, out = run(capsys, "group", "classify", "--group", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "purely infinite and simple"


def test_group_classify_inline_json(capsys):
    code, out = run(
        capsys, "group", "classify", "--group", '{"kind": "padic", "p": 3}'
    )
    assert code == 0
    assert json.loads(out)["verdict_computed"] is False


def test_group_classify_decides_a_large_prime_quickly(capsys):
    start = time.perf_counter()
    code, out = run(
        capsys, "group", "classify", "--group", '{"kind": "padic", "p": 1000000000000000003}'
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["group"] == {"kind": "padic", "p": 10**18 + 3}


def test_group_g123_witness(capsys):
    code, out = run(
        capsys, "group", "g123", "--group", '{"kind": "finite", "factors": [2]}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["G3"]["status"] == "fails"
    assert data["G3"]["witness"] == [2, 2]


def test_group_transfer(capsys):
    code, out = run(
        capsys,
        "group",
        "transfer",
        "--group",
        '{"kind": "finite", "factors": [4]}',
        "--a",
        "2",
        "--table",
        "[0, 1, 0, 0]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["0", "0", "1/2", "0"]


def test_group_transfer_rejects_infinite_group(capsys):
    code = main(
        [
            "group",
            "transfer",
            "--group",
            '{"kind": "torus", "rank": 1}',
            "--a",
            "2",
            "--table",
            "[1]",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: transfer tables only make sense on finite groups\n"
    )


def _render(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _all_hold(*details) -> dict:
    return {f"G{i}": {"detail": d, "status": "holds"} for i, d in enumerate(details, 1)}


_CONNECTED = {
    "citation": "connected-divisible-simplicity",
    "connected": True,
    "torsion_interior_empty": True,
    "verdict": "purely infinite and simple",
    "verdict_computed": True,
}
_TORSION = {
    "citation": "torsion-obstruction",
    "torsion_interior_empty": False,
    "verdict": (
        "torsion group: infinite-order points are not dense, the aperiodicity "
        "criterion fails; no simplicity claim"
    ),
    "verdict_computed": True,
}
_FINITE_G12 = {
    "G1": {"detail": "finite group: every index is finite", "status": "holds"},
    "G2": {"detail": "finite group: every kernel is finite", "status": "holds"},
}
_SOLENOID_G123 = _all_hold(
    "divisible: power maps are onto",
    "kernel size is a finite divisor",
    "the part coprime to the recurring primes is multiplicative",
)


@pytest.mark.parametrize(
    "spec, extra, report",
    [
        (
            {"kind": "torus", "rank": 2},
            [],
            {
                **_CONNECTED,
                "group": {"kind": "torus", "rank": 2},
                "conditions": _all_hold(
                    "divisible: power maps are onto",
                    "kernel size a^rank is finite",
                    "(ab)^rank = a^rank b^rank",
                ),
            },
        ),
        (
            {"kind": "solenoid", "finite": {"3": 1}, "infinite": [2]},
            [],
            {
                **_CONNECTED,
                "group": {"kind": "solenoid", "finite": {"3": 1}, "infinite": [2]},
                "conditions": _SOLENOID_G123,
            },
        ),
        (
            {"kind": "solenoid"},
            [],
            {
                **_CONNECTED,
                "group": {"kind": "solenoid", "finite": {}, "infinite": []},
                "conditions": _SOLENOID_G123,
            },
        ),
        (
            {"kind": "padic", "p": 3},
            [],
            {
                "citation": "padic-ideal-structure",
                "connected": False,
                "torsion_interior_empty": True,
                "verdict": (
                    "not simple: the functions vanishing at zero generate a proper "
                    "ideal (compacts tensored with a simple AT-algebra of real rank "
                    "zero with unique trace) with commutative quotient; reported "
                    "from the literature, not computed"
                ),
                "verdict_computed": False,
                "group": {"kind": "padic", "p": 3},
                "conditions": _all_hold(
                    "index p^v(a) is finite",
                    "power maps are injective",
                    "all kernels are trivial",
                ),
            },
        ),
        (
            {"kind": "finite", "factors": []},
            [],
            {
                **_TORSION,
                "connected": True,
                "group": {"kind": "finite", "factors": []},
                "conditions": {
                    **_FINITE_G12,
                    "G3": {
                        "detail": "all pairs with a, b in 1..12",
                        "status": "holds-on-tested-range",
                    },
                },
            },
        ),
        (
            {"kind": "finite", "factors": [2, 4]},
            ["--range", "3"],
            {
                **_TORSION,
                "connected": False,
                "group": {"kind": "finite", "factors": [2, 4]},
                "conditions": {
                    **_FINITE_G12,
                    "G3": {"status": "fails", "witness": [2, 2]},
                },
            },
        ),
    ],
)
def test_group_report_bytes(capsys, spec, extra, report):
    # pins every closed-form fact of every group kind, byte for byte
    group = ["--group", json.dumps(spec), *extra]
    assert run(capsys, "group", "classify", *group) == (0, _render(report))
    assert run(capsys, "group", "g123", *group) == (0, _render(report["conditions"]))


@pytest.mark.parametrize(
    "a, values",
    [
        ("1", ["1", "1/2", "-3", "0", "7/3", "2", "5", "-1/4"]),
        ("2", ["4/3", "0", "9/16", "0", "0", "0", "0", "0"]),
        ("3", ["1", "0", "-3", "1/2", "7/3", "-1/4", "5", "2"]),
        ("4", ["91/96", "0", "0", "0", "0", "0", "0", "0"]),
    ],
)
def test_group_transfer_bytes(capsys, a, values):
    # on Z2 x Z4; the zeros are points off the image of the a-th power map
    code, out = run(
        capsys,
        "group",
        "transfer",
        "--group",
        '{"kind": "finite", "factors": [2, 4]}',
        "--a",
        a,
        "--table",
        '[1, "1/2", -3, 0, "7/3", 2, 5, "-1/4"]',
    )
    assert (code, out) == (0, _render({"a": int(a), "values": values}))


@pytest.mark.parametrize("command", ["classify", "g123"])
@pytest.mark.parametrize("test_range, shown", [("0", "range(1, 1)"), ("-3", "range(1, -2)")])
def test_empty_test_range_is_input_error(capsys, command, test_range, shown):
    # an empty range must not read as "holds-on-tested-range"
    group = '{"kind": "finite", "factors": [4]}'
    code = main(["group", command, "--group", group, "--range", test_range])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: test range {shown} has no exponents\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "periodicity"),
        ("crossed-product",),
        ("core", "verify", "--max-degree", "1,1"),
    ],
)
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_path_cap_below_one_is_input_error(capsys, twin_spec, argv, cap):
    # not a cap hit: periodicity must not turn it into "unknown"
    code = main([*argv, "--spec", twin_spec, "--path-cap", cap])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: path cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize("argv", [("theta", "periodicity"), ("crossed-product",)])
def test_path_cap_below_one_is_rejected_without_exponent_pair(capsys, mixed_spec, argv):
    # 2 and 3 edges have no exponent pair, so the search never reaches a cap
    code = main([*argv, "--spec", mixed_spec, "--path-cap", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: path cap must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("theta", "validate", "--spec", '{"n1": "x", "n2": 1, "theta": []}'),
         "n1 must be an integer, got 'x'"),
        (("theta", "validate", "--spec", '{"n1": 1.5, "n2": 1, "theta": []}'),
         "n1 must be an integer, got 1.5"),
        (("theta", "validate", "--spec", '{"n1": 1, "n2": true, "theta": []}'),
         "n2 must be an integer, got True"),
        (("theta", "validate", "--spec", '{"n1": 1, "n2": 1, "theta": 5}'),
         "theta must be a list of rows, got int"),
        (("theta", "validate", "--spec", '{"n1": 1, "n2": 1, "theta": [[0, 0, 0]]}'),
         "theta row 0 must be 4 integers [e, f, f2, e2], got [0, 0, 0]"),
        (("theta", "validate", "--spec", '{"n1": 1, "n2": 1, "theta": [[0, "0", 0, 0]]}'),
         "theta row 0 must be 4 integers [e, f, f2, e2], got [0, '0', 0, 0]"),
        (("theta", "validate", "--spec", "[1]"), "graph JSON must be an object, got list"),
        (("group", "classify", "--group", '{"kind": "finite"}'),
         "missing key 'factors' in group JSON"),
        (("group", "classify", "--group", '{"kind": "finite", "factors": 5}'),
         "factors must be a list of integers, got 5"),
        (("group", "classify", "--group", '{"kind": "finite", "factors": [2.5]}'),
         "factors must be a list of integers, got [2.5]"),
        (("group", "classify", "--group", '{"kind": "finite", "factors": [true]}'),
         "factors must be a list of integers, got [True]"),
        (("group", "classify", "--group", '{"kind": "torus", "rank": "2"}'),
         "rank must be an integer, got '2'"),
        (("group", "classify", "--group", '{"kind": "torus", "rank": 1.5}'),
         "rank must be an integer, got 1.5"),
        (("group", "classify", "--group", '{"kind": "padic", "p": "3"}'),
         "p must be an integer, got '3'"),
        (("group", "classify", "--group", '{"kind": "solenoid", "finite": [[2, 1]]}'),
         "finite must map primes to integer multiplicities, got [[2, 1]]"),
        (("group", "classify", "--group", '{"kind": "solenoid", "finite": {"x": 1}}'),
         "finite must map primes to integer multiplicities, got {'x': 1}"),
        (("group", "classify", "--group", "[1]"), "group JSON must be an object, got list"),
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", "5"),
         "table must be a list of rationals, got 5"),
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", "[[1], 2]"),
         "table entry 0 is not a rational: [1]"),
        # a JSON float is not read through its binary expansion
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", "[0.1, 1]"),
         "table entry 0 is not a rational: 0.1"),
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", '["1/2", true]'),
         "table entry 1 is not a rational: True"),
        (("theta", "validate", "--spec",
          '{"n1": 2, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]}'),
         "pair (b1, r1) has no image"),
        # a short table on huge counts fails on its first missing pair,
        # before anything of size n1*n2 is allocated
        (("theta", "validate", "--spec",
          '{"n1": 1000000000, "n2": 1000000000, "theta": [[0, 0, 0, 0]]}'),
         "pair (b0, r1) has no image"),
        # primality is decided exactly only below this bound
        (("group", "g123", "--group", '{"kind": "padic", "p": 3317044064679887385961981}'),
         "cannot decide whether 3317044064679887385961981 is prime: primality is "
         "decided only below 3317044064679887385961981"),
        # a prime key is ASCII decimal digits, few enough to convert to an int;
        # a superscript and an Arabic-Indic digit are digits to str.isdigit()
        (("group", "classify", "--group", '{"kind": "solenoid", "finite": {"\u00b2": 1}}'),
         "finite must map primes to integer multiplicities, got {'\u00b2': 1}"),
        (("group", "classify", "--group", '{"kind": "solenoid", "finite": {"\u0663": 1}}'),
         "finite must map primes to integer multiplicities, got {'\u0663': 1}"),
        (("group", "classify", "--group", '{"kind": "solenoid", "finite": {" 3": 1}}'),
         "finite must map primes to integer multiplicities, got {' 3': 1}"),
        (("group", "classify", "--group",
          '{"kind": "solenoid", "finite": {"' + _TOO_LONG + '": 1}}'),
         "finite has a prime too long to read: " + _int_error(_TOO_LONG)),
        # two spellings of one prime would otherwise merge into one key
        (("group", "classify", "--group",
          '{"kind": "solenoid", "finite": {"3": 1, "03": 2}}'),
         "finite names the prime 3 twice: '3' and '03'"),
        (("group", "transfer", "--group", _FINITE_2, "--a", "0", "--table", "[1, 2]"),
         "exponent a must be at least 1, got 0"),
        # the first bad row in table order, whatever its fault
        (("theta", "validate", "--spec",
          '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, 5], [0, 0, 0]]}'),
         "blue id out of range in row (0, 0, 0, 5)"),
    ],
    ids=[
        "argv0-n1 must be an integer, got 'x'",
        'argv1-n1 must be an integer, got 1.5',
        'argv2-n2 must be an integer, got True',
        'argv3-theta must be a list of rows, got int',
        'argv4-theta row 0 must be 4 integers [e, f, f2, e2], got [0, 0, 0]',
        "argv5-theta row 0 must be 4 integers [e, f, f2, e2], got [0, '0', 0, 0]",
        'argv6-graph JSON must be an object, got list',
        "argv7-missing key 'factors' in group JSON",
        'argv8-factors must be a list of integers, got 5',
        'argv9-factors must be a list of integers, got [2.5]',
        'argv10-factors must be a list of integers, got [True]',
        "argv11-rank must be an integer, got '2'",
        'argv12-rank must be an integer, got 1.5',
        "argv13-p must be an integer, got '3'",
        'argv14-finite must map primes to integer multiplicities, got [[2, 1]]',
        "argv15-finite must map primes to integer multiplicities, got {'x': 1}",
        'argv16-group JSON must be an object, got list',
        'argv17-table must be a list of rationals, got 5',
        'argv18-table entry 0 is not a rational: [1]',
        'argv19-table entry 0 is not a rational: 0.1',
        'argv20-table entry 1 is not a rational: True',
        'argv21-pair (b1, r1) has no image',
        'argv22-pair (b0, r1) has no image',
        'argv23-cannot decide whether 3317044064679887385961981 is prime: primality is decided only below 3317044064679887385961981',
        "argv24-finite must map primes to integer multiplicities, got {'\u00b2': 1}",
        "argv25-finite must map primes to integer multiplicities, got {'\u0663': 1}",
        "argv26-finite must map primes to integer multiplicities, got {' 3': 1}",
        'argv27-finite has a prime too long to read: ' + _LIMIT,
        "argv28-finite names the prime 3 twice: '3' and '03'",
        'argv29-exponent a must be at least 1, got 0',
        'argv30-blue id out of range in row (0, 0, 0, 5)',
    ],
)
def test_malformed_spec_names_the_field(capsys, argv, err):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_reports_are_byte_identical(capsys, twin_spec):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "crossed-product", "--spec", twin_spec)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_core_verify_seed_is_deterministic(capsys, flip_spec):
    outputs = []
    for _ in range(2):
        code, out = run(
            capsys,
            "core",
            "verify",
            "--spec",
            flip_spec,
            "--max-degree",
            "1,1",
            "--seed",
            "9",
            "--output",
            "json",
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_zero_denominator_in_table_is_input_error(capsys):
    code = main(["group", "transfer", "--group", _FINITE_2, "--a", "2",
                 "--table", '["1/0", 1]'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: table entry 0 is not a rational: '1/0'\n"


@pytest.mark.parametrize("entry", ["1e5000", "1e3000000"])
def test_huge_decimal_exponent_in_table_is_input_error(capsys, entry):
    code = main(["group", "transfer", "--group", '{"kind":"finite","factors":[3]}',
                 "--a", "1", "--table", json.dumps([1, 2, entry])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: table entry 2 is not a rational: '{entry}'\n"


def test_transfer_value_too_long_to_print_names_the_table(capsys):
    # every entry parses, but their sum has about 8,000 digits
    code = main(["group", "transfer", "--group", '{"kind":"finite","factors":[3]}',
                 "--a", "3", "--table", '["1e4000", "1e-4000", 3]'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: --table gives a value too long to print: ")


_NOT_UTF8 = "<a file that is not UTF-8>"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("theta", "validate", "--spec", "{bad"),
         "--spec is not valid JSON: Expecting property name enclosed in double "
         "quotes: line 1 column 2 (char 1)"),
        (("group", "classify", "--group", "[1"),
         "--group is not valid JSON: Expecting ',' delimiter: line 1 column 3 (char 2)"),
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", "abc"),
         "--table is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        # the group is read before the table, so its error comes first
        (("group", "transfer", "--group", "[1", "--a", "1", "--table", "abc"),
         "--group is not valid JSON: Expecting ',' delimiter: line 1 column 3 (char 2)"),
        # numbers longer than the interpreter converts, and undecodable files
        (("theta", "validate", "--spec", '{"n1": ' + _TOO_LONG + "}"),
         "--spec is not valid JSON: " + _int_error(_TOO_LONG)),
        (("group", "classify", "--group", '{"kind": "padic", "p": ' + _TOO_LONG + "}"),
         "--group is not valid JSON: " + _int_error(_TOO_LONG)),
        (("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", f"[{_TOO_LONG}, 1]"),
         "--table is not valid JSON: " + _int_error(_TOO_LONG)),
        (("theta", "validate", "--spec", _NOT_UTF8),
         "--spec is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
    ],
    ids=[
        'argv0---spec is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)',
        "argv1---group is not valid JSON: Expecting ',' delimiter: line 1 column 3 (char 2)",
        'argv2---table is not valid JSON: Expecting value: line 1 column 1 (char 0)',
        "argv3---group is not valid JSON: Expecting ',' delimiter: line 1 column 3 (char 2)",
        'argv4---spec is not valid JSON: ' + _LIMIT,
        'argv5---group is not valid JSON: ' + _LIMIT,
        'argv6---table is not valid JSON: ' + _LIMIT,
        "argv7---spec is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ],
)
def test_unparsable_json_names_its_option(capsys, tmp_path, argv, err):
    latin = tmp_path / "latin-1.json"
    latin.write_bytes(b"\xff{}")
    code = main([str(latin) if arg == _NOT_UTF8 else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


# deeper than any interpreter's recursion limit for C code
_NESTED = "[" * 100_000 + "]" * 100_000
_NESTED_FILE = "<a file nested 100,000 deep>"


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "validate", "--spec", _NESTED),
        ("theta", "validate", "--spec", _NESTED_FILE),
        ("group", "g123", "--group", _NESTED),
        ("group", "transfer", "--group", _FINITE_2, "--a", "1", "--table", _NESTED),
    ],
    ids=["spec", "spec-file", "group", "table"],
)
def test_json_nested_past_the_decoder_names_its_option(capsys, tmp_path, argv):
    nested = tmp_path / "nested.json"
    nested.write_text(_NESTED)
    code = main([str(nested) if arg == _NESTED_FILE else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # what the decoder adds after this prefix differs between interpreters
    prefix = f"error: {argv[-2]} is not valid JSON: maximum recursion depth exceeded"
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_unparsable_spec_file_names_its_option(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n1": 1,\n "n2"}')
    code = main(["theta", "validate", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: --spec is not valid JSON: Expecting ':' delimiter: line 2 column 6 (char 15)\n"
    )


def _main_result(argv, run=main) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_answers_like_a_fresh_one(monkeypatch, twin_spec, flip_spec):
    # one parser serves the whole process; every request must come out as
    # it does from a parser built for it alone
    group = '{"kind": "finite", "factors": [2, 4]}'
    table = '[1, "1/2", -3, 0, "7/3", 2, 5, "-1/4"]'
    requests = [
        ("theta", "validate", "--spec", twin_spec),
        ("theta", "normal-form", "--spec", flip_spec, "--word", "r1 b0", "--pattern", "RB"),
        ("theta", "normal-form", "--spec", flip_spec, "--word", "r1 b0"),
        ("theta", "periodicity", "--spec", twin_spec),
        ("theta", "periodicity", "--spec", flip_spec, "--kmax", "2"),
        ("double", "--spec", twin_spec),
        ("crossed-product", "--spec", twin_spec, "--kmax", "1"),
        ("core", "verify", "--spec", flip_spec, "--max-degree", "1,0"),
        ("group", "classify", "--group", group),
        ("group", "g123", "--group", group, "--range", "3"),
        ("group", "transfer", "--group", group, "--a", "2", "--table", table),
        # usage errors exit 1 through the parser
        ("theta", "validate"),
        ("theta", "periodicity", "--spec", twin_spec, "--kmax", "x"),
        ("core", "verify", "--spec", flip_spec, "--output", "xml"),
        ("nonsense",),
        ("group", "transfer", "--group", group, "--a", "2", "--table", "abc"),
        ("group", "transfer", "--help"),
        ("theta", "normal-form", "--spec", flip_spec, "--word", "r1 b0"),
    ]
    cached = [_main_result(argv) for argv in requests * 2]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_main_result(argv) for argv in requests * 2]
    assert cached == fresh
    assert {code for code, _, _ in cached} == {0, 1}
    assert sum(code == 1 for code, _, _ in cached) == 10


def _root_parsed(argv) -> int:
    """``main`` with every request parsed by the root parser, as argparse
    sends it down through each subcommand level, under main's clauses."""
    try:
        try:
            args = cli.build_parser().parse_args(argv)
            return args.run(args)
        finally:
            sys.stdout.flush()
    except (GraphError, GroupError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


_GRAPH = '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, 0]]}'
_GROUP = '{"kind": "finite", "factors": [2]}'
# each leaf's command words and the options that make it run
_LEAF_INPUTS = {
    ("theta", "validate"): ["--spec", _GRAPH],
    ("theta", "normal-form"): ["--spec", _GRAPH, "--word", "b0"],
    ("theta", "periodicity"): ["--spec", _GRAPH],
    ("double",): ["--spec", _GRAPH],
    ("crossed-product",): ["--spec", _GRAPH],
    ("core", "verify"): ["--spec", _GRAPH, "--max-degree", "1,1"],
    ("group", "classify"): ["--group", _GROUP],
    ("group", "transfer"): ["--group", _GROUP, "--a", "2", "--table", "[1, 2]"],
    ("group", "g123"): ["--group", _GROUP],
}


def _tails(option: str, value: str) -> dict:
    return {
        "bare": [],
        "-h": ["-h"],
        "--he": ["--he"],
        "abbreviated": [option[:5], value],
        "equals": [f"{option}={value}"],
        "repeated": [option, value, option, value],
        "-x": ["-x"],
        "--": ["--"],
        "--kmax": ["--kmax"],
        "--kmax-x": ["--kmax", "x"],
        "--output-xml": ["--output", "xml"],
        "stray": ["stray"],
    }


# each tail after a leaf's words alone, and after its input options too,
# where a stray string is left over for the root parser to report
_PARITY = {
    **{
        f"{'-'.join(words)}{with_inputs}:{name}": [*words, *inputs[:size], *tail]
        for words, inputs in _LEAF_INPUTS.items()
        for size, with_inputs in ((0, ""), (len(inputs), "+inputs"))
        for name, tail in _tails(*inputs[:2]).items()
    },
    "root": [],
    "root:-h": ["-h"],
    "nonsense": ["nonsense"],
    "theta": ["theta"],
    "theta:-h": ["theta", "-h"],
    "core": ["core"],
    "group": ["group"],
    "option-before-command": ["--spec", "x", "theta", "validate"],
}


@pytest.mark.parametrize("argv", list(_PARITY.values()), ids=list(_PARITY))
def test_leaf_parse_answers_like_the_root_parser(argv):
    # main sends a request that names a leaf to that leaf's parser alone;
    # exit code, stdout and stderr must be those of the whole tree's parse
    assert _main_result(argv) == _main_result(argv, _root_parsed)


def test_leftover_argument_is_reported_by_the_root_parser(capsys, monkeypatch, twin_spec):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["theta", "validate", "--spec", twin_spec, "extra"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: twograph [-h] {theta,double,crossed-product,core,group} ...\n"
        "error: unrecognized arguments: extra\n"
    )


def _tree_leaves(parser, words=()) -> dict:
    """Every leaf parser under ``parser``, by its command words."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                leaves.update(_tree_leaves(child, (*words, name)))
    return leaves or {words: parser}


def test_leaf_table_holds_every_leaf_of_the_tree():
    # a subcommand missing from the table would still answer, from the
    # root parser, so only this test shows it
    parser = cli.build_parser.__wrapped__()
    leaves = _tree_leaves(parser)
    assert len(leaves) == 9
    assert parser.leaves.keys() == leaves.keys()
    assert all(parser.leaves[words] is leaf for words, leaf in leaves.items())


@pytest.mark.parametrize(
    "argv, code",
    [(["theta", "validate", "--spec", _GRAPH], 0), (["--help"], 0), (["nonsense"], 1)],
    ids=["leaf", "root-help", "root-error"],
)
def test_main_without_argv_reads_sys_argv(monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["twograph", *argv])
    result = _main_result((), lambda _: main())
    assert result == _main_result(argv)
    assert result[0] == code


def test_tuple_argv_is_parsed_like_a_list():
    for argv in (("theta", "validate", "--spec", _GRAPH), ("theta",), ()):
        assert _main_result(argv, lambda argv: main(tuple(argv))) == _main_result(argv)
