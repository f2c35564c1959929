"""Batch command-line front end: JSON specs in, JSON or table verdicts out.

Exit status: 0 when a command ran and decided its question, 2 when a
periodicity search came back unknown (so scripts cannot mistake a
bounded failure for a decision), 1 on bad input or a failed identity
suite.  A reader that closes stdout early (``| head``) ends the run with
exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .doubling import crossed_product_report, double
from .graphs import DEFAULT_PATH_CAP, GraphError, GroupError, TwoGraph, _is_decimal
from .periodicity import decide_periodicity

# The word algebra and the group systems are imported by the handlers that
# run them, so the other commands never load them.


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: print usage and the message, exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _emit(obj) -> None:
    """Print ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` does.

    With ``indent``, ``json.dumps`` always runs its pure-Python encoder,
    which costs more than most requests' own work.  :func:`_layout`
    writes the same bytes: it lays out the containers itself and leaves
    each scalar to the C string encoder, ``int.__repr__``, ``%d`` or
    ``json.dumps``.  Every report key is a str, and a dict key of any
    other type raises TypeError.
    """
    print(_layout(obj, "\n"))


_encode_str = json.encoder.encode_basestring_ascii


class _Known(list):
    """A list whose items :func:`_layout` need not check: non-empty rows of
    exact ints, such as a graph's ``theta`` rows, which its constructor
    checked entry by entry, or strs that need no escaping, such as the
    values ``transfer_eval`` writes from digits, ``-`` and ``/``."""


def _layout(obj, newline: str) -> str:
    """``obj`` as JSON indented by two spaces a level; ``newline`` is the
    line break and indent of the level ``obj`` starts at.

    Three shapes skip the per-item recursion: a table of non-empty int
    rows, written by :func:`_int_table`; a list of exact ints; and a list
    of strs, joined inside one pair of quotes when no str needs escaping.
    Exact types decide the shape, so a bool, a float or a subclass sends
    the list to the general branch, as does an empty row.  A
    :class:`_Known` list takes its shape's branch without the checks.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        first, known = type(obj[0]), type(obj) is _Known
        if first is list and (known or _is_int_table(obj)):
            return _int_table(obj, newline)
        if first is int and set(map(type, obj)) == {int}:
            body = ("," + inner).join(map(int.__repr__, obj))
        elif first is str and (known or _is_plain_strs(obj)):
            body = '"' + ('",' + inner + '"').join(obj) + '"'
        else:
            body = ("," + inner).join([_layout(item, inner) for item in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join([
            _encode_str(key) + ": " + _layout(value, inner)
            for key, value in sorted(obj.items())
        ])
        return "{" + inner + body + newline + "}"
    return json.dumps(obj)  # bool, None, float; anything else raises TypeError


def _is_int_table(obj) -> bool:
    """Whether ``obj`` holds only non-empty lists of exact ints."""
    return (
        set(map(type, obj)) == {list}
        and all(obj)
        and set(map(type, itertools.chain.from_iterable(obj))) == {int}
    )


def _is_plain_strs(obj) -> bool:
    """Whether ``obj`` holds only exact strs that the encoder writes as
    they are: it escapes a character by writing more than one."""
    if set(map(type, obj)) != {str}:
        return False
    text = "".join(obj)
    return len(_encode_str(text)) == len(text) + 2


def _int_table(rows, newline: str) -> str:
    """Non-empty rows of exact ints, laid out by one ``%`` format: each
    row width has its own template of ``%d`` fields, and the templates of
    all rows, joined, take every int at once."""
    inner = newline + "  "
    row = inner + "  "
    template = {
        width: "[" + row + ("," + row).join(["%d"] * width) + inner + "]"
        for width in set(map(len, rows))
    }
    body = ("," + inner).join(map(template.__getitem__, map(len, rows)))
    return "[" + inner + body % tuple(itertools.chain.from_iterable(rows)) + newline + "]"


def _decode(option: str, source):
    """JSON given to ``option`` as a string or an open text file.

    Every error in reading or parsing it names the option: bad syntax,
    a number longer than the interpreter converts, a file that is not
    UTF-8, or arrays and objects nested deeper than the decoder's
    recursion limit.
    """
    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{option} is not valid JSON: {exc}") from None


def _load_json_arg(option: str, value: str):
    if value.lstrip().startswith(("{", "[")):
        return _decode(option, value)
    with open(value, "r", encoding="utf-8") as fh:
        return _decode(option, fh)


def _load_graph(value: str) -> TwoGraph:
    return TwoGraph.from_json(_load_json_arg("--spec", value))


def _load_group(value: str):
    from .groups import group_from_json

    return group_from_json(_load_json_arg("--group", value))


def _int_arg(text: str) -> int:
    """The ``type`` of every integer option: ASCII digits after at most one
    ``-``, by :func:`~twograph.graphs._is_decimal`, else the message
    argparse gives for ``int``, also past the int-to-str digit limit."""
    if _is_decimal(text, signed=True):
        try:
            return int(text)
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_degree(value: str) -> tuple:
    parts = value.replace("(", " ").replace(")", " ").replace(",", " ").split()
    if len(parts) != 2 or not all(_is_decimal(part, signed=True) for part in parts):
        raise GraphError(f"bad --max-degree {value!r}, expected like '2,2'")
    try:
        n1, n2 = map(int, parts)
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise GraphError(f"--max-degree has a part too long to read: {exc}") from None
    return (n1, n2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared.

    One parser serves every request of a process: parsing returns a
    fresh namespace and leaves the parser unchanged, and each handler
    looks up what it calls when it runs.  Callers must not add to it.
    Its ``leaves`` maps each leaf's command words, such as
    ``("theta", "periodicity")`` or ``("double",)``, to the leaf's own
    parser, which :func:`main` sends a request to directly.
    """
    parser = _Parser(prog="twograph", description=__doc__)
    parser.leaves = {}

    def leaf(sub, words: tuple, run, **kwargs) -> argparse.ArgumentParser:
        p = parser.leaves[words] = sub.add_parser(words[-1], **kwargs)
        p.set_defaults(run=run)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    theta = sub.add_parser("theta", help="single-graph questions")
    theta_sub = theta.add_subparsers(dest="subcommand", required=True)

    p = leaf(theta_sub, ("theta", "validate"), _theta_validate,
             help="check the commutation table")
    p.add_argument("--spec", required=True, help="graph JSON file or inline JSON")

    p = leaf(theta_sub, ("theta", "normal-form"), _theta_normal_form,
             help="normalize or reorder a word")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True, help="letters like 'r0 b1'")
    p.add_argument("--pattern", help="color pattern like 'RB' to reorder into")

    p = leaf(theta_sub, ("theta", "periodicity"), _theta_periodicity,
             help="bounded periodicity decision")
    p.add_argument("--spec", required=True)
    p.add_argument("--kmax", type=_int_arg, default=4)
    p.add_argument("--path-cap", type=_int_arg, default=DEFAULT_PATH_CAP)

    p = leaf(sub, ("double",), _double, help="emit the doubled graph")
    p.add_argument("--spec", required=True)

    p = leaf(sub, ("crossed-product",), _crossed_product,
             help="simplicity of the core crossed product")
    p.add_argument("--spec", required=True)
    p.add_argument("--kmax", type=_int_arg, default=4)
    p.add_argument("--path-cap", type=_int_arg, default=DEFAULT_PATH_CAP)

    core = sub.add_parser("core", help="symbolic identity suite")
    core_sub = core.add_subparsers(dest="subcommand", required=True)
    p = leaf(core_sub, ("core", "verify"), _core_verify, help="run every identity check")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-degree", default="2,2", help="degree bound like '2,2'")
    p.add_argument("--seed", type=_int_arg, default=0, help="seed for sampled checks")
    p.add_argument("--path-cap", type=_int_arg, default=DEFAULT_PATH_CAP)
    p.add_argument("--output", choices=("json", "table"), default="table")

    group = sub.add_parser("group", help="compact abelian group systems")
    group_sub = group.add_subparsers(dest="subcommand", required=True)

    p = leaf(group_sub, ("group", "classify"), _group_classify,
             help="crossed-product classification")
    p.add_argument("--group", required=True, help="group JSON file or inline JSON")
    p.add_argument("--range", type=_int_arg, default=12, dest="test_range")

    p = leaf(group_sub, ("group", "transfer"), _group_transfer,
             help="exact transfer average on a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--table", required=True, help="JSON list of rationals")

    p = leaf(group_sub, ("group", "g123"), _group_g123, help="system conditions report")
    p.add_argument("--group", required=True)
    p.add_argument("--range", type=_int_arg, default=12, dest="test_range")

    return parser


def _theta_validate(args) -> int:
    graph = _load_graph(args.spec)
    _emit({"valid": True, "n1": graph.n_blue, "n2": graph.n_red})
    return 0


def _theta_normal_form(args) -> int:
    path = _load_graph(args.spec).path(args.word)
    out = {
        "degree": list(path.degree),
        "normal_form": path.pretty(),
    }
    if args.pattern is not None:
        letters = path.reorder(args.pattern)
        out["reordered"] = " ".join(
            ("b" if c == 0 else "r") + str(x) for c, x in letters
        )
    _emit(out)
    return 0


def _theta_periodicity(args) -> int:
    graph = _load_graph(args.spec)
    verdict = decide_periodicity(graph, kmax=args.kmax, cap=args.path_cap)
    _emit(verdict.to_json())
    return 2 if verdict.is_unknown else 0


def _double(args) -> int:
    report = double(_load_graph(args.spec)).to_json()
    # the constructor checked each entry of the rows to be an exact int
    report["theta"] = _Known(report["theta"])
    _emit(report)
    return 0


def _crossed_product(args) -> int:
    report = crossed_product_report(
        _load_graph(args.spec), kmax=args.kmax, cap=args.path_cap
    )
    _emit(report.to_json())
    return 2 if report.verdict.is_unknown else 0


def _core_verify(args) -> int:
    from .algebra import identity_suite

    graph = _load_graph(args.spec)
    checks = identity_suite(
        graph,
        max_degree=_parse_degree(args.max_degree),
        seed=args.seed,
        cap=args.path_cap,
    )
    if args.output == "json":
        _emit([check.to_json() for check in checks])
    else:
        width = max(len(check.name) for check in checks)
        for check in checks:
            status = "pass" if check.passed else "FAIL"
            line = f"{check.name:<{width}}  {check.cases:>7}  {status}"
            if check.detail and not check.passed:
                line += f"  {check.detail}"
            print(line)
    return 0 if all(check.passed for check in checks) else 1


def _group_classify(args) -> int:
    from .groups import classify

    group = _load_group(args.group)
    _emit(classify(group, args.test_range).to_json())
    return 0


def _group_g123(args) -> int:
    from .groups import check_conditions

    group = _load_group(args.group)
    _emit(check_conditions(group, args.test_range).to_json())
    return 0


def _group_transfer(args) -> int:
    from .groups import transfer_eval

    group = _load_group(args.group)
    table = _decode("--table", args.table)
    # the values come back as text, written from transfer_eval's integer
    # sums; a GroupError is not a ValueError, so only printing lands here
    try:
        values = transfer_eval(group, args.a, table, _text=True)
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise ValueError(f"--table gives a value too long to print: {exc}") from None
    # each value is written from digits, "-" and "/"
    _emit({"a": args.a, "values": _Known(values)})
    return 0


def _parse(argv: list) -> argparse.Namespace:
    """``argv`` parsed as ``build_parser().parse_args(argv)`` parses it.

    Above a leaf, every parser only hands the remaining strings down:
    its subcommand positional takes ``-h``, ``--`` and unknown options
    alike.  So a request that starts with a leaf's command words goes to
    that leaf's parser alone, and only strings the leaf leaves over are
    reported by the root, as argparse reports them.  Help and errors
    before a command is named stay with the root parser.
    """
    parser = build_parser()
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = parser.leaves.get(words)
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[len(words):])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one request, ``sys.argv[1:]`` when ``argv`` is None.

    Parse, run, and report an input error as one line on stderr with
    exit 1; usage errors exit 1 from the parser.
    """
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
            return args.run(args)
        finally:  # a closed stdout shows here, not at exit, even after --help
            sys.stdout.flush()
    except BrokenPipeError:
        # as Python's signal docs advise: what is still buffered goes to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GraphError, GroupError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
