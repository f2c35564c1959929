"""Compare this tree's command line with another tree's, byte for byte.

Usage: python tools/compare_cli.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout (or the checkout
itself), for example a ``git worktree`` of the parent commit.  Both
``twograph`` packages are loaded side by side under their own module
names, as ``tools/compare_periodicity.py`` loads them, and each request
goes through both trees' ``cli.main``.  The exit code, stdout and stderr
must be equal on a fixed corpus:

- all 743 argvs of ``perfbench/expected/small-pool.json``;
- the two CLI requests of the deep-period workload;
- ``core verify --max-degree 1,1`` on the three core-verify graphs, with
  json and with table output;
- for every command path (the root, ``theta``, ``core``, ``group`` and
  each of the nine leaves): help, abbreviations, ``--opt=value``,
  ``--``, repeated, unknown and missing options, bad ints, bad choices
  and stray positionals, and for each leaf the same after its required
  options; and a few requests that name no command or put a leaf's
  words in the wrong place.

A usage error exits through SystemExit, whose code is compared.  Prints
the number of requests and exits with status 1 at the first mismatch,
naming the request.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

from compare_periodicity import THIS_SRC, load

POOL = THIS_SRC.parent / "perfbench" / "expected" / "small-pool.json"

# the aperiodic 2x2 graph of the deep-period workload
DEEP_SPEC = '{"n1": 2, "n2": 2, "theta": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]]}'
# flip_graph(2, 2), twin_graph(2) and flip_graph(3, 2), as core-verify sends them
CORE_SPECS = [
    {"n1": 2, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]]},
    {"n1": 2, "n2": 2, "theta": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]]},
    {"n1": 3, "n2": 2, "theta": [[e, f, f, e] for e in range(3) for f in range(2)]},
]

GRAPH = '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, 0]]}'
GROUP = '{"kind": "finite", "factors": [2]}'
# each leaf's command words and the options that make it run
LEAVES = {
    ("theta", "validate"): ["--spec", GRAPH],
    ("theta", "normal-form"): ["--spec", GRAPH, "--word", "b0"],
    ("theta", "periodicity"): ["--spec", GRAPH],
    ("double",): ["--spec", GRAPH],
    ("crossed-product",): ["--spec", GRAPH],
    ("core", "verify"): ["--spec", GRAPH, "--max-degree", "1,1"],
    ("group", "classify"): ["--group", GROUP],
    ("group", "transfer"): ["--group", GROUP, "--a", "2", "--table", "[1, 2]"],
    ("group", "g123"): ["--group", GROUP],
}


def tails(option: str, value: str) -> list:
    """Help and malformed endings of a request whose input is ``option``."""
    return [
        [], ["-h"], ["--help"], ["--he"], [option[:5], value], [f"{option}={value}"],
        [option, value, option, value], ["-x"], ["--"], ["--", "stray"],
        ["--kmax"], ["--kmax", "x"], ["--kmax", "-1"], ["--output", "xml"],
        ["--output=json"], ["stray"], ["-h", "-x"],
    ]


def matrix():
    for words, required in LEAVES.items():
        for tail in tails(*required[:2]):
            yield [*words, *tail]
            yield [*words, *required, *tail]
    for words in [(), ("theta",), ("core",), ("group",), ("nonsense",)]:
        for tail in tails("--spec", GRAPH):
            yield [*words, *tail]
    yield ["--spec", GRAPH, "theta", "validate"]
    yield ["theta", "--spec", GRAPH, "validate"]
    yield ["Theta", "validate", "--spec", GRAPH]
    yield ["theta", "valid", "--spec", GRAPH]
    # a leaf's words in the wrong place
    yield ["theta", "double", "--spec", GRAPH]
    yield ["double", "validate", "--spec", GRAPH]
    yield ["group", "theta", "validate", "--spec", GRAPH]


def corpus():
    with open(POOL, "r", encoding="utf-8") as fh:
        for items in json.load(fh).values():
            for item in items:
                yield item["argv"]
    yield ["theta", "periodicity", "--spec", DEEP_SPEC, "--kmax", "8"]
    yield ["crossed-product", "--spec", DEEP_SPEC, "--kmax", "4"]
    for spec in CORE_SPECS:
        for output in ("json", "table"):
            yield ["core", "verify", "--spec", json.dumps(spec), "--max-degree", "1,1",
                   "--output", output]
    yield from matrix()


def run(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    load(THIS_SRC, "twograph_this")
    load(Path(argv[0]).resolve(), "twograph_other")
    this = importlib.import_module("twograph_this.cli")
    other = importlib.import_module("twograph_other.cli")
    requests = 0
    for request in corpus():
        mine, theirs = run(this, request), run(other, request)
        if mine != theirs:
            print(f"MISMATCH on {request!r}: this tree {mine!r}, other {theirs!r}")
            return 1
        requests += 1
    print(f"{requests} CLI requests: 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
