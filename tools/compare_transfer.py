"""Compare this tree's ``group transfer`` with another tree's, byte for byte.

Usage: python tools/compare_transfer.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout (or the checkout
itself), for example a ``git worktree`` of the parent commit.  Both
``twograph`` packages are loaded side by side under their own module
names, as ``tools/compare_periodicity.py`` loads them, and each request
goes through both trees' ``cli.main``.  The exit code, stdout and stderr
must be equal on a fixed corpus:

- the 40 ``group transfer`` argvs of ``perfbench/expected/small-pool.json``;
- 2,000 seeded tables on random finite groups, mixing ints with "p/q"
  strings, negatives, zeros, repeats, large numerators and the spellings
  only Fraction reads;
- the malformed entries ``true`` after ``1``, ``1.0``, ``null``, ``[1]``,
  ``{"x": 1}``, ``"1/0"``, an Arabic-Indic digit, ``"1e5000"`` and the
  accepted ``"+1"``, at every position of a short table, and a few
  malformed requests;
- a table whose values are too long to print.

Prints the number of requests and exits with status 1 at the first
mismatch, naming the request.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

from compare_periodicity import THIS_SRC, load

POOL = THIS_SRC.parent / "perfbench" / "expected" / "small-pool.json"

# invariant factor chains of order at most 96, each dividing the next
GROUPS = [
    [], [1], [2], [3], [4], [5], [6], [7], [8], [12], [16], [30], [64], [96],
    [2, 2], [2, 4], [3, 3], [2, 6], [4, 4], [3, 6], [2, 8], [4, 8], [6, 12],
    [2, 2, 2], [2, 2, 4], [2, 4, 8], [3, 3, 3], [2, 2, 2, 2], [2, 2, 2, 4],
]
MALFORMED = [True, 1.0, None, [1], {"x": 1}, "1/0", "١", "1e5000", "+1"]
SPELLINGS = ["0.5", "-0", "007", "1e3", "2.5E-3", "1_000", " 3/4 ", "٣/4", "+5", "-6/4"]


def transfer_argv(factors, a, table) -> list:
    return ["group", "transfer", "--group", json.dumps({"kind": "finite", "factors": factors}),
            "--a", str(a), "--table", json.dumps(table)]


def random_entry(rng: random.Random):
    pick = rng.random()
    if pick < 0.3:
        return rng.randint(-30, 30)
    if pick < 0.6:
        return f"{rng.randint(-50, 50)}/{rng.randint(1, 12)}"
    if pick < 0.7:
        return 0
    if pick < 0.8:
        return rng.choice([1, -1]) * 10 ** rng.randint(15, 60) + rng.randint(0, 99)
    if pick < 0.9:
        return f"{rng.randint(-10**40, 10**40)}/{rng.randint(1, 10**6)}"
    return rng.choice(SPELLINGS)


def seeded_argvs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        factors = rng.choice(GROUPS)
        order = 1
        for d in factors:
            order *= d
        # a small palette makes repeats, and so repeated sums, common
        palette = [random_entry(rng) for _ in range(rng.randint(1, 8))]
        table = [rng.choice(palette) if rng.random() < 0.6 else random_entry(rng)
                 for _ in range(order)]
        yield transfer_argv(factors, rng.randint(1, 13), table)


def malformed_argvs():
    for entry in MALFORMED:
        for position in range(4):
            table = [1, "1/2", 1, "1"]
            table[position] = entry
            yield transfer_argv([4], 2, table)
    yield transfer_argv([4], 2, [1, True])  # too short: the size is checked first
    yield transfer_argv([2], 0, [1, 2])
    yield transfer_argv([2], 1, "5")
    yield transfer_argv([2], 1, {"x": 1})
    yield ["group", "transfer", "--group", '{"kind": "torus", "rank": 1}', "--a", "1",
           "--table", "[1]"]


def corpus():
    with open(POOL, "r", encoding="utf-8") as fh:
        for item in json.load(fh)["transfer"]:
            yield item["argv"]
    yield from seeded_argvs(2000, 29)
    yield from malformed_argvs()
    # every entry parses, but the sums have about 8,000 digits
    yield transfer_argv([3], 3, ["1e4000", "1e-4000", 3])
    yield transfer_argv([3], 1, ["1e4000", "1e-4000", 3])


def run(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
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
    print(f"{requests} group transfer requests: 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
