"""Compare this tree with another tree, case by case and byte for byte.

Usage: python tools/compare.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout (or the checkout
itself), for example a ``git worktree`` of the parent commit.  Both
``twograph`` packages are loaded once, side by side under their own
module names, and two suites run on them.

The CLI suite sends each request through both trees' ``cli.main``.  The
exit code (a usage error's SystemExit code), stdout and stderr must be
equal on a fixed corpus:

- all 743 argvs of ``perfbench/expected/small-pool.json``;
- the two CLI requests of the deep-period workload;
- ``core verify --max-degree 1,1`` on the three core-verify graphs, with
  json and with table output;
- for every command path (the root, ``theta``, ``core``, ``group`` and
  each of the nine leaves): help, abbreviations, ``--opt=value``,
  ``--``, repeated, unknown and missing options, bad ints, bad choices
  and stray positionals, and for each leaf the same after its required
  options; and a few requests that name no command or put a leaf's
  words in the wrong place;
- 2,000 seeded ``group transfer`` tables on random finite groups, mixing
  ints with "p/q" strings, negatives, zeros, repeats, large numerators
  and the spellings only Fraction reads;
- the malformed entries ``true`` after ``1``, ``1.0``, ``null``, ``[1]``,
  ``{"x": 1}``, ``"1/0"``, an Arabic-Indic digit, ``"1e5000"`` and the
  accepted ``"+1"``, at every position of a short table, and a few
  malformed ``group transfer`` requests;
- two tables whose values are too long to print;
- ``double`` and ``crossed-product --kmax 2`` on 200 seeded random
  tables of each of the 16 shapes from 1x1 to 4x4, and on the 96
  periodic tables of ``tests/fixtures/uncertified_periodic.json``, whose
  crossed products build the double and square a witness;
- each malformed ``--spec`` of ``BAD_SPECS`` through the six leaves that
  read a graph, and each malformed ``--group`` of ``BAD_GROUPS`` through
  the three that read a group: bad JSON, shapes, counts, rows and ids,
  pairs listed twice, colliding or missing, factors, kinds, ranks,
  primes, the solenoid's prime keys, and a missing file; then bad
  words, patterns, degree bounds, path caps and test ranges.

Every input-error message of ``graphs.py`` and ``groups.py`` is reached
but these, which no command line can reach.  In ``graphs.py``: a degree
that is not a pair of ints, an edge id or a bound that is not an int
and a color that is not 0 or 1 (the command line passes ints and
strings); a table that is neither rows nor a mapping (the JSON reader
passes a list); a negative degree, raised by ``path_count`` (the suite
refuses a negative bound first); a bad ``split`` or ``segment``; and
paths of two graphs.
The ``commute_*`` ids meet ``_check_id``, whose out-of-range messages
bad words reach.  In ``groups.py``: the ``Solenoid`` check of its prime
counts (the JSON reader checks them first) and the three ``unsupported
group`` errors (the reader builds only the four kinds).

The kernel suite compares ``minimal_exponents``, ``_candidate_codes``
and ``_pairing_codes`` on a fixed case set:

- every pair of counts in 2..699 x 2..299, and a few huge related pairs;
- all 24 2x2 tables at k = 1..12;
- all 40,320 4x2 and all 40,320 2x4 tables at k = 1..3, and the 96 of
  each that ``_aperiodic`` does not certify at k = 4, 5 too;
- 200 random 3x3 graphs that ``_aperiodic`` does not certify, at
  k = 1..6;
- 20,000 random 3x3 and 3,000 random 4x4 graphs at k = 1, 2;
- random 8x4, 4x8, 9x3, 3x9, 6x6, 8x2, 2x8 and 5x5 graphs;
- 1,500 cases whose path counts differ, which only ``_candidate_codes``
  and ``_pairing_codes`` accept;
- twin graphs n = 2..5, n = 2 up to k = 14 and n = 3 up to k = 9.

A graph case (graph, a, b) runs at k * (a0, b0), the minimal exponents
times k.  The CLI suite runs first, as it takes a few seconds and the
kernel suite about 25.  Each suite prints its counts, and the tool exits
with status 1 at the first mismatch, naming the case or the request.
Stdlib only.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import random
import sys
from pathlib import Path

THIS_SRC = Path(__file__).resolve().parents[1] / "src"
POOL = THIS_SRC.parent / "perfbench" / "expected" / "small-pool.json"
FIXTURE = THIS_SRC.parent / "tests" / "fixtures" / "uncertified_periodic.json"


class Mismatch(Exception):
    """The two trees answer one case differently."""


def same(what: str, case: str, mine, theirs) -> None:
    if mine != theirs:
        raise Mismatch(f"MISMATCH in {what} on {case}: this tree {mine!r}, other {theirs!r}")


def load(src: Path, name: str):
    """The ``twograph`` package under ``src`` (or ``src/src``), imported as ``name``."""
    root = src / "twograph"
    if not root.is_dir():
        root = src / "src" / "twograph"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


# -- the CLI suite --------------------------------------------------------------

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

# invariant factor chains of order at most 96, each dividing the next
GROUPS = [
    [], [1], [2], [3], [4], [5], [6], [7], [8], [12], [16], [30], [64], [96],
    [2, 2], [2, 4], [3, 3], [2, 6], [4, 4], [3, 6], [2, 8], [4, 8], [6, 12],
    [2, 2, 2], [2, 2, 4], [2, 4, 8], [3, 3, 3], [2, 2, 2, 2], [2, 2, 2, 4],
]
MALFORMED = [True, 1.0, None, [1], {"x": 1}, "1/0", "١", "1e5000", "+1"]
SPELLINGS = ["0.5", "-0", "007", "1e3", "2.5E-3", "1_000", " 3/4 ", "٣/4", "+5", "-6/4"]


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


def graph_argvs(count: int, seed: int):
    """``double`` and ``crossed-product --kmax 2`` on ``count`` random tables
    of each shape from 1x1 to 4x4, then on the fixture's periodic tables."""
    rng = random.Random(seed)
    specs = [
        {"n1": n_blue, "n2": n_red,
         "theta": [[e, f, ff, ee] for (e, f), (ff, ee) in table.items()]}
        for n_blue in range(1, 5)
        for n_red in range(1, 5)
        for table in random_tables(n_blue, n_red, count, rng.randrange(2**32))
    ]
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        specs += [item["spec"] for item in json.load(fh)]
    for spec in specs:
        text = json.dumps(spec)
        yield ["double", "--spec", text]
        yield ["crossed-product", "--spec", text, "--kmax", "2"]


# malformed --spec values: bad JSON, shapes, counts, rows and ids, and
# tables that are no bijection
BAD_SPECS = [
    '{"n1": 1,', "[1, 2]", "{}", '{"n1": 1, "n2": 1}',
    '{"n1": "2", "n2": 1, "theta": []}', '{"n1": 1, "n2": true, "theta": []}',
    '{"n1": 1.0, "n2": 1, "theta": []}', '{"n1": 1e400, "n2": 1, "theta": []}',
    '{"n1": 0, "n2": 1, "theta": []}', '{"n1": 1, "n2": -1, "theta": []}',
    '{"n1": 1, "n2": 1, "theta": {}}', '{"n1": 1, "n2": 1, "theta": "0000"}',
    '{"n1": 1, "n2": 1, "theta": [0]}', '{"n1": 1, "n2": 1, "theta": [[0, 0, 0]]}',
    '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, true]]}',
    '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, 0.0]]}',
    '{"n1": 1, "n2": 1, "theta": [[1, 0, 0, 0]]}', '{"n1": 1, "n2": 1, "theta": [[0, 0, 0, -1]]}',
    '{"n1": 1, "n2": 1, "theta": [[0, 1, 0, 0]]}', '{"n1": 1, "n2": 1, "theta": [[0, 0, 1, 0]]}',
    # a pair listed twice, two pairs with one image, pairs with no image
    '{"n1": 2, "n2": 1, "theta": [[0, 0, 0, 0], [0, 0, 0, 1]]}',
    '{"n1": 2, "n2": 1, "theta": [[0, 0, 0, 0], [1, 0, 0, 0]]}',
    '{"n1": 2, "n2": 1, "theta": [[0, 0, 0, 0]]}', '{"n1": 2, "n2": 1, "theta": []}',
    # past the interpreter's int-to-str digit limit
    '{"n1": 1%s, "n2": 1, "theta": []}' % ("0" * 5000),
    "no-such-spec.json",
]
# malformed --group values: bad JSON, shapes, kinds, factors, ranks and
# primes, and the solenoid's prime keys and multiplicities
BAD_GROUPS = [
    '{"kind": "finite",', "[2]", "{}", '{"kind": "cyclic", "factors": [2]}', '{"kind": 1}',
    '{"kind": "finite"}', '{"kind": "finite", "factors": 4}',
    '{"kind": "finite", "factors": [2.0]}', '{"kind": "finite", "factors": [true]}',
    '{"kind": "finite", "factors": [0]}', '{"kind": "finite", "factors": [2, -4]}',
    '{"kind": "finite", "factors": [2, 3]}', '{"kind": "finite", "factors": [4, 2]}',
    '{"kind": "torus"}', '{"kind": "torus", "rank": "1"}', '{"kind": "torus", "rank": 0}',
    '{"kind": "padic"}', '{"kind": "padic", "p": 2.5}', '{"kind": "padic", "p": 4}',
    '{"kind": "padic", "p": 1}', '{"kind": "padic", "p": 3317044064679887385961981}',
    '{"kind": "solenoid", "finite": [2]}', '{"kind": "solenoid", "finite": {"x": 1}}',
    '{"kind": "solenoid", "finite": {"-2": 1}}', '{"kind": "solenoid", "finite": {"٣": 1}}',
    '{"kind": "solenoid", "finite": {"2": 1.5}}', '{"kind": "solenoid", "finite": {"2": 1, "02": 1}}',
    '{"kind": "solenoid", "finite": {"4": 1}}', '{"kind": "solenoid", "finite": {"2": 0}}',
    '{"kind": "solenoid", "finite": {"1%s": 1}}' % ("0" * 5000),
    '{"kind": "solenoid", "finite": {"3317044064679887385961981": 1}}',
    '{"kind": "solenoid", "infinite": 3}', '{"kind": "solenoid", "infinite": [3.0]}',
    '{"kind": "solenoid", "infinite": [9]}',
    '{"kind": "solenoid", "finite": {"3": 1}, "infinite": [3]}',
    "no-such-group.json",
]


def malformed_inputs():
    """Every malformed --spec or --group value through every leaf that reads
    one, then bad words, patterns, degrees, caps and ranges."""
    for words, (option, _, *rest) in LEAVES.items():
        for value in BAD_SPECS if option == "--spec" else BAD_GROUPS:
            yield [*words, option, value, *rest]
    flip = json.dumps(CORE_SPECS[0])
    for tail in (["x0"], ["b"], ["b2"], ["r-1"], ["b1" + "0" * 5000], ["b0", "--pattern", "BX"],
                 ["b0 r0", "--pattern", "B"], ["b0 r0", "--pattern", "RRB"]):
        yield ["theta", "normal-form", "--spec", flip, "--word", *tail]
    for degree in ("2", "a,b", "+1,1", "1,1,1", "-1,0", "1,1" + "0" * 5000):
        yield ["core", "verify", "--spec", flip, "--max-degree", degree]
    yield ["core", "verify", "--spec", flip, "--max-degree", "1,1", "--path-cap", "1"]
    for words in (("theta", "periodicity"), ("crossed-product",), ("core", "verify")):
        yield [*words, "--spec", flip, "--path-cap", "0"]
    for words in (("group", "classify"), ("group", "g123")):
        for bound in ("0", "-3"):
            yield [*words, "--group", GROUP, "--range", bound]


def requests():
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
    yield from seeded_argvs(2000, 29)
    yield from malformed_argvs()
    yield from malformed_inputs()
    # every entry parses, but the sums have about 8,000 digits
    yield transfer_argv([3], 3, ["1e4000", "1e-4000", 3])
    yield transfer_argv([3], 1, ["1e4000", "1e-4000", 3])
    yield from graph_argvs(200, 34)


def run(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_suite(this, other) -> str:
    """Every request through both packages' ``cli.main``; the counts line."""
    this, other = (importlib.import_module(p.__name__ + ".cli") for p in (this, other))
    count = 0
    for request in requests():
        same("cli.main", repr(request), run(this, request), run(other, request))
        count += 1
    return f"{count} CLI requests: 0 mismatches"


# -- the kernel suite -----------------------------------------------------------


def tables(n_blue: int, n_red: int):
    """Every commutation bijection of an n_blue x n_red graph."""
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    images = [(f, e) for f in range(n_red) for e in range(n_blue)]
    for perm in itertools.permutations(images):
        yield dict(zip(domain, perm))


def random_tables(n_blue: int, n_red: int, count: int, seed: int):
    rng = random.Random(seed)
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    images = [(f, e) for f in range(n_red) for e in range(n_blue)]
    for _ in range(count):
        rng.shuffle(images)
        yield dict(zip(domain, images))


def graph_cases(certified):
    """(label, n_blue, n_red, table, ks) for every graph of the case set;
    ``certified(n_blue, n_red, table)`` says whether ``_aperiodic`` holds."""
    for shape, ks in (((2, 2), range(1, 13)), ((4, 2), (1, 2, 3)), ((2, 4), (1, 2, 3))):
        for i, table in enumerate(tables(*shape)):
            deep = shape != (2, 2) and not certified(*shape, table)
            yield f"{shape} table {i}", *shape, table, range(1, 6) if deep else ks
    # a decision runs passes only on graphs without the certificate
    uncertified = (t for t in random_tables(3, 3, 10**6, 10) if not certified(3, 3, t))
    for i, table in enumerate(itertools.islice(uncertified, 200)):
        yield f"uncertified (3, 3) seed 10 #{i}", 3, 3, table, range(1, 7)
    shapes = [
        ((3, 3), 20000, (1, 2)), ((4, 4), 3000, (1, 2)), ((8, 4), 300, (1,)),
        ((4, 8), 300, (1,)), ((9, 3), 500, (1, 2)), ((3, 9), 500, (1, 2)),
        ((6, 6), 500, (1, 2)), ((8, 2), 500, (1, 2)), ((2, 8), 500, (1, 2)),
        ((5, 5), 1000, (1, 2)),
    ]
    for seed, (shape, count, ks) in enumerate(shapes):
        for i, table in enumerate(random_tables(*shape, count, seed)):
            yield f"random {shape} seed {seed} #{i}", *shape, table, ks
    for n, kmax in ((2, 14), (3, 9), (4, 4), (5, 3)):
        table = {(e, f): (e, f) for e in range(n) for f in range(n)}
        yield f"twin_graph({n})", n, n, table, range(1, kmax + 1)


def unequal_cases():
    """1,500 (label, n_blue, n_red, table, a, b) with N1^a != N2^b."""
    rng = random.Random(99)
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)]
    count = 0
    while count < 1500:
        n_blue, n_red = rng.choice(shapes)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        if n_blue**a == n_red**b or n_blue**a * n_red**b > 4096:
            continue
        table = next(random_tables(n_blue, n_red, 1, rng.randrange(2**32)))
        yield f"unequal {(n_blue, n_red)} at {(a, b)} #{count}", n_blue, n_red, table, a, b
        count += 1


def exponent_pairs():
    yield from itertools.product(range(2, 700), range(2, 300))
    yield from [(2**40, 2**64), (3**20 * 5**20, 15**7), (10**6, 10**4), (6**9, 36**4)]


def kernel_suite(this, other) -> str:
    """Every case through both packages' periodicity kernel; the counts line."""
    this, other = (importlib.import_module(p.__name__ + ".periodicity") for p in (this, other))
    pairs = 0
    for n1, n2 in exponent_pairs():
        same("minimal_exponents", f"counts {(n1, n2)}",
             this.minimal_exponents(n1, n2), other.minimal_exponents(n1, n2))
        pairs += 1
    cases = candidates = periods = 0

    def compare(label, n_blue, n_red, table, exponents):
        nonlocal cases, candidates, periods
        mine_graph = this.TwoGraph(n_blue, n_red, table)
        their_graph = other.TwoGraph(n_blue, n_red, table)
        for a, b in exponents:
            for name in ("_candidate_codes", "_pairing_codes"):
                mine = getattr(this, name)(mine_graph, a, b)
                same(name, f"{label} at {(a, b)}", mine, getattr(other, name)(their_graph, a, b))
                if mine is not None:
                    candidates += name == "_candidate_codes"
                    periods += name == "_pairing_codes"
            cases += 1

    def certified(n_blue, n_red, table):
        return this._aperiodic(this.TwoGraph(n_blue, n_red, table))

    for label, n_blue, n_red, table, ks in graph_cases(certified):
        a0, b0 = this.minimal_exponents(n_blue, n_red)
        compare(label, n_blue, n_red, table, [(k * a0, k * b0) for k in ks])
    for label, n_blue, n_red, table, a, b in unequal_cases():
        compare(label, n_blue, n_red, table, [(a, b)])
    return (f"{pairs} count pairs, {cases} cases, {candidates} candidates, "
            f"{periods} periods: 0 mismatches")


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    this = load(THIS_SRC, "twograph_this")
    other = load(Path(argv[0]).resolve(), "twograph_other")
    try:
        for suite in (cli_suite, kernel_suite):
            print(suite(this, other), flush=True)
    except Mismatch as exc:
        print(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
