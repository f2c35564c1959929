"""Compare this tree's periodicity kernel with another tree's, case by case.

Usage: python tools/compare_periodicity.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout (or the checkout
itself), for example a ``git worktree`` of the parent commit.  Both
``twograph`` packages are loaded side by side under their own module
names, and ``minimal_exponents``, ``_candidate_codes`` and
``_pairing_codes`` are compared on a fixed case set:

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
times k.  Prints the number of cases, candidates and periods, and exits
with status 1 at the first mismatch, naming the case.  Stdlib only.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

THIS_SRC = Path(__file__).resolve().parents[1] / "src"


def load(src: Path, name: str):
    """The ``twograph`` package under ``src``, imported as ``name``."""
    root = src / "twograph"
    if not root.is_dir():
        root = src / "src" / "twograph"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".periodicity")


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


def mismatch(label: str, what: str, mine, theirs) -> None:
    print(f"MISMATCH in {what} on {label}: this tree {mine!r}, other {theirs!r}")
    sys.exit(1)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    this = load(THIS_SRC, "twograph_this")
    other = load(Path(argv[0]).resolve(), "twograph_other")
    pairs = 0
    for n1, n2 in exponent_pairs():
        mine, theirs = this.minimal_exponents(n1, n2), other.minimal_exponents(n1, n2)
        if mine != theirs:
            mismatch(f"counts {(n1, n2)}", "minimal_exponents", mine, theirs)
        pairs += 1
    cases = candidates = periods = 0

    def compare(label, n_blue, n_red, table, exponents):
        nonlocal cases, candidates, periods
        mine_graph = this.TwoGraph(n_blue, n_red, table)
        their_graph = other.TwoGraph(n_blue, n_red, table)
        for a, b in exponents:
            for name in ("_candidate_codes", "_pairing_codes"):
                mine = getattr(this, name)(mine_graph, a, b)
                theirs = getattr(other, name)(their_graph, a, b)
                if mine != theirs:
                    mismatch(f"{label} at {(a, b)}", name, mine, theirs)
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
    print(f"{pairs} count pairs, {cases} cases, {candidates} candidates, "
          f"{periods} periods: 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
