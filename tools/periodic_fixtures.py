"""Regenerate the fixture of periodic tables that the pair certificate leaves alone.

Usage: python tools/periodic_fixtures.py [OUT]

Runs the census of all 40,320 4x2 and all 40,320 2x4 commutation tables.
``periodicity._aperiodic`` certifies all but 96 of each shape; of those,
``decide_periodicity`` at kmax 6 finds a period on 48 and none on the
other 48.  The 48 + 48 periodic tables are written to OUT (by default
``tests/fixtures/uncertified_periodic.json``), one JSON object a line:
the graph spec and the multiple k of the minimal exponent pair at which
the period is found.  Exits with status 1, writing nothing, if the census
counts differ from these.  Takes a few seconds.  Stdlib only.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from twograph.graphs import TwoGraph  # noqa: E402
from twograph.periodicity import _aperiodic, decide_periodicity, minimal_exponents  # noqa: E402

OUT = ROOT / "tests" / "fixtures" / "uncertified_periodic.json"
SHAPES = ((4, 2), (2, 4))
KMAX = 6
UNCERTIFIED, PERIODIC = 96, 48


def census(n_blue: int, n_red: int):
    """(uncertified count, [(spec, k)] for the periodic ones), in permutation order."""
    domain = [(e, f) for e in range(n_blue) for f in range(n_red)]
    images = [(f, e) for f in range(n_red) for e in range(n_blue)]
    a0, _ = minimal_exponents(n_blue, n_red)
    uncertified, periodic = 0, []
    for perm in itertools.permutations(images):
        graph = TwoGraph(n_blue, n_red, dict(zip(domain, perm)))
        if _aperiodic(graph):
            continue
        uncertified += 1
        verdict = decide_periodicity(graph, kmax=KMAX)
        if verdict.kind == "periodic":
            periodic.append((graph.to_json(), verdict.witness.a // a0))
    return uncertified, periodic


def main(argv: list) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]) if argv else OUT
    lines = []
    for shape in SHAPES:
        uncertified, periodic = census(*shape)
        print(f"{shape[0]}x{shape[1]}: {uncertified} uncertified, {len(periodic)} periodic")
        if (uncertified, len(periodic)) != (UNCERTIFIED, PERIODIC):
            print(f"expected {UNCERTIFIED} uncertified and {PERIODIC} periodic", file=sys.stderr)
            return 1
        lines += [json.dumps({"k": k, "spec": spec}) for spec, k in periodic]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} tables to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
