"""Regenerate the checked-in expected outputs under ``perfbench/expected``.

Run from the repository root:

    python3 perfbench/make_expected.py

It records what the current program prints for every benchmark request,
after confirming the deep-period verdicts with the independent oracles in
``tests/_oracles.py`` and checking the normal-form reorders against the
randomized-swap oracle.  It refuses to write a pool entry that does not
exit 0.  Only rerun it when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from _oracles import easier_periodic_holds, randomized_reorder  # noqa: E402
from twograph import (  # noqa: E402
    TwoGraph,
    candidate_pairing,
    double,
    minimal_exponents,
    random_two_graph,
    verify_period,
)

import workloads  # noqa: E402
from workloads import run_cli  # noqa: E402

POOL_SEED = 20120430
GRAPHS_PER_SHAPE = 24
GROUPS_PER_KIND = 40
SHAPES = ((2, 2), (3, 3), (4, 2), (2, 4), (4, 4))
MAX_GROUP_ORDER = 720
# A full candidate pass over more products than this is deep-period's job.
SMALL_PASS_PRODUCTS = 4096


def _record(argv: list) -> dict:
    code, out = run_cli(argv)
    if code != 0:
        raise SystemExit(f"request exits {code}, not 0: {argv}")
    return {"argv": argv, "exit": code, "stdout": json.loads(out)}


def _confirm_deep() -> None:
    deep = TwoGraph.from_json(workloads.DEEP_SPEC)
    for k in range(1, 9):
        if easier_periodic_holds(deep, k, k, (k + 1, k + 1)):
            raise SystemExit(f"oracle: deep graph may be periodic at ({k},{k})")
    # the doubled graph has 16^4 paths of degree (2,2); higher k is out of reach
    if easier_periodic_holds(double(deep), 1, 1, (2, 2)):
        raise SystemExit("oracle: doubled deep graph may be periodic at (1,1)")
    twin3 = TwoGraph.from_json(workloads.TWIN3_SPEC)
    a, b = workloads.REVERIFY_AT
    if not easier_periodic_holds(twin3, a, b, (a + 1, b + 1)):
        raise SystemExit(f"oracle: twin_graph(3) is not periodic at {(a, b)}")


def deep_expected() -> dict:
    _confirm_deep()
    out = {kind: _record(argv) for kind, argv in workloads.deep_argvs().items()}
    for entry in out.values():
        del entry["argv"]
    if out["theta_periodicity"]["stdout"]["kind"] != "aperiodic":
        raise SystemExit("deep graph verdict is not aperiodic")
    code, text = workloads.reverify(json.dumps(workloads.TWIN3_SPEC), *workloads.REVERIFY_AT)
    if code != 0:
        raise SystemExit("twin_graph(3) witness did not verify")
    out["period_reverify"] = {"exit": code, "stdout": json.loads(text)}
    return out


def core_expected() -> dict:
    out = {}
    for name, spec, degree in workloads.CORE_GRAPHS:
        entries = [_record(workloads.core_argv(spec, degree, seed)) for seed in (0, 1)]
        if entries[0]["stdout"] != entries[1]["stdout"]:
            raise SystemExit(f"core verify output of {name} depends on --seed")
        if not all(check["passed"] for check in entries[0]["stdout"]):
            raise SystemExit(f"identity suite fails on {name}")
        del entries[0]["argv"]
        out[name] = entries[0]
    return out


def _runs_deep_pass(graph: TwoGraph, kmax: int) -> bool:
    """Whether ``theta periodicity --kmax`` runs a full candidate pass over
    more than SMALL_PASS_PRODUCTS products before it decides."""
    a0, b0 = minimal_exponents(graph.n_blue, graph.n_red)
    for k in range(1, kmax + 1):
        a, b = k * a0, k * b0
        pairing = candidate_pairing(graph, a, b)
        if pairing is None:
            continue
        if graph.path_count((a, b)) > SMALL_PASS_PRODUCTS:
            return True
        if verify_period(graph, a, b, pairing):
            return False
    return False


def _invariant_factor_lists(max_order: int) -> list:
    """Every d1 | d2 | ... with all d >= 2 and product <= max_order."""
    out = [[]]
    frontier = [[d] for d in range(2, max_order + 1)]
    while frontier:
        out.extend(frontier)
        nxt = []
        for factors in frontier:
            order = 1
            for d in factors:
                order *= d
            last = factors[-1]
            m = last
            while order * m <= max_order:
                nxt.append(factors + [m])
                m += last
        frontier = nxt
    return out


def _word_and_pattern(rng: random.Random, n1: int, n2: int) -> tuple:
    colors = [rng.randrange(2) for _ in range(rng.randint(2, 6))]
    word = " ".join(
        ("b" if c == 0 else "r") + str(rng.randrange(n1 if c == 0 else n2)) for c in colors
    )
    pattern = colors[:]
    rng.shuffle(pattern)
    return word, "".join("BR"[c] for c in pattern)


def _rational(rng: random.Random):
    num = rng.randint(-9, 9)
    den = rng.randint(1, 6)
    return num if den == 1 else str(Fraction(num, den))


def small_pool() -> dict:
    rng = random.Random(POOL_SEED)
    pool = {kind: [] for kind in workloads.SMALL_MIX}
    for n1, n2 in SHAPES:
        for _ in range(GRAPHS_PER_SHAPE):
            graph = random_two_graph(n1, n2, rng)
            spec = json.dumps(graph.to_json(), separators=(",", ":"))
            pool["validate"].append(_record(["theta", "validate", "--spec", spec]))
            for _ in range(2):
                word, pattern = _word_and_pattern(rng, n1, n2)
                entry = _record(
                    ["theta", "normal-form", "--spec", spec, "--word", word, "--pattern", pattern]
                )
                path = graph.path(word)
                want = randomized_reorder(graph, path, ["BR".index(c) for c in pattern], rng)
                got = " ".join(("b" if c == 0 else "r") + str(x) for c, x in want)
                if entry["stdout"]["reordered"] != got:
                    raise SystemExit(f"reorder oracle disagrees on {word} -> {pattern}")
                pool["normal-form"].append(entry)
            if not _runs_deep_pass(graph, 4):
                pool["periodicity"].append(
                    _record(["theta", "periodicity", "--spec", spec, "--kmax", "4"])
                )
            pool["double"].append(_record(["double", "--spec", spec]))
            if (n1, n2) == (2, 2):
                pool["crossed-product"].append(
                    _record(["crossed-product", "--spec", spec, "--kmax", "2"])
                )
    groups = _invariant_factor_lists(MAX_GROUP_ORDER)
    for kind in ("classify", "g123", "transfer"):
        for factors in rng.sample(groups, GROUPS_PER_KIND):
            group = json.dumps({"kind": "finite", "factors": factors})
            if kind == "transfer":
                order = 1
                for d in factors:
                    order *= d
                table = json.dumps([_rational(rng) for _ in range(order)])
                argv = ["group", "transfer", "--group", group,
                        "--a", str(rng.randint(1, 12)), "--table", table]
            else:
                argv = ["group", kind, "--group", group]
            pool[kind].append(_record(argv))
    return pool


def _write(name: str, obj) -> None:
    path = workloads.EXPECTED / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    workloads.EXPECTED.mkdir(exist_ok=True)
    _write("deep-period.json", deep_expected())
    _write("core-verify.json", core_expected())
    _write("small-pool.json", small_pool())


if __name__ == "__main__":
    main()
