"""The benchmark's workloads: the requests of one pass and their expected outputs.

Every request starts from a JSON spec, the way the CLI does, so the
per-graph memo caches start cold in every request; no graph object is
reused across requests or passes.  Requests go through ``cli.main`` except
the period re-verification, which calls the periodicity functions the way
a library user does.  Functions are looked up on their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

from twograph import cli, graphs, periodicity

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

WORKLOADS = ("deep-period", "core-verify", "small-requests")


def _flip_spec(n1: int, n2: int) -> dict:
    """Spec of flip_graph(n1, n2): (b_e)(r_f) = (r_f)(b_e)."""
    return {"n1": n1, "n2": n2, "theta": [[e, f, f, e] for e in range(n1) for f in range(n2)]}


def _twin_spec(n: int) -> dict:
    """Spec of twin_graph(n): (b_i)(r_j) = (r_i)(b_j)."""
    return {"n1": n, "n2": n, "theta": [[e, f, e, f] for e in range(n) for f in range(n)]}


# Aperiodic, but a candidate pairing exists at every k, so each k runs a
# full candidate pass and a verify pass over all 4^k products.
DEEP_SPEC = {
    "n1": 2,
    "n2": 2,
    "theta": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]],
}
# Periodic at (1,1), re-verified at (5,5) over 3^10 products.
TWIN3_SPEC = _twin_spec(3)
REVERIFY_AT = (5, 5)

# (graph name, spec, --max-degree); (2,2) takes about 20 s per graph.
CORE_GRAPHS = (
    ("flip-2x2", _flip_spec(2, 2), "2,1"),
    ("twin-2", _twin_spec(2), "1,2"),
    ("flip-3x2", _flip_spec(3, 2), "1,1"),
)

# Requests per small-requests pass, by kind, drawn from the checked-in pool.
SMALL_MIX = {
    "validate": 150,
    "normal-form": 300,
    "periodicity": 250,
    "double": 150,
    "crossed-product": 100,
    "classify": 150,
    "g123": 150,
    "transfer": 250,
}


class Request(NamedTuple):
    """One request: its kind, how to send it, and the (exit, stdout) expected."""

    kind: str
    call: Callable[[], tuple]
    expected: tuple


def run_cli(argv: list) -> tuple:
    """Run one CLI request in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def render(obj) -> str:
    """Bytes the CLI prints for a JSON result."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reverify(spec_text: str, a: int, b: int) -> tuple:
    """Candidate pass then verify pass at (a, b), as a library caller runs them."""
    graph = graphs.TwoGraph.from_json(json.loads(spec_text))
    pairing = periodicity.candidate_pairing(graph, a, b)
    ok = pairing is not None and periodicity.verify_period(graph, a, b, pairing)
    witness = periodicity.PeriodWitness(a, b, pairing).to_json() if pairing else None
    return (0 if ok else 1), render({"verified": ok, "witness": witness})


def deep_argvs() -> dict:
    spec = json.dumps(DEEP_SPEC)
    return {
        "theta_periodicity": ["theta", "periodicity", "--spec", spec, "--kmax", "8"],
        "crossed_product": ["crossed-product", "--spec", spec, "--kmax", "4"],
    }


def core_argv(spec: dict, degree: str, seed: int) -> list:
    return [
        "core", "verify", "--spec", json.dumps(spec), "--max-degree", degree,
        "--seed", str(seed), "--output", "json",
    ]


def _load(name: str):
    with open(EXPECTED / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expect(entry: dict) -> tuple:
    return entry["exit"], render(entry["stdout"])


def build(workload: str, seed: int) -> list:
    """The requests of one pass of ``workload``, generated from ``seed``.

    deep-period is fixed by definition.  core-verify passes ``seed`` to the
    suite's sampled check; its case counts and verdicts do not depend on it.
    small-requests draws its whole mix from ``seed``.
    """
    if workload == "deep-period":
        expected = _load("deep-period.json")
        requests = [
            Request(kind, lambda argv=argv: run_cli(argv), _expect(expected[kind]))
            for kind, argv in deep_argvs().items()
        ]
        spec = json.dumps(TWIN3_SPEC)
        requests.append(
            Request(
                "period_reverify",
                lambda: reverify(spec, *REVERIFY_AT),
                _expect(expected["period_reverify"]),
            )
        )
        return requests
    if workload == "core-verify":
        expected = _load("core-verify.json")
        return [
            Request(
                name,
                lambda argv=core_argv(spec, degree, seed): run_cli(argv),
                _expect(expected[name]),
            )
            for name, spec, degree in CORE_GRAPHS
        ]
    if workload == "small-requests":
        pool = _load("small-pool.json")
        rng = random.Random(seed)
        requests = []
        for kind, count in SMALL_MIX.items():
            # every pool item is sent equally often and the seed picks which
            # get one more, so the cost of a pass barely depends on the seed
            full, extra = divmod(count, len(pool[kind]))
            for item in pool[kind] * full + rng.sample(pool[kind], extra):
                requests.append(
                    Request(kind, lambda argv=item["argv"]: run_cli(argv), _expect(item))
                )
        rng.shuffle(requests)
        return requests
    raise ValueError(f"unknown workload {workload!r}")
