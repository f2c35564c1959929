"""Self-test of the tracer in ``tracing.py``.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py [--seed 1]

For each workload it runs one untraced pass, then three traced passes, in
one process, and checks that:

* every wrapper is installed in each namespace that holds its function;
* each wrapper fires on the workloads that use it and stays at zero on
  the others (``candidate_pairing`` on core-verify, ``product`` on
  deep-period, ...);
* traced outputs are byte-identical to untraced outputs;
* call counts and GC counts repeat exactly between the last two traced passes;
* core-verify times all twelve identity-suite checks;
* the metric names and units match ``BENCHMARK.json``.

It prints the tracing overhead per workload.  Exit status 0 means every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Namespaces holding each wrapped function: its module, the package when it
# re-exports it, and modules that imported it by value.
NAMESPACES = {
    "cli.request": 1,
    "cli.build_parser": 1,
    "graphs.compose": 2,  # Path.compose and Path.__mul__
    "graphs.split": 1,
    "graphs.enumerate_paths": 1,
    "graphs.from_json": 1,
    "periodicity.candidate_pairing": 2,
    "periodicity.verify_period": 2,
    "periodicity.decide_periodicity": 4,  # periodicity, package, doubling, cli
    "doubling.double": 3,
    "doubling.crossed_product_report": 3,
    "algebra.product": 1,
    "algebra.shift": 2,
    "algebra.transfer": 2,
    "algebra.is_zero": 1,
    "algebra.identity_suite": 3,
    "groups.transfer_eval": 3,
    "groups.check_conditions": 3,
    "groups.classify": 3,
}

_PERIODICITY = {
    "periodicity.candidate_pairing",
    "periodicity.verify_period",
    "periodicity.decide_periodicity",
}
_ALGEBRA = {
    "algebra.product",
    "algebra.shift",
    "algebra.transfer",
    "algebra.is_zero",
    "algebra.identity_suite",
}
_GROUPS = {"groups.transfer_eval", "groups.check_conditions", "groups.classify"}
_CLI = {"cli.request", "cli.build_parser", "graphs.from_json"}

# workload -> (spans that must fire, spans that must stay at zero)
EXPECT = {
    "deep-period": (
        _CLI | _PERIODICITY | {"graphs.compose", "graphs.split", "graphs.enumerate_paths",
                               "doubling.double", "doubling.crossed_product_report"},
        _ALGEBRA | _GROUPS,
    ),
    "core-verify": (
        _CLI | _ALGEBRA | {"graphs.compose", "graphs.split", "doubling.double"},
        _PERIODICITY | _GROUPS | {"doubling.crossed_product_report"},
    ),
    "small-requests": (
        _CLI | _PERIODICITY | _GROUPS | {"graphs.compose", "graphs.split",
                                         "graphs.enumerate_paths", "doubling.double",
                                         "doubling.crossed_product_report"},
        _ALGEBRA,
    ),
}


def _counts(metrics: dict) -> dict:
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith(".calls") or k in ("gc.collections", "gc.gen2_collections")
    }


def check_benchmark_file(failures: list) -> None:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append(f"end_to_end metrics differ from run.py: {declared}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != tracing.metric_units():
        failures.append("per_layer metrics differ from tracing.metric_units()")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        failures.append("workload names differ from workloads.WORKLOADS")


def check_workload(name: str, seed: int, tracer, failures: list) -> None:
    requests = workloads.build(name, seed)
    gc.collect()
    plain = run.run_pass(requests, keep_outputs=True)
    traced = []
    tracer.install()
    try:
        # the first pass in a process runs library set-up (argparse, re
        # caches) once, so its GC count differs; the later two are compared
        for _ in range(3):
            gc.collect()
            tracer.reset()
            result = run.run_pass(requests, tracer, keep_outputs=True)
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.span_totals()
            traced.append(result)
    finally:
        tracer.uninstall()

    if plain["failed"]:
        failures.append(f"{name}: {plain['failed']} untraced outputs differ from expected")
    for result in traced:
        if result["outputs"] != plain["outputs"]:
            failures.append(f"{name}: traced outputs differ from untraced outputs")
    first, second = (_counts(r["layers"]) for r in traced[1:])
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        failures.append(f"{name}: counts differ between traced passes: {diff}")

    spans = traced[0]["spans"]
    fire, silent = EXPECT[name]
    for span in sorted(fire):
        if spans.get(span, [0])[0] == 0:
            failures.append(f"{name}: {span} never fired")
    for span in sorted(silent):
        if spans.get(span, [0])[0] != 0:
            failures.append(f"{name}: {span} fired {spans[span][0]} times, expected 0")
    if name == "core-verify":
        timed = set(tracer.check_s)
        if timed != set(tracing.SUITE_CHECKS):
            failures.append(f"core-verify: suite checks timed {sorted(timed)}")

    overhead = traced[1]["wall"] / plain["wall"] - 1
    print(f"{name:<15} untraced pass {plain['wall']:8.3f} s   traced pass "
          f"{traced[1]['wall']:8.3f} s   overhead {overhead:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tracer self-test")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures: list = []
    check_benchmark_file(failures)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    for span, count in NAMESPACES.items():
        if tracer.patched.get(span) != count:
            failures.append(
                f"{span} wrapped in {tracer.patched.get(span)} namespaces, expected {count}"
            )
    for name in workloads.WORKLOADS:
        check_workload(name, args.seed, tracer, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
