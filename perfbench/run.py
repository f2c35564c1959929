"""twograph benchmark: one workload, closed loop, one client, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload deep-period --seed 1 --seconds 40 --trace 0

The run repeats passes over the workload's requests (each request starts
when the previous one returns) for about ``--seconds``, checks every output
against the checked-in expectations, prints one line per metric and, last,
one JSON object.  ``--trace 0`` reports the end-to-end metrics, measured
with no wrapper installed; ``--trace 1`` installs the layer wrappers of
``tracing.py`` and reports the per-layer metrics instead.  Timings are
medians over passes, at the reference machine speed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Set-up is timed in fresh interpreters before every pass, so its samples
# spread over the run as the passes do.
SETUPS_PER_PASS = 2

# On a shared VM the machine's speed drifts by a third over minutes, and
# every timing follows it: the time of a fixed pure-Python loop correlates
# 0.8 with the deep-period pass time.  So the loop runs before and after
# every pass, and the pass's timings are scaled to the speed at which the
# loop takes REFERENCE_LOOP_S.
CALIBRATION_LOOPS = 1_000_000
REFERENCE_LOOP_S = 0.07

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import and build inputs, then exit"
    )
    return parser.parse_args(argv)


def calibration_loop() -> float:
    """Seconds the fixed reference loop takes at the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import twograph and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_pass(requests: list, tracer=None, keep_outputs: bool = False) -> dict:
    """One pass over the requests; outputs are compared after each is timed."""
    clock = time.perf_counter
    latencies = []
    by_kind: dict = {}
    failed = 0
    outputs = []
    pass_start = clock()
    for request in requests:
        call = request.call if tracer is None else tracer.wrap("request", request.call)
        start = clock()
        result = call()
        elapsed = clock() - start
        latencies.append(elapsed)
        by_kind[request.kind] = by_kind.get(request.kind, 0.0) + elapsed
        failed += result != request.expected
        if keep_outputs:
            outputs.append(result)
    wall = clock() - pass_start
    return {"wall": wall, "latencies": latencies, "by_kind": by_kind,
            "failed": failed, "outputs": outputs}


def run_passes(requests: list, seconds: float, tracer=None, setup=None) -> list:
    """At least MIN_PASSES passes, then more while the next one should end
    within ``seconds`` of the start.

    Each pass records ``scale``, the factor from its timings to the
    reference speed.  ``setup()``, when given, is timed SETUPS_PER_PASS
    times before each pass and recorded, scaled, as ``setup``.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1]["wall"] <= seconds
    ):
        loop_before = calibration_loop()
        setups = [
            setup() * REFERENCE_LOOP_S / loop_before
            for _ in range(SETUPS_PER_PASS if setup is not None else 0)
        ]
        gc.collect()
        if tracer is not None:
            tracer.reset()
        result = run_pass(requests, tracer)
        if tracer is not None:
            result["layers"] = tracer.metrics()
        result["scale"] = 2 * REFERENCE_LOOP_S / (loop_before + calibration_loop())
        result["setup"] = setups
        passes.append(result)
    return passes


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def end_to_end(passes: list) -> tuple:
    """Every end-to-end metric, and the per-pass values behind the timed ones."""
    walls = [p["wall"] * p["scale"] for p in passes]
    # Each request's latency is its median over the passes, so the
    # percentiles describe the requests, not the machine's worst moments.
    latencies = [
        statistics.median(x)
        for x in zip(*([t * p["scale"] for t in p["latencies"]] for p in passes))
    ]
    per_pass = {
        "setup_s": [t for p in passes for t in p["setup"]],
        "wall_s": walls,
        "requests_per_s": [len(p["latencies"]) / w for p, w in zip(passes, walls)],
    }
    metrics = {
        "setup_s": statistics.median(per_pass["setup_s"]),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests_per_s": statistics.median(per_pass["requests_per_s"]),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
    }
    return metrics, per_pass


def report_line(workload: str, name: str, value, unit: str, values=None) -> str:
    line = f"{workload:<15} {name:<44} {value:>14.6g} {unit:<6}"
    if values is not None:
        line += f" spread {spread(values):6.1%}  n={len(values)}"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twograph" / "__init__.py").is_file():
        sys.stderr.write(f"error: twograph sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    requests = workloads.build(args.workload, args.seed)
    setup = tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        time_setup(args.workload, args.seed)  # writes the bytecode cache; not counted

        def setup():
            return time_setup(args.workload, args.seed)

    try:
        passes = run_passes(requests, args.seconds, tracer, setup)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    w = args.workload
    print(report_line(w, "passes", len(passes), "count"))
    print(report_line(w, "failed_share", failed / attempted, "ratio"))
    scales = [p["scale"] for p in passes]
    print(report_line(w, "scale_to_reference_speed", statistics.median(scales), "ratio", scales))
    raw_walls = [p["wall"] for p in passes]
    print(report_line(w, "unscaled_wall_s", statistics.median(raw_walls), "s", raw_walls))
    for kind in passes[0]["by_kind"]:
        values = [p["by_kind"][kind] * p["scale"] for p in passes]
        print(report_line(w, f"{kind}_s", statistics.median(values), "s", values))

    if tracer is None:
        units = END_TO_END_UNITS
        metrics, per_pass = end_to_end(passes)
        for name, value in metrics.items():
            print(report_line(w, name, value, units[name], per_pass.get(name)))
    else:
        units = tracing.metric_units()
        metrics = {}
        for name, unit in units.items():
            values = [p["layers"][name] * (p["scale"] if unit == "s" else 1) for p in passes]
            metrics[name] = statistics.median(values)
            print(report_line(w, name, metrics[name], unit, values))
        print("\n".join(f"{w:<15} {line}" for line in tracer.table()))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
