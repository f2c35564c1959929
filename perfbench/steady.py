"""Steadiness check: run workloads under several seeds and report each
end-to-end metric's spread across runs.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads deep-period,core-verify]
                                [--first-seed 1] [--record perfbench/baseline.json --label TEXT]

Each run is a separate ``run.py --trace 0`` process with its own seed, one
after another.  The spread is the distance between the quartiles of the
runs' values, as ``statistics.quantiles(values, n=4)`` gives them, as a
share of their median; the target is a third of the metric's bound in
``BENCHMARK.json``.  ``--record`` appends the medians and quartiles to a
JSON list of baseline entries.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, check=True, timeout=600,
                          capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} outputs were wrong")
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="run-to-run spread of each metric")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", help="JSON list of baseline entries to append to")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {
        "label": args.label,
        "python": platform.python_version(),
        "runs": args.runs,
        "run_seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results = [
            run_once(bench["command"], workload, args.first_seed + i, args.seconds)
            for i in range(args.runs)
        ]
        metrics = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = stats
            ok = stats["spread"] < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"{workload:<15} {name:<16} median {stats['median']:>12.6g} {stats['unit']:<4} "
                  f"q1 {stats['q1']:>12.6g}  q3 {stats['q3']:>12.6g}  spread {stats['spread']:6.1%} "
                  f"(bound {bound:.0%}){'' if ok else '  NOT STEADY'}", flush=True)
        entry["workloads"][workload] = metrics
    if args.record:
        path = Path(args.record)
        entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        entries.append(entry)
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
