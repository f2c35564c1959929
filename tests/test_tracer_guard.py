"""The benchmark's tracer still finds what it wraps, and changes no output.

``perfbench/tracing.py`` wraps functions by attribute name from outside
``src/``.  A refactor that renames or moves one of them would silently
break ``perfbench/run.py --trace 1``, so this imports the tracer as it
is and installs it around ``core verify``, ``group transfer`` and
``theta normal-form`` runs.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from twograph import cli, flip_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _core_verify() -> str:
    spec = json.dumps(flip_graph(2, 2).to_json())
    return _run(["core", "verify", "--spec", spec, "--max-degree", "1,1", "--output", "json"])


_SMALL = (
    ["group", "transfer", "--group", '{"kind": "finite", "factors": [2, 4]}',
     "--a", "2", "--table", '[1, "1/2", -3, 0, "7/3", 2, 5, "-1/4"]'],
    ["theta", "normal-form", "--spec", json.dumps(flip_graph(2, 2).to_json()),
     "--word", "r1 b0", "--pattern", "RB"],
)


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    missing = [
        (name, attr) for name, owner, attr in tracing.TARGETS if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_leaves_core_verify_bytes_unchanged():
    tracing = _load_tracing()
    plain = _core_verify()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _core_verify()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _core_verify() == plain
    totals = tracer.span_totals()
    for span in ("cli.request", "algebra.product", "algebra.shift", "algebra.transfer"):
        assert totals[span][0] > 0, span


def test_tracer_leaves_small_request_bytes_unchanged_and_counts_parser_calls():
    tracing = _load_tracing()
    plain = [_run(argv) for argv in _SMALL]
    built = cli.build_parser.cache_info().misses
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_run(argv) for argv in _SMALL * 3]
    finally:
        tracer.uninstall()
    assert traced == plain * 3
    totals = tracer.span_totals()
    # the parser is built once per process, but still entered once per request
    assert totals["cli.request"][0] == 6
    assert totals["cli.build_parser"][0] == 6
    assert totals["groups.transfer_eval"][0] == 3
    assert cli.build_parser.cache_info().misses == built
