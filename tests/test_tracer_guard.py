"""The benchmark's tracer still finds what it wraps, and changes no output.

``perfbench/tracing.py`` wraps functions by attribute name from outside
``src/``.  A refactor that renames or moves one of them would silently
break ``perfbench/run.py --trace 1``, so this imports the tracer as it
is and installs it around one ``core verify`` run.
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


def _core_verify() -> str:
    spec = json.dumps(flip_graph(2, 2).to_json())
    argv = ["core", "verify", "--spec", spec, "--max-degree", "1,1", "--output", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


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
