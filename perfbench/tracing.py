"""Per-layer tracing of twograph, done entirely from outside ``src/``.

``Tracer.install`` replaces each public function named in ``TARGETS`` in
every namespace that holds it: the defining module, the package, and the
modules that imported it by value (``cli`` and ``doubling``), plus class
aliases such as ``Path.__mul__`` for ``Path.compose``.  Each wrapper keeps
aggregated calls, total time and self time per (span, parent span), never
one record per call: a core-verify pass makes hundreds of thousands of
``compose`` calls.  Self time is a span's time minus the time of the
wrapped spans it called.

Identity-suite checks run inside closures of ``identity_suite``, so each
check's time is taken from the timestamps of successive
``algebra.SuiteCheck`` constructions.  Garbage collections are counted
through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import sys
import time

from twograph import algebra, cli, doubling, graphs, groups, periodicity

# (span name, owner of the attribute, attribute)
TARGETS = (
    ("cli.request", cli, "main"),
    ("cli.build_parser", cli, "build_parser"),
    ("graphs.compose", graphs.Path, "compose"),
    ("graphs.split", graphs.Path, "split"),
    ("graphs.enumerate_paths", graphs.TwoGraph, "enumerate_paths"),
    ("graphs.from_json", graphs.TwoGraph, "from_json"),
    ("periodicity.candidate_pairing", periodicity, "candidate_pairing"),
    ("periodicity.verify_period", periodicity, "verify_period"),
    ("periodicity.decide_periodicity", periodicity, "decide_periodicity"),
    ("doubling.double", doubling, "double"),
    ("doubling.crossed_product_report", doubling, "crossed_product_report"),
    ("algebra.product", algebra.GradedElement, "__mul__"),
    ("algebra.shift", algebra, "shift"),
    ("algebra.transfer", algebra, "transfer"),
    ("algebra.is_zero", algebra.GradedElement, "is_zero"),
    ("algebra.identity_suite", algebra, "identity_suite"),
    ("groups.transfer_eval", groups, "transfer_eval"),
    ("groups.check_conditions", groups, "check_conditions"),
    ("groups.classify", groups, "classify"),
)

# Spans whose truthy results count as useful outcomes (a candidate found,
# a period verified).
OUTCOME_SPANS = ("periodicity.candidate_pairing", "periodicity.verify_period")

SUITE_CHECKS = (
    "transfer-unit",
    "shift-unit",
    "transfer-identity-generators",
    "transfer-identity-all-degrees",
    "transfer-action",
    "transfer-section",
    "module-orthonormal",
    "module-product",
    "cuntz-commutation",
    "cuntz-family",
    "covariance",
    "star-axioms",
)

_CALLS_AND_SELF = (
    "cli.build_parser",
    "graphs.compose",
    "graphs.split",
    "graphs.enumerate_paths",
    "periodicity.candidate_pairing",
    "periodicity.verify_period",
    "doubling.double",
    "algebra.product",
    "algebra.shift",
    "algebra.transfer",
    "algebra.is_zero",
    "groups.transfer_eval",
    "groups.check_conditions",
)
_SELF_ONLY = (
    "cli.request",
    "graphs.from_json",
    "periodicity.decide_periodicity",
    "doubling.crossed_product_report",
    "groups.classify",
)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in sorted(_CALLS_AND_SELF + _SELF_ONLY):
        if span in _CALLS_AND_SELF:
            units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units["periodicity.candidate_found_ratio"] = "ratio"
    units["periodicity.verify_ok_ratio"] = "ratio"
    for check in SUITE_CHECKS:
        units[f"algebra.check.{check}.s"] = "s"
    units["gc.collections"] = "count"
    units["gc.gen2_collections"] = "count"
    units["gc.pause_s"] = "s"
    return units


def _namespaces() -> list:
    """The twograph modules and the classes they define."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name != "twograph" and not name.startswith("twograph."):
            continue
        out.append(module)
        out.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        )
    return out


class Tracer:
    """Aggregated spans, suite-check times and GC counts for one pass."""

    def __init__(self) -> None:
        self.stats: dict = {}  # (span, parent) -> [calls, truthy results, total s, self s]
        self.check_s: dict = {}
        self.gc_collections = 0
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self.patched: dict = {}  # span -> namespaces patched
        self._stack: list = []
        self._saved: list = []
        self._suite_mark = 0.0
        self._gc_start = 0.0

    def reset(self) -> None:
        self.stats.clear()
        self.check_s.clear()
        self.gc_collections = 0
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` inside a span called ``name``."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        count_ok = name in OUTCOME_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += elapsed
                rec[3] += elapsed - frame[1]
            if count_ok and result:
                rec[1] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def _mark_suite_start(self, suite):
        def marked(*args, **kwargs):
            self._suite_mark = time.perf_counter()
            return suite(*args, **kwargs)

        return marked

    def _stamp_checks(self, suite_check):
        def stamped(*args, **kwargs):
            check = suite_check(*args, **kwargs)
            now = time.perf_counter()
            self.check_s[check.name] = self.check_s.get(check.name, 0.0) + now - self._suite_mark
            self._suite_mark = now
            return check

        return stamped

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_collections += 1
        self.gc_gen2 += info["generation"] == 2
        self.gc_pause_s += time.perf_counter() - self._gc_start

    # -- install / remove ---------------------------------------------------

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = _namespaces()
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            original = raw.__func__ if isinstance(raw, classmethod) else raw
            call = original
            if name == "algebra.identity_suite":
                call = self._mark_suite_start(original)
            wrapper = self.wrap(name, call)
            patched = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, key, wrapper)
                    elif isinstance(value, classmethod) and value.__func__ is original:
                        self._replace(ns, key, classmethod(wrapper))
                    else:
                        continue
                    patched += 1
            self.patched[name] = patched
        # only the suite's own module: the package keeps exporting the class
        self._replace(algebra, "SuiteCheck", self._stamp_checks(algebra.SuiteCheck))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def span_totals(self) -> dict:
        """span -> [calls, truthy results, total s, self s], summed over parents."""
        out: dict = {}
        for (name, _), rec in self.stats.items():
            acc = out.setdefault(name, [0, 0, 0.0, 0.0])
            for i, value in enumerate(rec):
                acc[i] += value
        return out

    def metrics(self) -> dict:
        """Every metric of ``metric_units``, for the pass since ``reset``."""
        totals = self.span_totals()
        zero = [0, 0, 0.0, 0.0]
        out = {}
        for span in _CALLS_AND_SELF + _SELF_ONLY:
            calls, _, _, self_s = totals.get(span, zero)
            if span in _CALLS_AND_SELF:
                out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = self_s
        for span, metric in (
            ("periodicity.candidate_pairing", "periodicity.candidate_found_ratio"),
            ("periodicity.verify_period", "periodicity.verify_ok_ratio"),
        ):
            calls, ok, _, _ = totals.get(span, zero)
            out[metric] = ok / calls if calls else 0.0
        for check in SUITE_CHECKS:
            out[f"algebra.check.{check}.s"] = self.check_s.get(check, 0.0)
        out["gc.collections"] = self.gc_collections
        out["gc.gen2_collections"] = self.gc_gen2
        out["gc.pause_s"] = self.gc_pause_s
        return out

    def table(self) -> list:
        """Lines of the per-parent span table, busiest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][3])
        lines = [f"{'span':<34} {'parent':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (calls, _, total, self_s) in rows:
            lines.append(f"{name:<34} {parent or '-':<34} {calls:>9} {total:>10.4f} {self_s:>10.4f}")
        return lines
