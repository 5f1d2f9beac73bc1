"""Spans and counters around calls into symcont, installed from outside.

Nothing under ``src/`` knows about tracing. ``instrument`` rebinds each
traced name where its callers look it up: a module-level function is
replaced in every ``symcont`` module that holds it (so ``analysis.evaluate``
is wrapped, not only ``functions.evaluate``), and a method is replaced on the
class that defines it (each ``Domain`` subclass's ``enumerate`` and
``contains``, ``IntervalPiece.grid``, the ``QuadExt`` dunders). Every
original is restored when the ``with`` block ends.

A span is ``(index, name, start_ns, end_ns, parent_index, op_id, self_ns)``.
Spans stay in memory and are written out once, by ``Tracer.write``. Self time
is a span's duration minus the part its child spans cover. A layer's
``_s`` metric is the summed duration of its outermost spans, so a recursive
call (``evaluate`` on a ``Combined``) is not counted twice.

``QuadExt`` arithmetic is counted, never timed: it runs millions of times
per pass and a clock read around each call would swamp the result.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

# (module, function name, span name); each name is wrapped in every symcont
# module that holds the same function object
MODULE_FUNCTIONS = (
    ("symcont.functions", "evaluate", "functions.evaluate"),
    ("symcont.analysis", "_probe_points", "analysis.probe"),
    ("symcont.analysis", "_pairs_from_points", "analysis.survey"),
    ("symcont.analysis", "_window_scan_int", "analysis.scan"),
    ("symcont.analysis", "_window_scan_exact", "analysis.scan"),
    ("symcont.analysis", "_per_point_c", "analysis.per_point_c"),
    ("symcont.analysis", "_sc_family", "analysis.sc_family"),
    ("symcont.analysis", "_usc_family", "analysis.usc_family"),
    ("symcont.analysis", "_uc_family", "analysis.uc_family"),
    ("symcont.analysis", "check_wrt_subset", "analysis.wrt_subset"),
    ("symcont.analysis", "verify_witness", "analysis.verify"),
    ("symcont.analysis", "verify_refuting_sequence", "analysis.verify"),
    ("symcont.analysis", "_interval_classify", "analysis.interval"),
    ("symcont.analysis", "_staircase_classify", "analysis.staircase"),
    ("symcont.analysis", "classify", "analysis.classify"),
    ("symcont.specfile", "parse_spec", "specfile.parse"),
    ("symcont.report", "analyze_report", "report.render"),
    ("symcont.report", "moduli_report", "report.render"),
    ("symcont.report", "dump_json", "report.render"),
    ("symcont.report", "render_analyze_text", "report.render"),
    ("symcont.report", "render_moduli_text", "report.render"),
    ("symcont.report", "render_zoo_text", "report.render"),
    ("symcont.zoo", "run_all", "zoo.run_all"),
    ("symcont.zoo", "run_case", "zoo.run_case"),
    ("symcont.cli", "main", "cli.main"),
)

ARITH_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__abs__",
)
CMP_DUNDERS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")
DIV_DUNDERS = ("__truediv__", "__rtruediv__")

COUNTERS = (
    "exactnum.ops",
    "exactnum.cmp_ops",
    "exactnum.div_ops",
    "domains.enumerate_points",
    "domains.grid_points",
    "analysis.survey_candidates",
    "analysis.survey_pairs",
    "analysis.scan_pairs",
    "analysis.scan_int_calls",
    "analysis.scan_exact_calls",
)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        # name -> [calls, outermost calls, outermost ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self.op_id = 0
        self._stack: list[list] = []  # [index, name, start_ns, child_ns]
        self._depth: dict[str, int] = {}
        self._next_index = 0

    def op_span(self, kind: str):
        """The span of one benchmark operation; its id tags every inner span."""
        self.op_id += 1
        return self.span(f"op.{kind}")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def settle(self) -> None:
        """Close spans a deadline left open and recount nesting from the stack.

        A deadline can interrupt the bookkeeping of ``_enter``/``_exit``
        itself; calling this between operations puts the counts right."""
        while self._stack:
            self._depth[self._stack[-1][1]] = 1
            self._exit()
        self._depth.clear()

    def _enter(self, name: str) -> bool:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._stack.append([self._next_index, name, time.perf_counter_ns(), 0])
        self._next_index += 1
        return depth == 0

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start, child_ns = self._stack.pop()
        self._depth[name] -= 1
        duration = end - start
        self_ns = duration - child_ns
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        total = self.totals.setdefault(name, [0, 0, 0, 0])
        total[0] += 1
        total[3] += self_ns
        if self._depth[name] == 0:
            total[1] += 1
            total[2] += duration
        self.spans.append((index, name, start, end, parent, self.op_id, self_ns))

    def wrap(self, name: str, fn, after=None):
        """Return fn recorded as a span; after(result) runs for outermost calls."""
        tracer = self

        def traced(*args, **kwargs):
            outermost = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None and outermost:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def counting(*args):
            counts[key] += 1
            return fn(*args)

        counting.__wrapped__ = fn
        return counting

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0, 0])[2] / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0, 0])[1]

    def write(self, path: Path, header: dict) -> None:
        """Write the header, per-name totals, counters and every span.

        One JSON document per line. Spans come last, one compact array each,
        ``[id, name index, start_ns, end_ns, parent id, op id, self_ns]``,
        with the names listed once on the line before them."""
        names = sorted(self.totals)
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            totals = {
                name: {
                    "calls": calls,
                    "outermost_calls": outer,
                    "outermost_s": outer_ns / 1e9,
                    "self_s": self_ns / 1e9,
                }
                for name, (calls, outer, outer_ns, self_ns) in sorted(self.totals.items())
            }
            fh.write(json.dumps({"totals": totals}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
            fh.write(json.dumps({"span_names": names}) + "\n")
            for i, name, start, end, parent, op, self_ns in sorted(self.spans):
                fh.write(json.dumps([i, index[name], start, end, parent, op, self_ns]) + "\n")


def _after_hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def survey(result) -> None:
        counts["analysis.survey_candidates"] += result.candidates_checked
        counts["analysis.survey_pairs"] += len(result.pairs)

    def scan_int(result) -> None:
        counts["analysis.scan_int_calls"] += 1
        counts["analysis.scan_pairs"] += result[2]

    def scan_exact(result) -> None:
        counts["analysis.scan_exact_calls"] += 1
        counts["analysis.scan_pairs"] += result[2]

    return {
        "_pairs_from_points": survey,
        "_window_scan_int": scan_int,
        "_window_scan_exact": scan_exact,
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    import symcont.domains as domains
    import symcont.exactnum as exactnum

    for module_name, _, _ in MODULE_FUNCTIONS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "symcont"]
    hooks = _after_hooks(tracer)
    saved: list[tuple[object, str, object]] = []

    def rebind(owner, attr: str, new) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, attr, span_name in MODULE_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(span_name, original, hooks.get(attr))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, name, wrapper)

        counts = tracer.counts

        def add_points(result) -> None:
            counts["domains.enumerate_points"] += len(result.points)

        def add_grid(result) -> None:
            counts["domains.grid_points"] += len(result)

        for cls in vars(domains).values():
            if isinstance(cls, type) and issubclass(cls, domains.Domain):
                if "enumerate" in cls.__dict__:
                    rebind(cls, "enumerate", tracer.wrap(
                        "domains.enumerate", cls.__dict__["enumerate"], add_points))
                if "contains" in cls.__dict__:
                    rebind(cls, "contains", tracer.wrap(
                        "domains.contains", cls.__dict__["contains"]))
        piece = domains.IntervalPiece
        rebind(piece, "grid", tracer.wrap("domains.grid", piece.__dict__["grid"], add_grid))

        quad = exactnum.QuadExt
        for key, names in (
            ("exactnum.ops", ARITH_DUNDERS),
            ("exactnum.cmp_ops", CMP_DUNDERS),
            ("exactnum.div_ops", DIV_DUNDERS),
        ):
            for name in names:
                rebind(quad, name, tracer.counted(key, quad.__dict__[name]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = tracer.counts
    scans = c["analysis.scan_int_calls"] + c["analysis.scan_exact_calls"]
    candidates = c["analysis.survey_candidates"]
    s = tracer.seconds
    return {
        "exactnum.ops": (c["exactnum.ops"], "count"),
        "exactnum.cmp_ops": (c["exactnum.cmp_ops"], "count"),
        "exactnum.div_ops": (c["exactnum.div_ops"], "count"),
        "domains.enumerate_s": (s("domains.enumerate"), "s"),
        "domains.enumerate_points": (c["domains.enumerate_points"], "count"),
        "domains.contains_calls": (tracer.calls("domains.contains"), "count"),
        "domains.contains_s": (s("domains.contains"), "s"),
        "domains.grid_s": (s("domains.grid"), "s"),
        "domains.grid_points": (c["domains.grid_points"], "count"),
        "analysis.probe_s": (s("analysis.probe"), "s"),
        "functions.evaluate_s": (s("functions.evaluate"), "s"),
        "functions.evaluate_calls": (tracer.calls("functions.evaluate"), "count"),
        "analysis.survey_s": (s("analysis.survey"), "s"),
        "analysis.survey_candidates": (candidates, "count"),
        "analysis.survey_hit_ratio": (
            c["analysis.survey_pairs"] / candidates if candidates else 0.0, "ratio"),
        "analysis.scan_s": (s("analysis.scan"), "s"),
        "analysis.scan_pairs": (c["analysis.scan_pairs"], "count"),
        "analysis.scan_exact_share": (
            c["analysis.scan_exact_calls"] / scans if scans else 0.0, "ratio"),
        "analysis.per_point_c_s": (s("analysis.per_point_c"), "s"),
        "analysis.sc_family_s": (s("analysis.sc_family"), "s"),
        "analysis.usc_family_s": (s("analysis.usc_family"), "s"),
        "analysis.uc_family_s": (s("analysis.uc_family"), "s"),
        "analysis.wrt_subset_s": (s("analysis.wrt_subset"), "s"),
        "analysis.verify_s": (s("analysis.verify"), "s"),
        "analysis.interval_s": (s("analysis.interval"), "s"),
        "analysis.staircase_s": (s("analysis.staircase"), "s"),
        "specfile.parse_s": (s("specfile.parse"), "s"),
        "report.render_s": (s("report.render"), "s"),
    }
