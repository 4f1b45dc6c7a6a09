"""Spans around procrec's public functions, and the per-layer metrics they give.

The tracer wraps each function where its caller looks it up
(``procrec.cli.<name>`` or ``procrec.predict.<name>``), so no procrec source
changes. A span records its name, start, end and parent; spans stay in memory
and are written once the command ends. The root span is ``cli.main`` itself.
Spans started on a ``--jobs`` worker thread have the root as parent.

Self time is the wall time during which a span is innermost, that is open
with none of its children open. When spans on several threads are innermost
at once, each gets an equal share of that time, so the self times of all
spans add up to the root's duration, the traced ``wall_s``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

ROOT = "cli"

# (module, attribute, span name, counter applied to the return value)
WRAPPED = (
    ("procrec.cli", "load_price_csv", "ingest.load_price_csv", len),
    ("procrec.cli", "compute_log_returns", "ingest.compute_log_returns", None),
    ("procrec.cli", "compute_stats", "ingest.compute_stats", None),
    ("procrec.predict", "compute_stats", "ingest.compute_stats", None),
    ("procrec.cli", "encode_series", "coding.encode_series", None),
    ("procrec.predict", "encode_series", "coding.encode_series", None),
    ("procrec.cli", "build_conditional_tables", "markov.build_conditional_tables",
     lambda tables: sum(len(t.rows) for t in tables.tables.values())),
    ("procrec.predict", "build_conditional_tables", "markov.build_conditional_tables",
     lambda tables: sum(len(t.rows) for t in tables.tables.values())),
    ("procrec.cli", "dump_tables_json", "markov.dump_tables_json", None),
    ("procrec.predict", "resolve_fallback", "predict.resolve_fallback", lambda res: res.n_test),
    ("procrec.predict", "evaluate_run", "predict.evaluate_run", lambda run: run.n_predictions),
    ("procrec.cli", "run_experiment", "predict.run_experiment", None),
)
BUILD = "markov.build_conditional_tables"

# span name -> metric of its summed self time
SELF_METRICS = {name: f"{name}_s" for _, _, name, _ in WRAPPED}
SELF_METRICS["predict.run_experiment"] = "predict.run_experiment.self_s"
SELF_METRICS[ROOT] = "cli.self_s"
# span name -> metric of its summed counter
COUNT_METRICS = {
    "ingest.load_price_csv": "ingest.rows",
    BUILD: "markov.context_rows",
    "predict.resolve_fallback": "predict.positions_resolved",
    "predict.evaluate_run": "predict.predictions",
}
CALL_METRICS = (BUILD, "predict.resolve_fallback", "predict.evaluate_run")


class Tracer:
    """Installs span wrappers on procrec's modules and collects the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.builds: list[tuple] = []  # (function, args, kwargs) of each table build
        self._ids = itertools.count(1)  # 0 is the root
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        builds = self.builds if name == BUILD else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, counter(result) if counter else 0))
            if builds is not None:
                builds.append((fn, args, kwargs))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # no longer looked up at this call site
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def build_peak_mb(self) -> float:
        """Largest tracemalloc peak of one table build, each re-run alone.

        The builds are repeated after the command ends, so the allocation
        tracer does not slow any timed span.
        """
        peak = 0
        for fn, args, kwargs in self.builds:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def write(self, path: str, start: float, end: float) -> None:
        spans = [(0, -1, ROOT, start, end, 0)] + self.spans
        doc = {"spans": spans, "build_peak_mb": self.build_peak_mb()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict[int, float]:
    """Seconds each span was innermost, shared evenly among spans innermost at once."""
    parent_of = {s[0]: s[1] for s in spans}
    events = []
    for sid, _, _, start, end, _ in spans:
        if end > start:
            events.append((start, 1, sid))
            events.append((end, 0, -sid))  # at a tie, ends go first, children before parents
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, kind, key in events:
        if t > last and active:
            leaves = [s for s in active if open_children[s] == 0]
            share = (t - last) / len(leaves)
            for s in leaves:
                out[s] += share
        last = t
        sid = key if kind else -key
        step = 1 if kind else -1
        if kind:
            active.add(sid)
        else:
            active.discard(sid)
        if parent_of[sid] >= 0:
            open_children[parent_of[sid]] += step
    return out


def layer_metrics(doc: dict) -> tuple[dict[str, float], float, float]:
    """(per-layer metrics, traced wall_s, sum of all self times) of one traced command."""
    spans = [tuple(s) for s in doc["spans"]]
    own = self_times(spans)
    metrics = {m: 0.0 for m in SELF_METRICS.values()}
    metrics.update({m: 0 for m in COUNT_METRICS.values()})
    metrics.update({f"{name}.calls": 0 for name in CALL_METRICS})
    load_s = 0.0
    for sid, _, name, start, end, count in spans:
        metrics[SELF_METRICS[name]] += own.get(sid, 0.0)
        if name in COUNT_METRICS:
            metrics[COUNT_METRICS[name]] += count
        if name in CALL_METRICS:
            metrics[f"{name}.calls"] += 1
        if name == "ingest.load_price_csv":
            load_s += end - start
    metrics["ingest.rows_per_s"] = metrics["ingest.rows"] / load_s if load_s > 0 else 0.0
    metrics["markov.build_peak_mb"] = doc["build_peak_mb"]
    root = spans[0]
    return metrics, root[4] - root[3], sum(own.values())
