"""Spans around the program's public calls, recorded from outside it.

``Tracer.install`` replaces each named attribute (a method on a class, or
a function the program looks up in a module) with a wrapper that records
a span ``(name, start_ns, end_ns, parent)``; ``uninstall`` puts the
originals back, so traced and untraced chunks can alternate in one run.
Counted names get a cheaper wrapper that only counts calls, for functions
called tens of thousands of times per operation.

Spans stay in memory; ``summary`` folds them into per-name call counts,
total and self time (a span minus the time its child spans cover), and
``write_jsonl`` writes them out at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

from harness import best_tenth

# (module, owner attribute path, attribute, span name); owner "" = the module
SPANNED = [
    ("dfp.runtime", "Stack", "run_scenario", "runtime.run_scenario"),
    ("dfp.runtime", "", "normalize", "hal.normalize"),
    ("dfp.runtime", "", "plant_step", "acc.plant_step"),
    ("dfp.funcsw", "TaskGraph", "step", "funcsw.step"),
    ("dfp.hal", "DeviceHandle", "stamp", "hal.stamp"),
    ("dfp.modemgr", "Coordinator", "dispatch", "modemgr.dispatch"),
    ("dfp.envmodel", "EnvStore", "open", "envmodel.open"),
    ("dfp.envmodel", "EnvStore", "create", "envmodel.create"),
    ("dfp.envmodel", "EnvStore", "read", "envmodel.read"),
    ("dfp.envmodel", "EnvStore", "update", "envmodel.update"),
    ("dfp.envmodel", "EnvStore", "delete", "envmodel.delete"),
    ("dfp.envmodel", "EnvStore", "ingest", "envmodel.ingest"),
    ("dfp.envmodel", "EnvStore", "query", "envmodel.query"),
    ("dfp.envmodel", "EnvStore", "run_odd", "envmodel.run_odd"),
    ("dfp.envmodel", "EnvStore", "all_records", "envmodel.all_records"),
    ("dfp.middleware", "Publisher", "publish", "middleware.publish"),
    ("dfp.middleware", "Subscriber", "take", "middleware.take"),
    ("dfp.middleware", "Sample", "release", "middleware.release"),
    ("dfp.middleware", "Domain", "spin", "middleware.spin"),
    ("dfp.middleware", "Domain", "advance", "middleware.advance"),
    ("dfp.middleware", "Participant", "call", "middleware.call"),
    ("dfp.middleware.core", "", "encode_frame", "wire.encode"),
    ("dfp.middleware.core", "", "decode_frame", "wire.decode"),
]

COUNTED = [
    ("dfp.envmodel", "", "levenshtein", "envmodel.levenshtein"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed call of the ``dfp`` modules loaded now."""
        if self._saved:
            return
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, owner_name, attr, span in table:
                owner = importlib.import_module(mod_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(wrap(span, raw.__func__))
                else:
                    patched = wrap(span, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def clear(self) -> None:
        """Start a fresh span list; call before ``install``."""
        self.spans = []
        self.counts = defaultdict(int)

    # -- reading --------------------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns"} over the recorded spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})["calls"] += n
        return out

    def durations_ns(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}))
                fh.write("\n")


class Layers:
    """Accumulates tracer summaries over chunks and reads per-call figures."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, summary: dict) -> None:
        for name, row in summary.items():
            acc = self.rows.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += row[key]

    def calls(self, name: str) -> int:
        return self.rows.get(name, {}).get("calls", 0)

    def per_call_us(self, name: str, kind: str = "total_ns") -> float:
        row = self.rows.get(name)
        if not row or not row["calls"]:
            return 0.0
        return row[kind] / row["calls"] / 1e3

    def total_us(self, name: str, kind: str = "total_ns") -> float:
        row = self.rows.get(name)
        return row[kind] / 1e3 if row else 0.0


def common_layer_metrics(layers: Layers) -> dict:
    """Per-call figures every workload reports the same way."""
    per_call = {
        "hal.stamp_us": "hal.stamp",
        "hal.normalize_us": "hal.normalize",
        "envmodel.ingest_us": "envmodel.ingest",
        "envmodel.read_us": "envmodel.read",
        "envmodel.create_us": "envmodel.create",
        "envmodel.update_us": "envmodel.update",
        "envmodel.delete_us": "envmodel.delete",
        "middleware.publish_us": "middleware.publish",
        "middleware.take_us": "middleware.take",
        "middleware.release_us": "middleware.release",
        "middleware.spin_us": "middleware.spin",
        "middleware.advance_us": "middleware.advance",
        "middleware.call_us": "middleware.call",
        "wire.encode_us": "wire.encode",
        "wire.decode_us": "wire.decode",
        "acc.plant_us": "acc.plant_step",
        "modemgr.dispatch_us": "modemgr.dispatch",
    }
    return {metric: layers.per_call_us(span) for metric, span in per_call.items()}


def overhead_pct(traced_s: list, plain_s: list) -> float:
    """How much slower traced chunks ran than untraced ones (best tenths)."""
    if not traced_s or not plain_s:
        return 0.0
    traced = best_tenth(traced_s, higher_is_better=False)
    return (traced / best_tenth(plain_s, higher_is_better=False) - 1.0) * 100.0
