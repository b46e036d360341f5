"""Shared machinery: chunked timing, set-up timing, metric catalogue, results.

Every workload repeats one seeded round of operations and times it in
chunks (a drive, a round, one store call). On a shared virtual machine,
other tenants' load slows a chunk by up to half, for a fraction of a
second or for minutes. So right before and right after each chunk the
``Pacer`` times two fixed reference loops of the benchmark's own on the
same CPU (``local_slowdown``), and each figure is divided by (a time) or
multiplied by (a rate) that chunk's slowdown: it reads as on a host where
the loops take ``LOCAL_LOOP_REF_S`` and ``LOCAL_SCAN_REF_S``. A run
reports the median over its chunks (``Figures.typical``). The program's
code never runs inside the reference loops, so a change to it moves the
figures and not the slowdowns.

Per-layer figures from a traced run are scaled once per run instead, by
the median of a longer loop timed twice a second (``at_reference_speed``).
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")

CAL_N = 100_000
CAL_REF_MS = 10.0  # about the loop's median on the reference host
CAL_EVERY_S = 0.5
PROBE_N = 20_000  # about 2 ms
MAX_PROBED_CPUS = 4
SETUP_REPEATS = 11
LOCAL_N = 30_000
LOCAL_LOOP_REF_S = 3.0e-3  # the local loops' medians on the reference host
LOCAL_SCAN_REF_S = 3.6e-3

# name -> (unit, better); the end-to-end set is printed by every untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "op_p99_us": ("us", "lower"),
    "aux_ops_per_s": ("ops/s", "higher"),
}

# name -> (unit, better); every traced run prints all of these, and a layer
# the workload never calls reads 0. Fixed counts (nodes fired per step,
# results per query) are set by the inputs and must not move at all.
PER_LAYER = {
    "runtime.self_us": ("us", "lower"),
    "funcsw.step_us": ("us", "lower"),
    "funcsw.fired_per_step": ("count", "higher"),
    "hal.stamp_us": ("us", "lower"),
    "hal.normalize_us": ("us", "lower"),
    "envmodel.ingest_us": ("us", "lower"),
    "envmodel.read_us": ("us", "lower"),
    "envmodel.report_odd_ms": ("ms", "lower"),
    "envmodel.query_p50_ms": ("ms", "lower"),
    "envmodel.query_p90_ms": ("ms", "lower"),
    "envmodel.levenshtein_calls_per_query": ("count", "lower"),
    "envmodel.results_per_query": ("count", "higher"),
    "envmodel.create_us": ("us", "lower"),
    "envmodel.update_us": ("us", "lower"),
    "envmodel.delete_us": ("us", "lower"),
    "envmodel.open_s": ("s", "lower"),
    "middleware.publish_us": ("us", "lower"),
    "middleware.take_us": ("us", "lower"),
    "middleware.release_us": ("us", "lower"),
    "middleware.spin_us": ("us", "lower"),
    "middleware.advance_us": ("us", "lower"),
    "middleware.call_us": ("us", "lower"),
    "middleware.publishes_per_step": ("count", "lower"),
    "middleware.size_ratio": ("ratio", "lower"),
    "wire.encode_us": ("us", "lower"),
    "wire.decode_us": ("us", "lower"),
    "wire.frames_encoded": ("count", "lower"),
    "link.frames_per_sample": ("ratio", "lower"),
    "link.retransmits": ("count", "lower"),
    "link.nacks": ("count", "lower"),
    "link.dropped_frames": ("count", "lower"),
    "link.bus_log_frames": ("count", "lower"),
    "acc.plant_us": ("us", "lower"),
    "modemgr.dispatch_us": ("us", "lower"),
    "modemgr.dispatches": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def calibrate(n: int = CAL_N) -> float:
    """Wall seconds of a fixed integer loop; the host-speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - t0


# a fixed table for ``calibrate_scan``: tuples of an int, a frozenset of
# short strings and a string, walked the way a record scan walks its rows
_SCAN_ROWS = [(i, frozenset(("lead", "vehicle") if i % 9 else ("rain", "tunnel", "night")),
               f"r{i:05d}") for i in range(12_000)]


def calibrate_scan() -> float:
    """Wall seconds of a fixed walk over ``_SCAN_ROWS``: memory as well as CPU."""
    t0 = time.perf_counter()
    n = 0
    for rid, tags, name in _SCAN_ROWS:
        for tag in tags:
            if len(tag) > 4 and tag[-1] == name[-1]:
                n += rid & 1
    return time.perf_counter() - t0


def local_slowdown() -> float:
    """How much slower than the reference host this CPU runs right now.

    The mean of two ratios: a short integer loop, and a walk over a fixed
    table (timed after an untimed walk, so that what ran before it does
    not decide which of its rows are in the cache).
    """
    loop = calibrate(LOCAL_N) / LOCAL_LOOP_REF_S
    calibrate_scan()
    return (loop + calibrate_scan() / LOCAL_SCAN_REF_S) / 2


class Pacer:
    """Runs around each chunk, outside the timed regions.

    ``start`` collects garbage (the collector is off while a chunk runs;
    a workload whose chunks are single calls may collect once per round),
    samples the calibration loop twice a second, moves the process to
    whichever of its CPUs runs a short probe loop fastest now (on a shared
    virtual machine each vCPU has slow spells of its own), and takes
    ``local_slowdown``. ``end`` takes it again on the same CPU and returns
    the chunk's slowdown, the mean of the two.
    """

    def __init__(self):
        self.calibrations: list[float] = []
        self._next = 0.0
        self._cpus = sorted(os.sched_getaffinity(0))
        self._before = 1.0

    def pick_cpu(self) -> None:
        if time.perf_counter() >= self._next:
            self.calibrations.append(calibrate())
            self._next = time.perf_counter() + CAL_EVERY_S
        if len(self._cpus) < 2:
            return
        timed = []
        for cpu in self._cpus[:MAX_PROBED_CPUS]:
            os.sched_setaffinity(0, {cpu})
            timed.append((calibrate(PROBE_N), cpu))
        os.sched_setaffinity(0, {min(timed)[1]})

    def start(self, collect: bool = True) -> None:
        if collect:
            gc.collect()
        self.pick_cpu()
        self._before = local_slowdown()

    def end(self) -> float:
        return (self._before + local_slowdown()) / 2

    def finish(self) -> float:
        """Give the process all its CPUs back; the calibration median in ms."""
        os.sched_setaffinity(0, set(self._cpus))
        return statistics.median(self.calibrations) * 1e3 if self.calibrations else 0.0


def best_tenth(values, higher_is_better: bool) -> float:
    """Median of the best tenth of per-chunk figures (at least one)."""
    if not values:
        return 0.0
    ranked = sorted(values, reverse=higher_is_better)
    return statistics.median(ranked[:max(1, len(ranked) // 10)])


def _at_speed(value: float, unit: str, slow: float) -> float:
    """``value`` as if measured ``slow`` times faster: times shrink, rates grow."""
    if unit in ("s", "ms", "us"):
        return value / slow
    if unit.endswith("/s"):
        return value * slow
    return value


class Figures:
    """Per-chunk figures of one run, each kept with its chunk's slowdown."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, name: str, value: float, slow: float) -> None:
        self.rows.setdefault(name, []).append((value, slow))

    def normalized(self, name: str, unit: str) -> list:
        """Each chunk's figure as on the reference host."""
        return [_at_speed(value, unit, slow) for value, slow in self.rows.get(name, [])]

    def typical(self, name: str, unit: str) -> float:
        """Median over the chunks of the figure as on the reference host."""
        values = self.normalized(name, unit)
        return statistics.median(values) if values else 0.0

    def unnormalized(self) -> dict:
        """Median of each figure as measured, for reference."""
        return {name: statistics.median(value for value, _ in rows)
                for name, rows in self.rows.items()}


def at_reference_speed(metrics: dict, catalogue: dict, calibration_ms: float) -> dict:
    """Scale times and rates as if the calibration loop took ``CAL_REF_MS``."""
    slow = calibration_ms / CAL_REF_MS if calibration_ms else 1.0
    return {name: _at_speed(value, catalogue[name][0], slow) for name, value in metrics.items()}


def require_program() -> None:
    """Fail unless the checkout's own ``src/dfp`` is importable."""
    if not os.path.isfile(os.path.join(SRC, "dfp", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/dfp")
    if SRC not in sys.path:
        sys.path.insert(1, SRC)


def fresh_import(*names):
    """Drop every loaded ``dfp`` module, then import ``names`` anew."""
    for mod in [m for m in sys.modules if m == "dfp" or m.startswith("dfp.")]:
        del sys.modules[mod]
    return [importlib.import_module(n) for n in names]


def time_setups(pacer: Pacer, figures: Figures, build, repeats: int = SETUP_REPEATS):
    """Time ``repeats`` full set-ups into ``figures`` as ``setup_s``; the last one built.

    ``build`` must import the program itself (through ``fresh_import``), so
    the import is part of every sample.
    """
    built = None
    for _ in range(repeats):
        built = None
        pacer.start()
        gc.disable()
        t0 = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - t0
        gc.enable()
        figures.add("setup_s", elapsed, pacer.end())
    return built


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list, ``q`` in [0, 1]."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(figures: Figures) -> dict:
    """Every end-to-end metric: the typical chunk figure, and the peak resident set."""
    out = {name: figures.typical(name, unit) for name, (unit, _) in END_TO_END.items()}
    out["peak_rss_mb"] = peak_rss_mb()
    return out


@dataclass
class Outcome:
    """What one workload run measured and verified."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)  # chunk counts and means, for reference
    notes: list = field(default_factory=list)  # why a check failed
    calibration_ms: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


def result_line(outcome: Outcome, trace: bool) -> dict:
    catalogue = PER_LAYER if trace else END_TO_END
    source = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for name, (unit, _) in catalogue.items():
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": unit}
    return {"correct": bool(outcome.correct), "attempted": int(outcome.attempted),
            "failed": int(outcome.failed), "metrics": metrics}


def info_line(workload: str, seed: int, seconds: float, trace: bool,
              outcome: Outcome) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "calibration_ms": outcome.calibration_ms,
            "raw": outcome.raw,
            "notes": outcome.notes}
