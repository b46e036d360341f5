"""odd_catalog: fuzzy ODD queries against a replayed environment store.

Set-up replays a seeded JSONL log with ``EnvStore.open``: about a
ten-minute drive's radar records plus road, weather, lane, V2X and
localization records, with some tombstones. A round is one seeded script
of ad-hoc queries (typos by substitution, insertion, deletion and
transposition; stopwords; short tokens; class and time filters), saved
ODDs through ``run_odd``, and ``create``/``ingest``/``update``/``delete``
between them. Every record a round creates or ingests it also deletes,
and every tag update it undoes, so each round starts from the same store.

Every result is compared with a scan of a shadow copy the benchmark keeps
(``checks.shadow_query``); after the last round ``all_records()`` must
equal the shadow.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time

import checks
import harness
from trace import Layers, Tracer, common_layer_metrics, overhead_pct

RADAR_RECORDS, OTHER_RECORDS, TOMBSTONES = 10_800, 1_200, 300
TINY_SIZES = (400, 100, 20)
STEP_NS = 50_000_000  # one radar record per 50 ms control step
CREATE_BASE_ID = 10_000_000

CLASS_TAGS = {
    "road_feature": ["highway", "tunnel", "rain", "night", "bridge", "merge", "exit",
                     "ramp", "toll", "curve", "urban", "rural", "map"],
    "weather": ["rain", "fog", "snow", "ice", "wind", "hail", "glare", "storm"],
    "lane": ["lane", "merge", "split", "narrow", "shoulder", "highway"],
    "v2x_event": ["hazard", "roadwork", "v2x", "accident", "jam", "closure", "emergency"],
    "localization": ["gps", "fix", "odometry", "drift"],
}
SOURCES = {"road_feature": "fusion", "weather": "cloud", "lane": "fusion",
           "v2x_event": "v2x", "localization": "localization"}
LONG_TAGS = sorted({t for tags in CLASS_TAGS.values() for t in tags if len(t) >= 5})
SHORT_TAGS = sorted({t for tags in CLASS_TAGS.values() for t in tags if len(t) < 4})
LETTERS = "abcdefghijklmnopqrstuvwxyz"


# -- inputs ----------------------------------------------------------------------------


def _other_record(rng: random.Random, rid: int, horizon_ns: int) -> dict:
    cls = rng.choice(sorted(CLASS_TAGS))
    tags = sorted(rng.sample(CLASS_TAGS[cls], rng.randint(1, 3)))
    return {"record_id": rid, "class": cls, "tags": tags,
            "timestamp_ns": rng.randrange(horizon_ns), "source": SOURCES[cls],
            "attributes": {"confidence": round(rng.random(), 3)}, "position": None}


def write_log(path: str, seed: int, tiny: bool = False) -> None:
    """The seeded record log: radar records in step order, others spread over
    the same horizon, then tombstones for a seeded subset."""
    radar, other, dead = TINY_SIZES if tiny else (RADAR_RECORDS, OTHER_RECORDS, TOMBSTONES)
    rng = random.Random(seed)
    horizon = radar * STEP_NS
    lines, rid = [], 0
    for k in range(radar):
        rid += 1
        rng_m = round(rng.uniform(20.0, 80.0), 3)
        lines.append({"record_id": rid, "class": "object", "tags": ["lead", "vehicle"],
                      "timestamp_ns": k * STEP_NS, "source": "perception",
                      "attributes": {"range_m": rng_m, "range_rate_mps": round(rng.uniform(-3, 3), 3),
                                     "azimuth_rad": 0.0},
                      "position": [rng_m, 0.0]})
    for _ in range(other + dead):
        rid += 1
        lines.append(_other_record(rng, rid, horizon))
    for victim in rng.sample(range(1, rid + 1), dead):
        lines.append({"record_id": victim, "deleted": True})
    with open(path, "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def shadow_from_log(path: str) -> dict:
    shadow = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if obj.get("deleted"):
                shadow.pop(obj["record_id"], None)
            else:
                shadow[obj["record_id"]] = (obj["class"], frozenset(obj["tags"]),
                                            obj["timestamp_ns"])
    return shadow


def _typo(rng: random.Random, word: str, kind: str) -> str:
    i = rng.randrange(len(word) - 1)
    if kind == "substitute":
        return word[:i] + rng.choice([c for c in LETTERS if c != word[i]]) + word[i + 1:]
    if kind == "insert":
        return word[:i] + rng.choice(LETTERS) + word[i:]
    if kind == "delete":
        return word[:i] + word[i + 1:]
    while word[i] == word[i + 1]:  # transpose two different neighbours
        i = rng.randrange(len(word) - 1)
    return word[:i] + word[i + 1] + word[i] + word[i + 2:]


def make_script(seed: int, shadow: dict, horizon_ns: int) -> tuple:
    """``(odds, ops)``: saved ODD definitions and one round's operations."""
    rng = random.Random(seed * 7919 + 1)
    base_ids = sorted(rid for rid, (cls, _, _) in shadow.items() if cls != "object")

    def window():
        t0 = rng.randrange(horizon_ns)
        return (t0, t0 + 60 * 1_000_000_000)

    def tag(length):
        return rng.choice([t for t in LONG_TAGS if len(t) == length])

    # The first token sets a full scan's cost (it fails on every radar
    # record), so each slot fixes its length and seeds change only the
    # words. Eight of the fifteen reads scan every record, so the median
    # read is always a full scan, never a seed-chosen filtered one. Only
    # one of the eight starts with a five-letter word, the rest with six
    # or seven, so the median of a run's reads falls in the middle of that
    # one query's times, not on the edge between two groups of queries.
    classes = sorted(CLASS_TAGS)
    odds = [
        ("odd_lead", {"words": ["vehicle", "lead"], "class": "object", "time": window()}),
        ("odd_weather", {"words": [_typo(rng, tag(6), "substitute"), "in", "the", tag(5)],
                         "class": None, "time": None}),
        ("odd_class", {"words": [tag(5)], "class": rng.choice(classes), "time": None}),
    ]
    queries = [
        {"words": [_typo(rng, tag(6), "substitute")]},
        {"words": [_typo(rng, tag(5), "substitute")]},
        {"words": [_typo(rng, tag(5), "insert"), tag(6)]},
        {"words": [_typo(rng, tag(6), "insert")]},
        {"words": [_typo(rng, tag(7), "delete")]},
        {"words": [_typo(rng, tag(6), "transpose")]},
        {"words": [tag(6), "on", tag(5), "in", "the"]},
        {"words": [tag(6)], "time": window()},
        {"words": [rng.choice(SHORT_TAGS)]},
        {"words": [_typo(rng, rng.choice(SHORT_TAGS), "transpose"), tag(5)]},
        {"words": [tag(5)], "class": rng.choice(classes)},
        {"words": [tag(5), "with", tag(6)], "class": rng.choice(classes), "time": window()},
    ]
    reads = [("query", q) for q in queries] + [("odd", name) for name, _ in odds]
    rng.shuffle(reads)

    def new_record(slot):
        cls = rng.choice(classes)
        return {"slot": slot, "class": cls,
                "tags": sorted(rng.sample(CLASS_TAGS[cls], rng.randint(1, 3))),
                "timestamp_ns": rng.randrange(horizon_ns)}

    updated = rng.sample(base_ids, 3)
    writes = (
        [("create", new_record(i)) for i in range(3)]
        + [("ingest", dict(new_record(3 + i), kind="mapping")) for i in range(2)]
        + [("ingest", {"slot": 5, "kind": "radar", "seq": rng.randrange(10_000),
                       "range_m": round(rng.uniform(20, 80), 3)})]
        + [("update", {"record_id": rid, "tags": sorted(rng.sample(LONG_TAGS, 2))})
           for rid in updated]
    )
    # each undo follows its write: deletes of slots 0-5, then the restores
    undo = ([("delete", {"slot": s}) for s in range(6)]
            + [("restore", {"record_id": rid}) for rid in updated])
    ops = []
    for i, read in enumerate(reads):
        if i < len(writes):
            ops.append(writes[i])
        ops.append(read)
        if i >= len(writes) - 3 and undo:
            ops.append(undo.pop(0))
    ops.extend(undo)
    return odds, ops


# -- the run -----------------------------------------------------------------------------


def _words(op: tuple, odds: list) -> list:
    kind, arg = op
    return arg["words"] if kind == "query" else dict(odds)[arg]["words"] if kind == "odd" else [kind]


def _records(recs) -> list:
    return [(r.record_id, r.record_class.value, r.tags, r.timestamp_ns) for r in recs]


class Script:
    """Applies one round's operations to the store and to the shadow."""

    def __init__(self, env, hal, store, shadow: dict, odds: list):
        self.env, self.hal, self.store, self.shadow = env, hal, store, shadow
        self.odd_defs = dict(odds)
        self.slots: dict = {}  # round-local slot -> record id
        self.original_tags: dict = {}

    def query_object(self, q: dict):
        cls = self.env.RecordClass(q["class"]) if q.get("class") else None
        return self.env.OddQuery(tuple(q["words"]), class_filter=cls,
                                 time_range=tuple(q["time"]) if q.get("time") else None)

    def call(self, op: tuple, round_no: int):
        """Build the call for ``op``: returns ``(thunk, verify)``."""
        kind, arg = op
        store, env, shadow = self.store, self.env, self.shadow
        if kind in ("query", "odd"):
            q = arg if kind == "query" else self.odd_defs[arg]
            thunk = ((lambda: store.query(self.query_object(q))) if kind == "query"
                     else (lambda: store.run_odd(arg)))

            def verify(result):
                got = _records(result)
                want = checks.shadow_query(shadow, q["words"], q.get("class"), q.get("time"))
                return checks.check_records(got, shadow, want), len(got)
            return thunk, verify
        if kind == "create":
            rid = CREATE_BASE_ID + round_no * 100 + arg["slot"]
            rec = env.EnvRecord(rid, env.RecordClass(arg["class"]), frozenset(arg["tags"]),
                                arg["timestamp_ns"], source=env.Source.FUSION)

            def verify(result):
                self.slots[arg["slot"]] = rid
                shadow[rid] = (arg["class"], frozenset(arg["tags"]), arg["timestamp_ns"])
                return ([] if result == rid else [f"create returned {result}, want {rid}"]), 0
            return (lambda: store.create(rec)), verify
        if kind == "ingest":
            if arg["kind"] == "radar":
                frame = self.hal.AbstractFrame("radar0", self.hal.DeviceKind.RADAR, arg["seq"],
                                               arg["seq"] * STEP_NS,
                                               {"range_m": arg["range_m"], "range_rate_mps": 0.0,
                                                "azimuth_rad": 0.0})
                expect = ("object", frozenset({"vehicle", "lead"}), arg["seq"] * STEP_NS)
            else:
                frame = {"class": arg["class"], "tags": arg["tags"],
                         "timestamp_ns": arg["timestamp_ns"], "source": "fusion"}
                expect = (arg["class"], frozenset(arg["tags"]), arg["timestamp_ns"])

            def verify(result):
                if result in shadow:
                    return [f"ingest returned the live id {result}"], 0
                self.slots[arg["slot"]] = result
                shadow[result] = expect
                return [], 0
            return (lambda: store.ingest(frame)), verify
        if kind in ("update", "restore"):
            rid = arg["record_id"]
            if kind == "update":
                self.original_tags[rid] = sorted(shadow[rid][1])
                tags = arg["tags"]
            else:
                tags = self.original_tags.pop(rid)

            def verify(result):
                cls, _, ts = shadow[rid]
                shadow[rid] = (cls, frozenset(tags), ts)
                got = _records([result])[0]
                return ([] if got == (rid, cls, frozenset(tags), ts)
                        else [f"update of {rid} reads {got}"]), 0
            return (lambda: store.update(rid, {"tags": tags})), verify
        if kind == "delete":
            rid = self.slots.pop(arg["slot"])

            def verify(result):
                del shadow[rid]
                return [], 0
            return (lambda: store.delete(rid)), verify
        raise ValueError(f"unknown op {kind!r}")


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> harness.Outcome:
    out = harness.Outcome()
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    log_path = os.path.join(harness.RESULTS_DIR, f"odd_catalog-{seed}-{os.getpid()}.jsonl")
    try:
        write_log(log_path, seed, tiny)
        _run(out, log_path, seed, seconds, trace, tiny)
    finally:
        os.remove(log_path)
    return out


def _build(log_path):
    env, hal = harness.fresh_import("dfp.envmodel", "dfp.hal")
    return env, hal, env.EnvStore.open(log_path)


def _run(out, log_path, seed, seconds, trace, tiny) -> None:
    shadow = shadow_from_log(log_path)
    horizon = (TINY_SIZES[0] if tiny else RADAR_RECORDS) * STEP_NS
    odds, ops = make_script(seed, shadow, horizon)
    pacer = harness.Pacer()
    figures = harness.Figures()
    env, hal, store = harness.time_setups(pacer, figures, lambda: _build(log_path))
    tracer, layers = Tracer(), Layers()
    open_s = 0.0
    if trace:
        tracer.clear()
        tracer.install()
        env.EnvStore.open(log_path)
        tracer.uninstall()
        open_s = sum(tracer.durations_ns("envmodel.open")) / 1e9
    for name, d in odds:
        store.save_odd(name, Script(env, hal, store, shadow, odds).query_object(d))

    # untraced seconds per call, by position in the round's script: a round
    # (~4 s) is too long a chunk, so each call is a chunk of its own
    traced_s, plain_s, query_ms, results = [], [], [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    gc.disable()
    while rounds < 2 or time.perf_counter() < deadline:
        traced_round = trace and rounds % 2 == 1
        script = Script(env, hal, store, shadow, odds)
        reads, writes = [], []  # seconds per call
        if traced_round:
            tracer.clear()
            tracer.install()
        for index, op in enumerate(ops):
            out.attempted += 1
            pacer.start(collect=index == 0)
            try:
                thunk, verify = script.call(op, rounds)
                t0 = time.perf_counter()
                result = thunk()
                elapsed = time.perf_counter() - t0
                slow = pacer.end()
            except Exception as exc:  # a refused operation counts as failed
                out.fail(f"{op[0]} raised {type(exc).__name__}: {exc}")
                continue
            problems, n_results = verify(result)
            if problems:
                out.fail(f"{op[0]} {op[1]}: {problems[0]}")
                continue
            if op[0] in ("query", "odd"):
                reads.append(elapsed)
                results.append(n_results)
            else:
                writes.append(elapsed)
            if not trace:
                figures.add(f"op{index}", elapsed, slow)
        tracer.uninstall()
        if traced_round:
            layers.add(tracer.summary())
            query_ms.extend(d / 1e6 for d in tracer.durations_ns("envmodel.query"))
            traced_s.append(sum(reads) + sum(writes))
        elif trace:
            plain_s.append(sum(reads) + sum(writes))
        rounds += 1
    gc.enable()
    out.calibration_ms = pacer.finish()
    if _records(store.all_records()) != sorted((rid, *v) for rid, v in shadow.items()):
        out.correct = False
        out.notes.append("all_records() differs from the shadow after the script")

    if trace:
        if tracer.spans:
            tracer.write_jsonl(os.path.join(harness.RESULTS_DIR, f"trace-odd_catalog-{seed}.jsonl"))
        query_ms.sort()
        metrics = common_layer_metrics(layers)
        queries = layers.calls("envmodel.query")
        metrics.update({
            "envmodel.query_p50_ms": harness.percentile(query_ms, 0.50),
            "envmodel.query_p90_ms": harness.percentile(query_ms, 0.90),
            "envmodel.levenshtein_calls_per_query":
                layers.calls("envmodel.levenshtein") / queries if queries else 0.0,
            "envmodel.results_per_query": statistics.mean(results) if results else 0.0,
            "envmodel.open_s": open_s,
            "trace.overhead_pct": overhead_pct(traced_s, plain_s),
        })
        out.per_layer = metrics
        return
    # a call's typical time is the median over the rounds of its normalised
    # times. The median read pools every read of the run; the slowest query
    # is taken from the typical times, since the 99th percentile of ~90
    # pooled reads would be their maximum.
    read_ops = [i for i, op in enumerate(ops) if op[0] in ("query", "odd")]
    typical = {i: figures.typical(f"op{i}", "s") for i in range(len(ops))}
    reads = sorted(typical[i] for i in read_ops)
    writes = [t for i, t in typical.items() if i not in read_ops]
    pooled = sorted(t for i in read_ops for t in figures.normalized(f"op{i}", "s"))
    out.end_to_end = {
        "setup_s": figures.typical("setup_s", "s"),
        "peak_rss_mb": harness.peak_rss_mb(),
        "ops_per_s": len(reads) / sum(reads) if reads else 0.0,
        "op_p50_us": harness.percentile(pooled, 0.50) * 1e6,
        "op_p99_us": harness.percentile(reads, 0.99) * 1e6,
        "aux_ops_per_s": len(writes) / sum(writes) if writes else 0.0,
    }
    out.raw = {"chunks": rounds, "reads_per_round": len(reads),
               "typical_ms": {f"{i}:{' '.join(_words(ops[i], odds))}": round(t * 1e3, 2)
                              for i, t in typical.items()},
               "unnormalized": figures.unnormalized()}
