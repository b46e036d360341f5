"""acc_drive: full closed-loop drives through every layer of the stack.

A round is one drive of the demo's 120 s scenario plus drives of
``VARIANTS`` seeded variants of its lead-speed profile. Each drive builds
a fresh ``Stack`` (set-up, untimed), then times ``run_scenario()`` and
``metrics_json()``. Untraced drives record only the wall clock at every
``TaskGraph.step`` call, which gives per-step latencies and, after the
last step, the report pass.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import random
import time

import checks
import harness
from trace import Layers, Tracer, common_layer_metrics, overhead_pct

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "inputs", "demo.json")
VARIANTS = 2
TINY_DURATION_S = 5.0
MIN_VARIANT_GAP_M = 4.0


def _variant_profile(rng: random.Random, duration: float) -> list:
    """Piecewise-constant lead speeds: steps of at most 10 m/s, 10-25 s apart."""
    profile, t, v = [[0.0, 25.0]], 0.0, 25.0
    while True:
        t += rng.randint(10, 25)
        if t >= duration - 10:
            return profile
        v = round(min(32.0, max(8.0, v + rng.uniform(-10.0, 10.0))), 2)
        profile.append([float(t), v])


def make_scenarios(seed: int, tiny: bool = False) -> list:
    """``[(name, config_doc)]``: the demo, then seeded variants it can hold."""
    with open(DEMO, encoding="utf-8") as fh:
        demo = json.load(fh)
    rng = random.Random(seed)
    out = [("demo", demo)]
    while len(out) < 1 + VARIANTS:
        doc = copy.deepcopy(demo)
        scenario = doc["acc"]["scenario"]
        scenario["lead_profile"] = _variant_profile(rng, scenario["duration"])
        if min(p[4] for p in checks.reintegrate(doc["acc"])) >= MIN_VARIANT_GAP_M:
            out.append((f"variant{len(out)}", doc))
    if tiny:
        for _, doc in out:
            doc["acc"]["scenario"]["duration"] = TINY_DURATION_S
    return out


def _build(doc):
    config, runtime = harness.fresh_import("dfp.config", "dfp.runtime")
    stack = runtime.Stack(config.parse_config(doc))
    return config, runtime, stack


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> harness.Outcome:
    out = harness.Outcome()
    scenarios = make_scenarios(seed, tiny)
    references = {name: checks.reintegrate(doc["acc"]) for name, doc in scenarios}
    node_ids = {name: [n["node_id"] for n in doc["pipeline"]["nodes"]]
                for name, doc in scenarios}
    pacer = harness.Pacer()
    figures = harness.Figures()
    config, runtime, _ = harness.time_setups(pacer, figures, lambda: _build(scenarios[0][1]))
    tracer, layers = Tracer(), Layers()
    # per untraced drive: steps/s, the step p50 and p99 (us), report passes/s
    traced_s, plain_s = [], []
    traced_steps = traced_drives = traced_fired = 0
    first_reports: dict = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    gc.disable()
    while rounds < 2 or time.perf_counter() < deadline:
        traced_round = trace and rounds % 2 == 1
        for name, doc in scenarios:
            pacer.start()
            stack = runtime.Stack(config.parse_config(doc))
            stamps = []
            if traced_round:
                tracer.clear()
                tracer.install()
            elif not trace:
                graph_step = stack.graph.step

                def clocked(inputs=None, _step=graph_step, _stamps=stamps,
                            _now=time.perf_counter):
                    _stamps.append(_now())
                    return _step(inputs)

                stack.graph.step = clocked
            t0 = time.perf_counter()
            result = stack.run_scenario()
            text = result.metrics_json()
            t1 = time.perf_counter()
            tracer.uninstall()
            slow = pacer.end()
            out.attempted += 1

            steps = len(result.trajectory)
            report = json.loads(text)
            problems = checks.check_drive(result.trajectory, report, references[name],
                                          node_ids[name])
            if first_reports.setdefault(name, text) != text:
                problems.append("report bytes differ from the first drive of this scenario")
            if problems:
                out.fail(f"{name}: {problems[0]}")
            elif traced_round:
                layers.add(tracer.summary())
                traced_s.append(t1 - t0)
                traced_steps += steps
                traced_drives += 1
                traced_fired += sum(n["fired"] for n in report["nodes"].values())
            elif trace:
                plain_s.append(t1 - t0)
            else:
                gaps = sorted(b - a for a, b in zip(stamps, stamps[1:]))
                p50 = harness.percentile(gaps, 0.50)
                figures.add("ops_per_s", steps / (t1 - t0), slow)
                figures.add("op_p50_us", p50 * 1e6, slow)
                figures.add("op_p99_us", harness.percentile(gaps, 0.99) * 1e6, slow)
                # after the last step's entry: that step, then the report pass
                figures.add("aux_ops_per_s", 1.0 / (t1 - stamps[-1] - p50), slow)
        rounds += 1
    gc.enable()
    out.calibration_ms = pacer.finish()

    if trace:
        if tracer.spans:
            tracer.write_jsonl(os.path.join(harness.RESULTS_DIR, f"trace-acc_drive-{seed}.jsonl"))
        out.per_layer = _layer_metrics(layers, traced_steps, traced_drives, traced_fired,
                                       traced_s, plain_s)
        return out
    out.end_to_end = harness.end_to_end(figures)
    out.raw = {"chunks": rounds * len(scenarios), "unnormalized": figures.unnormalized()}
    return out


def _layer_metrics(layers: Layers, steps: int, drives: int, fired: int,
                   traced_s: list, plain_s: list) -> dict:
    metrics = common_layer_metrics(layers)
    metrics.update({
        "runtime.self_us":
            layers.total_us("runtime.run_scenario", "self_ns") / steps if steps else 0.0,
        "funcsw.step_us": layers.per_call_us("funcsw.step", "self_ns"),
        "funcsw.fired_per_step": fired / steps if steps else 0.0,
        "envmodel.report_odd_ms": layers.total_us("envmodel.run_odd") / 1e3 / drives if drives else 0.0,
        "middleware.publishes_per_step": layers.calls("middleware.publish") / steps if steps else 0.0,
        "modemgr.dispatches": layers.calls("modemgr.dispatch") / drives if drives else 0.0,
        "trace.overhead_pct": overhead_pct(traced_s, plain_s),
    })
    return metrics

