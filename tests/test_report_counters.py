"""The run report's node and topic counts equal counts taken at the bodies.

The graph counts firings, simulated elapsed time and produced topics as it
fires, and the report reads those counts. Here every node body is wrapped
in a tally that counts, on its own, each return (a firing), the largest
``elapsed_ms`` returned, each raise (a restart, under the policies used
here) and each output topic returned; the report must agree with it.
"""

import copy
import json
import os
from collections import Counter, defaultdict

from dfp.config import load_config, parse_config
from dfp.funcsw import NodeResult
from dfp.runtime import Stack

REPO = os.path.join(os.path.dirname(__file__), "..")
DEMO_CONFIG = os.path.join(REPO, "configs", "demo.json")
FLAKY_CALL = 10  # the flaky node's body raises on this call, once


class Tally:
    """Counts kept at the bodies themselves, apart from the graph."""

    def __init__(self):
        self.fired = Counter()
        self.raised = Counter()
        self.max_elapsed_ms = defaultdict(float)
        self.produced = Counter()

    def wrap(self, graph) -> None:
        for nid, node in graph.nodes.items():
            node.body = self._counted(nid, node.body, node.watchdog_ms)

    def _counted(self, nid, body, watchdog_ms):
        def counted(inputs, config):
            try:
                result = body(inputs, config)
            except Exception:
                self.raised[nid] += 1
                raise
            if isinstance(result, NodeResult):
                outputs, elapsed_ms = result.outputs, result.elapsed_ms
            else:
                outputs, elapsed_ms = result, 0.0
            assert elapsed_ms <= watchdog_ms  # no watchdog failure hides here
            self.fired[nid] += 1
            self.max_elapsed_ms[nid] = max(self.max_elapsed_ms[nid], elapsed_ms)
            self.produced.update(outputs.keys())
            return result
        return counted

    def check(self, report: dict, config) -> None:
        assert report["nodes"] == {
            nid: {"fired": self.fired[nid], "restarts": self.raised[nid],
                  "max_elapsed_ms": self.max_elapsed_ms[nid]}
            for nid in sorted(n.node_id for n in config.nodes)}
        for topic in config.topics:
            n = self.produced[topic.name]
            assert report["topics"][topic.name] == {
                "published": n, "delivered": n, "dropped": 0}, topic.name


# -- bodies for the counter graph; the registry loads them as module:attribute --


def split_body(node):
    """Emits its first output every firing and its second on even frames
    only, with a simulated cost that varies from frame to frame."""
    every, even_only = node.outputs
    (source,) = node.inputs

    def body(inputs, config):
        seq = inputs[source].seq
        outputs = {every: seq}
        if seq % 2 == 0:
            outputs[even_only] = seq
        return NodeResult(outputs, elapsed_ms=float(seq * 37 % 11))

    return body


def flaky_body(node):
    """Forwards its input, but raises on its ``FLAKY_CALL``-th call."""
    (source,) = node.inputs
    (out,) = node.outputs
    calls = []

    def body(inputs, config):
        calls.append(None)
        if len(calls) == FLAKY_CALL:
            raise RuntimeError("transient fault")
        return {out: inputs[source]}

    return body


def counter_config_doc() -> dict:
    """The demo, plus a node that emits only some of its outputs and a node
    that raises once under a restart policy, in a group of their own."""
    with open(DEMO_CONFIG, encoding="utf-8") as fh:
        doc = copy.deepcopy(json.load(fh))
    qos = {"reliability": "best_effort", "history": {"keep_last": 1}}
    doc["topics"] += [{"name": name, "type": "diag", "qos": qos}
                      for name in ("diag/every", "diag/even", "diag/flaky")]
    doc["algorithms"] += [
        {"name": "split", "version": "1.0.0", "entry": f"{__name__}:split_body",
         "inputs": ["frames"], "outputs": ["every", "even"]},
        {"name": "flaky", "version": "1.0.0", "entry": f"{__name__}:flaky_body",
         "inputs": ["every"], "outputs": ["out"]},
    ]
    doc["pipeline"]["nodes"] += [
        {"node_id": "split", "stage": "service", "inputs": ["sensors/radar0"],
         "outputs": ["diag/every", "diag/even"], "group": "diag",
         "algorithm": ["split", "1.0.0"], "watchdog_ms": 100},
        {"node_id": "flaky", "stage": "service", "inputs": ["diag/every"],
         "outputs": ["diag/flaky"], "group": "diag",
         "algorithm": ["flaky", "1.0.0"], "watchdog_ms": 100},
    ]
    doc["pipeline"]["groups"]["diag"] = {"restart_policy": {"up_to": 2}}
    return doc


def drive(config, fallback_step: int, duration=None):
    stack = Stack(config)
    tally = Tally()
    tally.wrap(stack.graph)
    result = stack.run_scenario(
        duration=duration, event_schedule={fallback_step: [("ads", "fallback_trigger")]})
    return stack, tally, result


def test_report_counts_equal_the_bodies_counts_on_partial_outputs_a_restart_and_a_stop():
    config = parse_config(counter_config_doc())
    stack, tally, result = drive(config, fallback_step=40, duration=6.0)
    assert result.fault is None, result.fault
    steps = result.metrics["acc"]["steps"]
    # each case happened, so the check below covers it
    assert 0 < tally.produced["diag/even"] < tally.produced["diag/every"] == steps
    assert tally.raised == {"flaky": 1}
    assert stack.coordinator.snapshot()["ads"] == "fallback"
    assert tally.fired["acc_ctrl"] == 40 < steps
    assert tally.max_elapsed_ms["split"] > 0.0
    tally.check(result.metrics, config)
    # the flaky node lost only the round it raised in
    assert result.metrics["nodes"]["flaky"]["fired"] == steps - 1


def test_demo_drive_with_a_fallback_at_step_100_reports_the_bodies_counts():
    config = load_config(DEMO_CONFIG)
    stack, tally, result = drive(config, fallback_step=100)
    steps = result.metrics["acc"]["steps"]
    assert tally.fired["acc_ctrl"] == 100 < tally.fired["radar_acq"] == steps
    tally.check(result.metrics, config)
