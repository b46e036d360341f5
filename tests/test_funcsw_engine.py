"""Firing rounds, lifecycle management, failure and restart policies.

A round's record is the graph's own: which nodes fired is the change in
their fired counts, failures are the lifecycle trace entries the round
appended with ``to == "failed"``, and ``step`` returns what it produced.
Execution order is what the bodies themselves log as they run.
"""

import json
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from dfp.funcsw import (
    AlgorithmDescriptor,
    AlgorithmRegistry,
    GraphError,
    GroupPolicy,
    Lifecycle,
    NodeResult,
    RestartPolicy,
    Stage,
    TaskGraph,
    TaskNode,
)
from dfp.funcsw.types import LEGAL_TRANSITIONS

from oracles import firing_round_oracle, toposort_bruteforce


class Round(NamedTuple):
    fired: list  # node ids in the order their bodies ran
    produced: dict
    failures: list  # {"node": ..., "reason": ...}, in trace order


class Observed:
    """Steps a graph whose bodies log their own node id when they run."""

    def __init__(self, graph):
        self.graph = graph
        self.ran = []
        for node in graph.nodes.values():
            self.wrap(node)

    def wrap(self, node):
        body, ran, nid = node.body, self.ran, node.node_id

        def logged(inputs, config):
            ran.append(nid)
            return body(inputs, config)
        node.body = logged

    def step(self, external_inputs=None):
        g = self.graph
        before = {nid: g.fired_count_of(nid) for nid in g.nodes}
        mark, start = len(g.trace), len(self.ran)
        produced = g.step(external_inputs)
        deltas = {nid: g.fired_count_of(nid) - before[nid] for nid in g.nodes}
        assert set(deltas.values()) <= {0, 1}, deltas
        fired = {nid for nid, d in deltas.items() if d}
        failures = [{"node": e["node"], "reason": e["reason"]}
                    for e in g.trace[mark:] if e["to"] == "failed"]
        ran = self.ran[start:]
        # each body runs at most once a round, and a body that ran fired or failed
        assert len(ran) == len(set(ran)), ran
        assert set(ran) == fired | {f["node"] for f in failures}, (ran, fired, failures)
        assert fired.isdisjoint(f["node"] for f in failures)
        return Round([nid for nid in ran if nid in fired], produced, failures)


def emit(**outputs):
    def body(inputs, config):
        return dict(outputs)
    return body


def forward(out_topic, transform=lambda vals: sum(vals)):
    def body(inputs, config):
        return {out_topic: transform(list(inputs.values()))}
    return body


def groups(**overrides):
    g = {"default": GroupPolicy()}
    g.update(overrides)
    return g


def diamond():
    nodes = [
        TaskNode("a", Stage.ACQUISITION, inputs=("world",), outputs=("ta",),
                 body=forward("ta")),
        TaskNode("b", Stage.ABSTRACTION, inputs=("ta",), outputs=("tb",),
                 body=forward("tb", lambda v: v[0] + 1)),
        TaskNode("c", Stage.ABSTRACTION, inputs=("ta",), outputs=("tc",),
                 body=forward("tc", lambda v: v[0] + 2)),
        TaskNode("d", Stage.SERVICE, inputs=("tb", "tc"), outputs=("td",),
                 body=forward("td")),
    ]
    return TaskGraph(nodes, groups())


def test_diamond_fires_fully_in_topological_order():
    g = diamond()
    g.start()
    report = Observed(g).step({"world": 10})
    assert report.fired == ["a", "b", "c", "d"]
    assert report.produced["td"] == (10 + 1) + (10 + 2)


def test_missing_port_blocks_node_and_descendants():
    nodes = [
        TaskNode("a", Stage.ACQUISITION, inputs=("w1",), outputs=("ta",),
                 body=forward("ta")),
        TaskNode("b", Stage.SERVICE, inputs=("ta", "other"), outputs=("tb",),
                 body=forward("tb")),
        TaskNode("d", Stage.SERVICE, inputs=("tb",), outputs=(),
                 body=emit()),
    ]
    g = TaskGraph(nodes, groups())
    g.start()
    report = Observed(g).step({"w1": 1})  # nothing on "other"
    assert report.fired == ["a"]


def test_step_requires_start():
    g = diamond()
    with pytest.raises(GraphError):
        g.step({})


def test_identical_inputs_give_byte_identical_reports():
    reports = []
    for _ in range(2):
        g = diamond()
        g.start()
        out = []
        for k in range(5):
            produced = g.step({"world": k})
            counts = {nid: (g.fired_count_of(nid), g.max_elapsed_ms_of(nid))
                      for nid in sorted(g.nodes)}
            out.append(json.dumps([produced, counts, g.trace], sort_keys=True))
        reports.append(out)
    assert reports[0] == reports[1]


def test_freshness_is_consumed_by_firing():
    g = diamond()
    g.start()
    obs = Observed(g)
    assert obs.step({"world": 1}).fired == ["a", "b", "c", "d"]
    assert obs.step({}).fired == []  # everything was consumed last round


def test_zero_input_nodes_fire_every_round():
    g = TaskGraph([TaskNode("tick", Stage.ACQUISITION, outputs=("t",),
                            body=emit(t=1))], groups())
    g.start()
    obs = Observed(g)
    assert obs.step({}).fired == ["tick"]
    assert obs.step({}).fired == ["tick"]


def crashing_body(crash_on_call, **outputs):
    calls = {"n": 0}

    def body(inputs, config):
        calls["n"] += 1
        if calls["n"] in crash_on_call:
            raise RuntimeError("injected crash")
        return dict(outputs)
    return body


def test_restart_policy_up_to_one():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=(),
                      body=crashing_body({1, 2}), group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.up_to(1))})
    g.start()
    g.step({"w": 1})  # first crash: restarted
    assert g.lifecycle_of("a") == Lifecycle.RUNNING
    assert g.restart_count_of("a") == 1
    g.step({"w": 2})  # second crash: permanent
    assert g.lifecycle_of("a") == Lifecycle.FAILED
    g.step({"w": 3})
    assert g.lifecycle_of("a") == Lifecycle.FAILED


def test_restart_policy_never():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=(),
                      body=crashing_body({1}), group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    g.step({"w": 1})
    assert g.lifecycle_of("a") == Lifecycle.FAILED


def test_downstream_stops_firing_after_permanent_failure():
    nodes = [
        TaskNode("a", Stage.ABSTRACTION, inputs=("w",), outputs=("ta",),
                 body=crashing_body({2, 3}, ta=1), group_id="g"),
        TaskNode("d", Stage.SERVICE, inputs=("ta",), outputs=(),
                 body=emit(), group_id="g"),
    ]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    obs = Observed(g)
    assert obs.step({"w": 1}).fired == ["a", "d"]
    assert obs.step({"w": 2}).failures == [  # a crashes permanently
        {"node": "a", "reason": "fault: injected crash"}]
    for k in range(3, 6):
        assert obs.step({"w": k}).fired == []


def test_watchdog_overrun_is_a_failure():
    def slow(inputs, config):
        return NodeResult({}, elapsed_ms=75.0)

    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=(),
                      body=slow, watchdog_ms=50.0, group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    report = Observed(g).step({"w": 1})
    assert report.fired == []
    assert report.failures == [{"node": "a", "reason": "watchdog"}]
    assert g.lifecycle_of("a") == Lifecycle.FAILED


def test_undeclared_output_is_a_failure():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=("x",),
                      body=emit(x=1, y=2), group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    report = Observed(g).step({"w": 1})
    assert report.fired == [] and report.produced == {}
    assert report.failures == [{"node": "a", "reason": "undeclared outputs ['y']"}]
    assert g.lifecycle_of("a") == Lifecycle.FAILED


@pytest.mark.parametrize("result,reason", [
    (5, "outputs must be a dict, not int"),
    (1.5, "outputs must be a dict, not float"),
    (["t"], "outputs must be a dict, not list"),
    ({"t"}, "outputs must be a dict, not set"),
    ("ab", "outputs must be a dict, not str"),
    (NodeResult(["t"]), "outputs must be a dict, not list"),
    (NodeResult({"t": 1}, "slow"), "elapsed_ms must be a number, not str"),
], ids=["int", "float", "list", "set", "str", "node_result_list", "node_result_cost_str"])
def test_result_that_is_not_a_dict_fails_the_node(result, reason):
    # each escaped step as a TypeError or AttributeError, or ("ab") named outputs 'a', 'b'
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=("t",),
                      body=lambda inputs, config: result, group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    report = Observed(g).step({"w": 1})
    assert report.fired == [] and report.produced == {}
    assert report.failures == [{"node": "a", "reason": reason}]
    assert g.lifecycle_of("a") == Lifecycle.FAILED
    assert (g.produced_count_of("t"), g.max_elapsed_ms_of("a")) == (0, 0.0)


def test_none_result_fires_and_produces_nothing():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=("t",),
                      body=lambda inputs, config: None)]
    g = TaskGraph(nodes, groups())
    g.start()
    report = Observed(g).step({"w": 1})
    assert (report.fired, report.produced, report.failures) == (["a"], {}, [])


def test_body_keeping_and_changing_its_inputs_changes_nothing_later():
    kept, seen = [], []

    def body(inputs, config):
        kept.append(inputs)
        seen.append(list(inputs.items()))
        inputs["w1"] = "changed"
        inputs["extra"] = True
        del inputs["w2"]
        return {}

    g = TaskGraph([TaskNode("a", Stage.SERVICE, inputs=("w1", "w2"), outputs=(),
                            body=body)], groups())
    g.start()
    g.step({"w1": 1, "w2": 1})
    g.step({"w2": 2})  # w1 is not fresh: no firing
    g.step({"w1": 3})
    assert seen == [[("w1", 1), ("w2", 1)], [("w1", 3), ("w2", 2)]]
    assert kept[0] is not kept[1]
    assert kept[0] == {"w1": "changed", "extra": True}  # the later round wrote nothing into it


def test_swap_algorithm_between_rounds_takes_effect_without_a_new_plan():
    reg = AlgorithmRegistry()
    for version in ("1.0.0", "2.0.0"):
        reg.register(AlgorithmDescriptor("alg", version, "x:y", ("i0",), ("o0",)),
                     factory=lambda node, version=version: emit(u=version))
    g = TaskGraph([TaskNode("n", Stage.SERVICE, inputs=("t",), outputs=("u",),
                            algorithm=("alg", "1.0.0"))], groups(), registry=reg)
    g.start()
    plan = g._plan
    assert g.step({"t": 1}) == {"u": "1.0.0"}
    g.swap_algorithm("n", "2.0.0")
    assert g.step({"t": 2}) == {"u": "2.0.0"}
    assert g._plan is plan and g.fired_count_of("n") == 2


def test_restart_clears_input_freshness():
    # node with two ports; one fresh datum must not survive the restart
    nodes = [
        TaskNode("a", Stage.SERVICE, inputs=("w1", "w2"), outputs=(),
                 body=crashing_body({1}), group_id="g"),
    ]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.up_to(5))})
    g.start()
    obs = Observed(g)
    assert obs.step({"w1": 1, "w2": 1}).failures == [  # fires, crashes, restarts
        {"node": "a", "reason": "fault: injected crash"}]
    assert g.lifecycle_of("a") == Lifecycle.RUNNING
    report = obs.step({"w1": 2})  # only one port refreshed: must not fire
    assert report.fired == [] and report.failures == []


def test_stop_group_halts_firing_within_one_round():
    g = diamond()
    g.start()
    obs = Observed(g)
    assert obs.step({"world": 1}).fired == ["a", "b", "c", "d"]
    g.stop_group("default")
    assert obs.step({"world": 2}).fired == []
    assert g.lifecycle_of("a") == Lifecycle.STOPPED


def test_group_wise_start():
    nodes = [
        TaskNode("a", Stage.ACQUISITION, inputs=("w",), outputs=("t",),
                 body=forward("t"), group_id="sensors"),
        TaskNode("b", Stage.SERVICE, inputs=("t",), outputs=(),
                 body=emit(), group_id="control"),
    ]
    g = TaskGraph(nodes, {"sensors": GroupPolicy(), "control": GroupPolicy()})
    g.start(groups=["sensors"])
    obs = Observed(g)
    assert obs.step({"w": 1}).fired == ["a"]
    g.start_group("control")
    assert obs.step({"w": 2}).fired == ["a", "b"]


def test_lifecycle_trace_has_no_illegal_transitions():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=(),
                      body=crashing_body({1, 2, 3}), group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.up_to(2))})
    g.start()
    for k in range(5):
        g.step({"w": k})
    g.stop_group("g")
    for entry in g.trace:
        frm = Lifecycle(entry["from"])
        to = Lifecycle(entry["to"])
        assert (frm, to) in LEGAL_TRANSITIONS, entry


def test_counts_are_kept_as_rounds_fire():
    g = diamond()
    costs = iter([4.0, 9.0, 2.0])
    g.nodes["b"].body = lambda inputs, config: NodeResult({"tb": 1}, next(costs))
    g.start()
    g.step({"world": 1})
    g.step({"world": 2})
    g.step({})  # nothing fresh: nothing fires, nothing is counted
    assert [g.fired_count_of(nid) for nid in "abcd"] == [2, 2, 2, 2]
    assert [g.produced_count_of(t) for t in ("ta", "td", "tz", "world")] == [2, 2, 0, 0]
    assert (g.max_elapsed_ms_of("b"), g.max_elapsed_ms_of("a")) == (9.0, 0.0)
    g.step({"world": 3})  # a cheaper firing leaves the largest cost
    assert [g.fired_count_of(nid) for nid in "abcd"] == [3, 3, 3, 3]
    assert g.produced_count_of("td") == 3
    assert g.max_elapsed_ms_of("b") == 9.0


def random_stage_consistent_dag(rng, max_nodes=20):
    n = rng.randint(2, max_nodes)
    nodes = {}
    for i in range(n):
        nid = f"n{i:02d}"
        stage = Stage(rng.randint(0, 3))
        nodes[nid] = stage
    ordered = sorted(nodes, key=lambda nid: (nodes[nid], nid))
    inputs = {nid: [] for nid in nodes}
    outputs = {nid: [f"t_{nid}"] for nid in nodes}
    for i, nid in enumerate(ordered):
        for j in range(i):
            src = ordered[j]
            if nodes[src] <= nodes[nid] and rng.random() < 0.25:
                inputs[nid].append(f"t_{src}")
    external = {}
    for nid in nodes:
        if not inputs[nid] and rng.random() < 0.8:
            inputs[nid].append(f"ext_{nid}")
            external[f"ext_{nid}"] = rng.random() < 0.7
    task_nodes = [
        TaskNode(nid, nodes[nid], tuple(inputs[nid]), tuple(outputs[nid]),
                 body=emit(**{f"t_{nid}": 1}))
        for nid in nodes
    ]
    return task_nodes, external


def test_hundred_random_dags_match_firing_oracle():
    rng = random.Random(2024)
    for trial in range(100):
        task_nodes, external = random_stage_consistent_dag(rng)
        g = TaskGraph(task_nodes, groups())
        g.start()
        assert g.topo_order == toposort_bruteforce(list(g.nodes), g.edges)
        fed = {t: 1 for t, feed in external.items() if feed}
        report = Observed(g).step(fed)
        spec = {nid: (n.inputs, n.outputs) for nid, n in g.nodes.items()}
        fresh0 = {(nid, t): False for nid, n in g.nodes.items() for t in n.inputs}
        expect_fired, _ = firing_round_oracle(spec, g.edges, set(g.nodes), fresh0, fed)
        assert report.fired == expect_fired, f"trial {trial}"


def test_stage_monotonicity_within_every_report():
    rng = random.Random(7)
    for _ in range(20):
        task_nodes, external = random_stage_consistent_dag(rng)
        g = TaskGraph(task_nodes, groups())
        g.start()
        obs = Observed(g)
        # a second round lets a node fire on data left fresh by the first
        for report in (obs.step({t: 1 for t in external}), obs.step({t: 1 for t in external})):
            for src, dst in g.edges:
                if src in report.fired and dst in report.fired:
                    assert g.nodes[src].stage <= g.nodes[dst].stage
                    assert report.fired.index(src) < report.fired.index(dst)


LIFECYCLE_OPS = ("feed", "stop", "start", "crash")


class _Model:
    """Lifecycle and freshness bookkeeping the oracle needs between rounds."""

    def __init__(self, graph, policies):
        self.spec = {nid: (n.inputs, n.outputs) for nid, n in graph.nodes.items()}
        self.group = {nid: n.group_id for nid, n in graph.nodes.items()}
        self.policies = policies
        self.state = {nid: "configured" for nid in self.spec}
        self.restarts = dict.fromkeys(self.spec, 0)
        self.fresh = {(nid, t): False for nid, (ins, _) in self.spec.items() for t in ins}
        producer = {t: nid for nid, (_, outs) in self.spec.items() for t in outs}
        self.edges = {(producer[t], nid) for nid, (ins, _) in self.spec.items()
                      for t in ins if t in producer}

    def start_group(self, gid):
        for nid in self.spec:
            if self.group[nid] == gid and self.state[nid] == "configured":
                self.state[nid] = "running"

    def stop_group(self, gid):
        for nid in self.spec:
            if self.group[nid] == gid and self.state[nid] in ("running", "failed"):
                self.state[nid] = "stopped"

    def round(self, fed, crashing):
        """Fired nodes and failed nodes of one round; a crash consumes, emits nothing."""
        spec = {nid: (ins, () if nid in crashing else outs)
                for nid, (ins, outs) in self.spec.items()}
        running = {nid for nid, st_ in self.state.items() if st_ == "running"}
        order, self.fresh = firing_round_oracle(spec, self.edges, running, self.fresh, fed)
        failed = [nid for nid in order if nid in crashing]
        for nid in failed:
            if self.restarts[nid] < self.policies[self.group[nid]].restart_policy.limit:
                self.restarts[nid] += 1
                for t in self.spec[nid][0]:
                    self.fresh[(nid, t)] = False
            else:
                self.state[nid] = "failed"
        return [nid for nid in order if nid not in crashing], failed


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.sampled_from(LIFECYCLE_OPS), min_size=1, max_size=14))
def test_compiled_round_matches_oracle_under_lifecycle_operations(seed, ops):
    rng = random.Random(seed)
    task_nodes, _ = random_stage_consistent_dag(rng, max_nodes=8)
    crashing = set()

    def body_for(nid, outputs):
        def body(inputs, config):
            if nid in crashing:
                raise RuntimeError("injected crash")
            return {t: nid for t in outputs}
        return body

    policies = {"never": GroupPolicy(restart_policy=RestartPolicy.never()),
                "once": GroupPolicy(restart_policy=RestartPolicy.up_to(1)),
                "late": GroupPolicy(restart_policy=RestartPolicy.up_to(1))}
    for node in task_nodes:
        node.group_id = rng.choice(sorted(policies))
        node.body = body_for(node.node_id, node.outputs)
    g = TaskGraph(task_nodes, policies)
    obs = Observed(g)
    model = _Model(g, policies)
    g.start(groups=["never", "once"])
    model.start_group("never")
    model.start_group("once")
    external = sorted({t for ins, _ in model.spec.values() for t in ins if t.startswith("ext_")})
    for op in ops:
        crashing.clear()
        if op in ("stop", "start"):
            gid = rng.choice(sorted(policies))
            getattr(g, f"{op}_group")(gid)
            getattr(model, f"{op}_group")(gid)
        elif op == "crash":
            crashing.update(rng.sample(sorted(model.spec), k=min(2, len(model.spec))))
        fed = {t: 1 for t in external if rng.random() < 0.7}
        report = obs.step(fed)
        expect_fired, expect_failed = model.round(fed, crashing)
        assert report.fired == expect_fired, op
        assert [f["node"] for f in report.failures] == expect_failed, op
        for nid, state in model.state.items():
            assert g.lifecycle_of(nid).value == state, nid
