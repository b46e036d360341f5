"""Firing rounds, lifecycle management, failure and restart policies."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dfp.funcsw import (
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
    report = g.step({"world": 10})
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
    report = g.step({"w1": 1})  # nothing on "other"
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
        out = [g.step({"world": k}).to_json() for k in range(5)]
        reports.append(out)
    assert reports[0] == reports[1]


def test_freshness_is_consumed_by_firing():
    g = diamond()
    g.start()
    assert g.step({"world": 1}).fired == ["a", "b", "c", "d"]
    assert g.step({}).fired == []  # everything was consumed last round


def test_zero_input_nodes_fire_every_round():
    g = TaskGraph([TaskNode("tick", Stage.ACQUISITION, outputs=("t",),
                            body=emit(t=1))], groups())
    g.start()
    assert g.step({}).fired == ["tick"]
    assert g.step({}).fired == ["tick"]


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
    assert g.step({"w": 1}).fired == ["a", "d"]
    g.step({"w": 2})  # a crashes permanently
    for k in range(3, 6):
        assert g.step({"w": k}).fired == []


def test_watchdog_overrun_is_a_failure():
    def slow(inputs, config):
        return NodeResult({}, elapsed_ms=75.0)

    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=(),
                      body=slow, watchdog_ms=50.0, group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    report = g.step({"w": 1})
    assert report.fired == []
    assert report.failures == [{"node": "a", "reason": "watchdog"}]
    assert g.lifecycle_of("a") == Lifecycle.FAILED


def test_undeclared_output_is_a_failure():
    nodes = [TaskNode("a", Stage.SERVICE, inputs=("w",), outputs=("x",),
                      body=emit(x=1, y=2), group_id="g")]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.never())})
    g.start()
    report = g.step({"w": 1})
    assert report.fired == [] and report.produced == {}
    assert report.failures == [{"node": "a", "reason": "undeclared outputs ['y']"}]
    assert g.lifecycle_of("a") == Lifecycle.FAILED


def test_restart_clears_input_freshness():
    # node with two ports; one fresh datum must not survive the restart
    nodes = [
        TaskNode("a", Stage.SERVICE, inputs=("w1", "w2"), outputs=(),
                 body=crashing_body({1}), group_id="g"),
    ]
    g = TaskGraph(nodes, {"g": GroupPolicy(restart_policy=RestartPolicy.up_to(5))})
    g.start()
    g.step({"w1": 1, "w2": 1})  # fires, crashes, restarts with cleared ports
    assert g.lifecycle_of("a") == Lifecycle.RUNNING
    report = g.step({"w1": 2})  # only one port refreshed: must not fire
    assert report.fired == []


def test_stop_group_halts_firing_within_one_round():
    g = diamond()
    g.start()
    assert g.step({"world": 1}).fired == ["a", "b", "c", "d"]
    g.stop_group("default")
    assert g.step({"world": 2}).fired == []
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
    assert g.step({"w": 1}).fired == ["a"]
    g.start_group("control")
    assert g.step({"w": 2}).fired == ["a", "b"]


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


def test_dynamic_service_node_add_remove_between_rounds():
    g = diamond()
    g.start()
    g.step({"world": 1})
    extra = TaskNode("z", Stage.SERVICE, inputs=("td",), outputs=(),
                     body=emit(), group_id="default")
    g.add_node(extra)
    report = g.step({"world": 2})
    assert "z" in report.fired
    g.remove_node("z")
    assert "z" not in g.nodes
    with pytest.raises(GraphError):
        g.add_node(TaskNode("acq", Stage.ACQUISITION, outputs=("q",), body=emit()))


def test_counts_are_kept_as_rounds_fire_and_survive_a_rebuild():
    g = diamond()
    costs = iter([4.0, 9.0, 2.0])
    g.nodes["b"].body = lambda inputs, config: NodeResult({"tb": 1}, next(costs))
    g.start()
    g.step({"world": 1})
    g.add_node(TaskNode("z", Stage.SERVICE, inputs=("td",), outputs=("tz",),
                        body=emit(tz=1), group_id="default"))
    g.step({"world": 2})
    g.step({})  # nothing fresh: nothing fires, nothing is counted
    assert [g.fired_count_of(nid) for nid in "abcdz"] == [2, 2, 2, 2, 1]
    assert [g.produced_count_of(t) for t in ("ta", "td", "tz", "world")] == [2, 2, 1, 0]
    assert (g.max_elapsed_ms_of("b"), g.max_elapsed_ms_of("a")) == (9.0, 0.0)
    g.remove_node("z")
    g.step({"world": 3})
    assert [g.fired_count_of(nid) for nid in "abcd"] == [3, 3, 3, 3]
    assert (g.produced_count_of("td"), g.produced_count_of("tz")) == (3, 0)
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
        report = g.step(fed)
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
        # a second round lets a node fire on data left fresh by the first
        for report in (g.step({t: 1 for t in external}), g.step({t: 1 for t in external})):
            for src, dst in g.edges:
                if src in report.fired and dst in report.fired:
                    assert g.nodes[src].stage <= g.nodes[dst].stage
                    assert report.fired.index(src) < report.fired.index(dst)


LIFECYCLE_OPS = ("feed", "stop", "start", "crash", "add", "add_bad", "remove")


class _Model:
    """Lifecycle and freshness bookkeeping the oracle needs between rounds."""

    def __init__(self, graph, policies):
        self.spec = {nid: (n.inputs, n.outputs) for nid, n in graph.nodes.items()}
        self.group = {nid: n.group_id for nid, n in graph.nodes.items()}
        self.policies = policies
        self.state = {nid: "configured" for nid in self.spec}
        self.restarts = dict.fromkeys(self.spec, 0)
        self.fresh = {(nid, t): False for nid, (ins, _) in self.spec.items() for t in ins}

    def edges(self):
        producer = {t: nid for nid, (_, outs) in self.spec.items() for t in outs}
        return {(producer[t], nid) for nid, (ins, _) in self.spec.items()
                for t in ins if t in producer}

    def start_group(self, gid):
        for nid in self.spec:
            if self.group[nid] == gid and self.state[nid] == "configured":
                self.state[nid] = "running"

    def stop_group(self, gid):
        for nid in self.spec:
            if self.group[nid] == gid and self.state[nid] in ("running", "failed"):
                self.state[nid] = "stopped"

    def add(self, nid, inputs, outputs, gid):
        self.spec[nid] = (inputs, outputs)
        self.group[nid] = gid
        self.state[nid] = "running"  # the graph has started
        self.restarts[nid] = 0
        self.fresh.update({(nid, t): False for t in inputs})

    def remove(self, nid):
        for t in self.spec.pop(nid)[0]:
            del self.fresh[(nid, t)]
        del self.group[nid], self.state[nid], self.restarts[nid]

    def round(self, fed, crashing):
        """Fired nodes and failed nodes of one round; a crash consumes, emits nothing."""
        spec = {nid: (ins, () if nid in crashing else outs)
                for nid, (ins, outs) in self.spec.items()}
        running = {nid for nid, st_ in self.state.items() if st_ == "running"}
        order, self.fresh = firing_round_oracle(spec, self.edges(), running, self.fresh, fed)
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
    model = _Model(g, policies)
    g.start(groups=["never", "once"])
    model.start_group("never")
    model.start_group("once")
    added = 0
    for op in ops:
        crashing.clear()
        topics = sorted({t for ins, outs in model.spec.values() for t in ins + outs})
        if op in ("stop", "start"):
            gid = rng.choice(sorted(policies))
            getattr(g, f"{op}_group")(gid)
            getattr(model, f"{op}_group")(gid)
        elif op == "crash":
            crashing.update(rng.sample(sorted(model.spec), k=min(2, len(model.spec))))
        elif op == "add":
            nid, out = f"s{added:02d}", (f"t_s{added:02d}",)
            added += 1
            inputs = tuple(rng.sample(topics, k=rng.randint(0, min(3, len(topics)))))
            gid = rng.choice(sorted(policies))
            g.add_node(TaskNode(nid, Stage.SERVICE, inputs, out, group_id=gid,
                                body=body_for(nid, out)))
            model.add(nid, inputs, out, gid)
        elif op == "add_bad":
            taken = sorted(t for _, outs in model.spec.values() for t in outs)
            if taken:  # a second producer of a topic fails validation
                with pytest.raises(GraphError):
                    g.add_node(TaskNode("dup", Stage.SERVICE, (), (rng.choice(taken),),
                                        group_id="once", body=body_for("dup", ())))
        elif op == "remove":
            services = sorted(nid for nid in model.spec
                              if g.nodes[nid].stage == Stage.SERVICE)
            if services:
                nid = rng.choice(services)
                g.remove_node(nid)
                model.remove(nid)
        fed = {t: 1 for t in topics if t.startswith("ext_") and rng.random() < 0.7}
        report = g.step(fed)
        expect_fired, expect_failed = model.round(fed, crashing)
        assert report.fired == expect_fired, op
        assert [f["node"] for f in report.failures] == expect_failed, op
        for nid, state in model.state.items():
            assert g.lifecycle_of(nid).value == state, nid
