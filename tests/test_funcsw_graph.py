"""Graph construction, validation, binding and configuration."""

import pytest

from dfp.funcsw import (
    AlgorithmDescriptor,
    AlgorithmNotFound,
    AlgorithmRegistry,
    BindingConflict,
    CycleDetected,
    DuplicateAlgorithm,
    DuplicateNodeId,
    GraphError,
    GroupPolicy,
    PortSchemaMismatch,
    Stage,
    StageOrderViolation,
    StaticKeyWhileRunning,
    TaskNode,
    UnknownConfigKey,
    UnknownGroup,
    UnknownNode,
    UnresolvedInput,
    build_graph,
)

from oracles import toposort_bruteforce


def passthrough(inputs, config):
    return {}


def node(nid, stage=Stage.SERVICE, inputs=(), outputs=(), group="default", **kw):
    return TaskNode(nid, stage, inputs, outputs, group, body=passthrough, **kw)


def groups(**overrides):
    g = {"default": GroupPolicy()}
    g.update(overrides)
    return g


def test_diamond_topological_order_with_lexicographic_tiebreak():
    nodes = [
        node("a", Stage.ACQUISITION, outputs=("ta",)),
        node("b", Stage.ABSTRACTION, inputs=("ta",), outputs=("tb",)),
        node("c", Stage.ABSTRACTION, inputs=("ta",), outputs=("tc",)),
        node("d", Stage.SERVICE, inputs=("tb", "tc")),
    ]
    g = build_graph(nodes, groups())
    assert g.topo_order == ["a", "b", "c", "d"]
    assert g.topo_order == toposort_bruteforce(list(g.nodes), g.edges)


def test_stage_order_violation_rejected():
    nodes = [
        node("late", Stage.SERVICE, outputs=("t",)),
        node("early", Stage.ACQUISITION, inputs=("t",)),
    ]
    with pytest.raises(StageOrderViolation):
        build_graph(nodes, groups())


def test_smallest_cycle_is_reported():
    nodes = [
        node("a", Stage.SERVICE, inputs=("tb",), outputs=("ta",)),
        node("b", Stage.SERVICE, inputs=("ta",), outputs=("tb",)),
    ]
    with pytest.raises(CycleDetected) as err:
        build_graph(nodes, groups())
    assert set(err.value.cycle) == {"a", "b"}


def test_duplicate_node_id_rejected():
    with pytest.raises(DuplicateNodeId):
        build_graph([node("x"), node("x")], groups())


def test_unknown_group_rejected():
    with pytest.raises(UnknownGroup):
        build_graph([node("x", group="ghost")], groups())


def test_two_producers_for_one_topic_rejected():
    nodes = [
        node("a", Stage.ACQUISITION, outputs=("t",)),
        node("b", Stage.ACQUISITION, outputs=("t",)),
        node("c", Stage.SERVICE, inputs=("t",)),
    ]
    with pytest.raises(UnresolvedInput):
        build_graph(nodes, groups())


def test_closed_topic_namespace_flags_dangling_inputs():
    nodes = [node("c", Stage.SERVICE, inputs=("nowhere",))]
    with pytest.raises(UnresolvedInput):
        build_graph(nodes, groups(), external_topics={"somewhere"})
    build_graph(nodes, groups(), external_topics={"nowhere"})  # declared: fine


def registry_with(name="alg", version="1.0.0", n_in=1, n_out=1, binding=None):
    reg = AlgorithmRegistry()
    desc = AlgorithmDescriptor(name, version, "tests:unused",
                               required_inputs=tuple(f"i{k}" for k in range(n_in)),
                               required_outputs=tuple(f"o{k}" for k in range(n_out)),
                               binding_requirement=binding)
    reg.register(desc, factory=lambda node: passthrough)
    return reg


def test_registry_roundtrip_and_misses():
    reg = registry_with("gap_planner", "1.0.0")
    desc, factory = reg.resolve("gap_planner", "1.0.0")
    assert desc.name == "gap_planner"
    with pytest.raises(AlgorithmNotFound):
        reg.resolve("gap_planner", "2.0.0")
    with pytest.raises(DuplicateAlgorithm):
        reg.register(AlgorithmDescriptor("gap_planner", "1.0.0", "x:y"))


def test_registry_loads_module_attribute_entry_on_resolve():
    reg = AlgorithmRegistry()
    reg.register(AlgorithmDescriptor("builder", "1.0.0", "dfp.funcsw:build_graph"))
    assert reg.resolve("builder", "1.0.0")[1] is build_graph


@pytest.mark.parametrize("entry", ["dfp.funcsw", "dfp.funcsw:", ":build_graph"])
def test_registry_rejects_malformed_entry(entry):
    reg = AlgorithmRegistry()
    reg.register(AlgorithmDescriptor("bad", "1.0.0", entry))
    with pytest.raises(GraphError) as excinfo:
        reg.resolve("bad", "1.0.0")
    assert excinfo.type is GraphError  # malformed, not merely missing


@pytest.mark.parametrize("entry", ["dfp.no_such_module:body", "dfp.funcsw:no_such_body"])
def test_registry_missing_entry_target_is_not_found(entry):
    reg = AlgorithmRegistry()
    reg.register(AlgorithmDescriptor("gone", "1.0.0", entry))
    with pytest.raises(AlgorithmNotFound):
        reg.resolve("gone", "1.0.0")


def test_port_schema_mismatch_caught_at_build():
    reg = registry_with(n_in=2)
    nodes = [TaskNode("n", Stage.SERVICE, inputs=("only_one",),
                      algorithm=("alg", "1.0.0"))]
    with pytest.raises(PortSchemaMismatch):
        build_graph(nodes, groups(), registry=reg)


def test_bind_labels_whole_group():
    g = build_graph([node("a"), node("b")], groups())
    g.bind("default", "ai-unit")
    assert g.binding_of("a") == "ai-unit"
    assert g.binding_of("b") == "ai-unit"


def test_bind_conflicts_with_algorithm_requirement():
    reg = registry_with(n_in=0, n_out=0, binding="control-unit")
    nodes = [TaskNode("n", Stage.SERVICE, algorithm=("alg", "1.0.0"))]
    g = build_graph(nodes, groups(), registry=reg)
    with pytest.raises(BindingConflict):
        g.bind("default", "ai-unit")
    g.bind("default", "control-unit")


def test_rebind_last_wins_before_start_but_conflicts_after():
    g = build_graph([node("a")], groups())
    g.bind("default", "ai-unit")
    g.bind("default", "compute-unit")
    assert g.binding_of("a") == "compute-unit"
    g.start()
    with pytest.raises(BindingConflict):
        g.bind("default", "ai-unit")


def test_bind_unknown_group():
    g = build_graph([node("a")], groups())
    with pytest.raises(UnknownGroup):
        g.bind("ghost", "ai-unit")


def test_dynamic_key_changes_while_running():
    n = node("a", config={"gain": 1.0}, config_modes={"gain": "dynamic"})
    g = build_graph([n], groups())
    g.start()
    g.configure("a", {"gain": 2.0})
    assert g.nodes["a"].config["gain"] == 2.0


def test_static_key_sealed_while_running():
    n = node("a", config={"input_topic": "t", "gain": 1.0},
             config_modes={"gain": "dynamic"})
    g = build_graph([n], groups())
    g.configure("a", {"input_topic": "u"})  # before start: fine
    g.start()
    with pytest.raises(StaticKeyWhileRunning) as err:
        g.configure("a", {"input_topic": "v"})
    assert err.value.key == "input_topic"


def test_unknown_config_key_rejected():
    g = build_graph([node("a", config={"gain": 1.0})], groups())
    with pytest.raises(UnknownConfigKey):
        g.configure("a", {"gian": 2.0})
    with pytest.raises(UnknownNode):
        g.configure("ghost", {"gain": 2.0})


def test_algorithm_swap_keeps_edges_identical():
    reg = AlgorithmRegistry()
    for version in ("1.0.0", "2.0.0"):
        reg.register(
            AlgorithmDescriptor("alg", version, "x:y", ("i0",), ("o0",)),
            factory=lambda node: passthrough)
    reg.register(  # port-incompatible version
        AlgorithmDescriptor("alg", "3.0.0", "x:y", ("i0", "i1"), ("o0",)),
        factory=lambda node: passthrough)
    nodes = [
        TaskNode("src", Stage.ACQUISITION, outputs=("t",), body=passthrough),
        TaskNode("n", Stage.SERVICE, inputs=("t",), outputs=("u",),
                 algorithm=("alg", "1.0.0")),
    ]
    g = build_graph(nodes, groups(), registry=reg)
    edges_before = set(g.edges)
    g.swap_algorithm("n", "2.0.0")
    assert g.nodes["n"].algorithm == ("alg", "2.0.0")
    assert set(g.edges) == edges_before
    with pytest.raises(PortSchemaMismatch):
        g.swap_algorithm("n", "3.0.0")
