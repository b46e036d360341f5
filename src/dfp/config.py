"""System configuration: one JSON document wiring every layer together.

Top-level keys (all others are rejected)::

    seed        u64 run seed
    devices     hal device descriptors
    topics      middleware topic descriptors ({"name", "type", "qos"})
    pipeline    {"nodes": [...], "groups": {...}} task graph declaration
    algorithms  algorithm descriptors the node loader resolves against
    fsms        mode-management state machine definitions
    odds        saved environment queries ({"name", "tokens", ...})
    acc         optional scenario + controller gains + engage event script

Validation is complete before any layer starts: every dangling
cross-reference (unknown topic, group, algorithm, fsm, state, device,
odd) fails with a diagnostic naming the offending reference.

``build_pipeline`` is the one assembly of the task graph and the mode
coordinator. Validation runs it with stub bodies, so everything the graph
checks when it is built (wiring, stage order, cycles, port counts against
each algorithm's descriptor, group binding against binding requirements)
fails here as a ``ConfigurationError``; the runtime's ``Stack`` runs it
with the real bodies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from dfp import ConfigurationError, DfpError
from dfp.acc import AccConfig, Scenario, VehicleState
from dfp.envmodel import OddQuery, RecordClass
from dfp.funcsw import (
    AlgorithmDescriptor,
    AlgorithmRegistry,
    GroupPolicy,
    RestartPolicy,
    Stage,
    TaskGraph,
    TaskNode,
)
from dfp.hal import MAX_RATE_HZ, DeviceDescriptor, DeviceKind
from dfp.middleware import QoSProfile, TopicDescriptor, type_hash_of
from dfp.modemgr import (
    Coordinator,
    EmitEvent,
    FsmDefinition,
    Guard,
    StartGroup,
    StopGroup,
    Transition,
)

TOP_LEVEL_KEYS = {"seed", "devices", "topics", "pipeline", "algorithms",
                  "fsms", "odds", "acc"}


@dataclass
class AccSetup:
    scenario: Scenario
    config: AccConfig
    engage_events: tuple = ()  # ((fsm_id, event), ...) dispatched at run start


@dataclass
class SystemConfig:
    seed: int = 0
    devices: list = field(default_factory=list)
    topics: list = field(default_factory=list)
    nodes: list = field(default_factory=list)  # TaskNode declarations
    groups: dict = field(default_factory=dict)
    algorithms: list = field(default_factory=list)
    fsms: list = field(default_factory=list)
    odds: list = field(default_factory=list)  # (name, OddQuery)
    acc: AccSetup | None = None
    sha256: str = ""

    def topic_names(self) -> set:
        return {t.name for t in self.topics}


def _fail(msg: str):
    raise ConfigurationError(msg)


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        _fail(f"{context}: missing required key {key!r}")
    return obj[key]


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        _fail(f"{context}: must be an object, not {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(f"{context}: unknown keys {sorted(unknown)}")


def _typed(value, types: tuple, context: str, what: str):
    """``value`` if its exact type is one of ``types``: a bool is not an int."""
    if type(value) not in types:
        _fail(f"{context}: {what} must be {' or '.join(t.__name__ for t in types)}, "
              f"not {value!r}")
    return value


def _parse_device(obj: dict) -> DeviceDescriptor:
    _check_keys(obj, {"device_id", "kind", "rate_hz", "seed", "binding_label"}, "device")
    device_id = _require(obj, "device_id", "device")
    kind_name = _require(obj, "kind", f"device {device_id!r}")
    try:
        kind = DeviceKind(str(kind_name).lower())
    except ValueError:
        _fail(f"device {device_id!r}: unknown kind {kind_name!r}")
    rate = _require(obj, "rate_hz", f"device {device_id!r}")
    if not isinstance(rate, (int, float)) or not 0 < rate <= MAX_RATE_HZ:
        _fail(f"device {device_id!r}: rate_hz {rate!r} out of (0, {MAX_RATE_HZ}]")
    seed = _typed(obj.get("seed", 0), (int,), f"device {device_id!r}", "seed")
    return DeviceDescriptor(device_id, kind, float(rate), seed,
                            obj.get("binding_label", "compute-unit"))


def _parse_topic(obj: dict) -> TopicDescriptor:
    _check_keys(obj, {"name", "type", "qos"}, "topic")
    name = _require(obj, "name", "topic")
    type_name = _require(obj, "type", f"topic {name!r}")
    try:
        qos = QoSProfile.from_json(obj.get("qos", {}))
        return TopicDescriptor(name, type_hash_of(str(type_name)), qos)
    except DfpError as exc:
        _fail(f"topic {name!r}: {exc}")


def _parse_algorithm(obj: dict) -> AlgorithmDescriptor:
    _check_keys(obj, {"name", "version", "entry", "inputs", "outputs",
                      "binding_requirement"}, "algorithm")
    name = _require(obj, "name", "algorithm")
    try:
        return AlgorithmDescriptor(
            name=name,
            version=_require(obj, "version", f"algorithm {name!r}"),
            entry=_require(obj, "entry", f"algorithm {name!r}"),
            required_inputs=tuple(obj.get("inputs", ())),
            required_outputs=tuple(obj.get("outputs", ())),
            binding_requirement=obj.get("binding_requirement"),
        )
    except DfpError as exc:
        _fail(f"algorithm {name!r}: {exc}")


def _parse_node(obj: dict) -> TaskNode:
    _check_keys(obj, {"node_id", "stage", "inputs", "outputs", "group",
                      "algorithm", "config", "config_modes", "watchdog_ms"}, "node")
    node_id = _require(obj, "node_id", "pipeline node")
    stage_name = _require(obj, "stage", f"node {node_id!r}")
    try:
        stage = Stage[str(stage_name).upper()]
    except KeyError:
        _fail(f"node {node_id!r}: unknown stage {stage_name!r}")
    algorithm = _require(obj, "algorithm", f"node {node_id!r}")
    if not (isinstance(algorithm, list) and len(algorithm) == 2):
        _fail(f"node {node_id!r}: algorithm must be [name, version]")
    watchdog_ms = _typed(obj.get("watchdog_ms", 1000.0), (int, float), f"node {node_id!r}",
                         "watchdog_ms")
    try:
        return TaskNode(
            node_id=node_id,
            stage=stage,
            inputs=tuple(obj.get("inputs", ())),
            outputs=tuple(obj.get("outputs", ())),
            group_id=_require(obj, "group", f"node {node_id!r}"),
            algorithm=(algorithm[0], algorithm[1]),
            config=dict(obj.get("config", {})),
            config_modes=dict(obj.get("config_modes", {})),
            watchdog_ms=float(watchdog_ms),
        )
    except DfpError as exc:
        _fail(f"node {node_id!r}: {exc}")


def _parse_group(name: str, obj: dict) -> GroupPolicy:
    _check_keys(obj, {"binding_label", "restart_policy"}, f"group {name!r}")
    policy = obj.get("restart_policy", "never")
    if policy == "never":
        restart = RestartPolicy.never()
    elif isinstance(policy, dict) and set(policy) == {"up_to"}:
        restart = RestartPolicy.up_to(_typed(policy["up_to"], (int,), f"group {name!r}",
                                             "restart_policy up_to"))
    else:
        _fail(f"group {name!r}: restart_policy must be 'never' or {{'up_to': n}}")
    return GroupPolicy(binding_label=obj.get("binding_label"), restart_policy=restart)


def _parse_action(obj: dict, context: str):
    if not isinstance(obj, dict) or len(obj) != 1:
        _fail(f"{context}: action must be a single-key object")
    key, value = next(iter(obj.items()))
    if key == "start_group":
        return StartGroup(value)
    if key == "stop_group":
        return StopGroup(value)
    if key == "emit":
        if not (isinstance(value, list) and len(value) == 2):
            _fail(f"{context}: emit action must be [fsm, event]")
        return EmitEvent(value[0], value[1])
    _fail(f"{context}: unknown action kind {key!r}")


def _parse_fsm(obj: dict) -> FsmDefinition:
    _check_keys(obj, {"fsm_id", "states", "initial", "transitions"}, "fsm")
    fsm_id = _require(obj, "fsm_id", "fsm")
    transitions = []
    for t in obj.get("transitions", ()):
        _check_keys(t, {"from", "event", "to", "guard", "actions"},
                    f"fsm {fsm_id!r} transition")
        guard = None
        raw_guard = t.get("guard")
        if raw_guard:
            if isinstance(raw_guard, dict):
                literals = tuple(sorted(raw_guard.items()))
            else:
                literals = tuple((g[0], g[1]) for g in raw_guard)
            guard = Guard(literals)
        actions = tuple(_parse_action(a, f"fsm {fsm_id!r}")
                        for a in t.get("actions", ()))
        transitions.append(Transition(
            source=_require(t, "from", f"fsm {fsm_id!r} transition"),
            event=_require(t, "event", f"fsm {fsm_id!r} transition"),
            target=_require(t, "to", f"fsm {fsm_id!r} transition"),
            guard=guard,
            actions=actions,
        ))
    try:
        return FsmDefinition(
            fsm_id=fsm_id,
            states=frozenset(_require(obj, "states", f"fsm {fsm_id!r}")),
            initial=_require(obj, "initial", f"fsm {fsm_id!r}"),
            transitions=tuple(transitions),
        )
    except DfpError as exc:
        _fail(f"fsm {fsm_id!r}: {exc}")


def _parse_odd(obj: dict):
    _check_keys(obj, {"name", "tokens", "class_filter", "time_range"}, "odd")
    name = _require(obj, "name", "odd")
    tokens = _typed(_require(obj, "tokens", f"odd {name!r}"), (list,), f"odd {name!r}", "tokens")
    if not all(isinstance(word, str) for word in tokens):
        _fail(f"odd {name!r}: tokens must be words, not {tokens!r}")
    class_filter = obj.get("class_filter")
    if class_filter is not None:
        try:
            class_filter = RecordClass(class_filter)
        except ValueError:
            _fail(f"odd {name!r}: unknown class_filter {class_filter!r}")
    time_range = obj.get("time_range")
    try:
        query = OddQuery(tuple(tokens), class_filter,
                         tuple(time_range) if isinstance(time_range, list) else time_range)
        query.effective_tokens()
    except DfpError as exc:
        _fail(f"odd {name!r}: {exc}")
    return name, query


def _parse_acc(obj: dict) -> AccSetup:
    _check_keys(obj, {"scenario", "config", "engage_events"}, "acc")
    s = _require(obj, "scenario", "acc")
    _check_keys(s, {"ego", "lead", "lead_profile", "dt", "duration"}, "acc scenario")
    try:
        scenario = Scenario(
            ego=VehicleState(**_require(s, "ego", "acc scenario")),
            lead=VehicleState(**_require(s, "lead", "acc scenario")),
            lead_profile=tuple((float(t), float(v))
                               for t, v in _require(s, "lead_profile", "acc scenario")),
            dt=float(s.get("dt", 0.05)),
            duration=float(s.get("duration", 120.0)),
        )
        cfg = AccConfig(**obj.get("config", {}))
    except (DfpError, TypeError, ValueError) as exc:
        _fail(f"acc: {exc}")
    events = _typed(obj.get("engage_events", []), (list,), "acc", "engage_events")
    for event in events:
        if not (isinstance(event, list) and len(event) == 2):
            _fail(f"acc: engage event must be [fsm, event], not {event!r}")
    return AccSetup(scenario=scenario, config=cfg, engage_events=tuple(map(tuple, events)))


def _parse_list(obj: dict, key: str, context: str, parse) -> list:
    """``parse`` of each item of the list ``obj[key]``, which may be missing."""
    return [parse(item) for item in _typed(obj.get(key, []), (list,), context, key)]


def _unique(items, what: str):
    seen = set()
    for item in items:
        if item in seen:
            _fail(f"duplicate {what} {item!r}")
        seen.add(item)


def parse_config(doc: dict, sha256: str = "") -> SystemConfig:
    if not isinstance(doc, dict):
        _fail("config root must be a JSON object")
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
    pipeline = doc.get("pipeline", {"nodes": [], "groups": {}})
    _check_keys(pipeline, {"nodes", "groups"}, "pipeline")
    groups = _typed(pipeline.get("groups", {}), (dict,), "pipeline", "groups")
    cfg = SystemConfig(
        seed=_typed(doc.get("seed", 0), (int,), "config", "seed"),
        devices=_parse_list(doc, "devices", "config", _parse_device),
        topics=_parse_list(doc, "topics", "config", _parse_topic),
        nodes=_parse_list(pipeline, "nodes", "pipeline", _parse_node),
        groups={name: _parse_group(name, g) for name, g in groups.items()},
        algorithms=_parse_list(doc, "algorithms", "config", _parse_algorithm),
        fsms=_parse_list(doc, "fsms", "config", _parse_fsm),
        odds=_parse_list(doc, "odds", "config", _parse_odd),
        acc=_parse_acc(doc["acc"]) if doc.get("acc") else None,
        sha256=sha256,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: SystemConfig) -> None:
    """Resolve every cross-reference; raise with the failing name if not."""
    _unique([d.device_id for d in cfg.devices], "device")
    _unique([t.name for t in cfg.topics], "topic")
    _unique([(a.name, a.version) for a in cfg.algorithms], "algorithm")
    _unique([f.fsm_id for f in cfg.fsms], "fsm")
    _unique([name for name, _ in cfg.odds], "odd")

    known_algorithms = {(a.name, a.version) for a in cfg.algorithms}
    device_ids = {d.device_id for d in cfg.devices}
    for node in cfg.nodes:
        if node.algorithm not in known_algorithms:
            _fail(f"node {node.node_id!r} references unknown algorithm "
                  f"{node.algorithm[0]}@{node.algorithm[1]}")
        dev = node.config.get("device_id")
        if dev is not None and dev not in device_ids:
            _fail(f"node {node.node_id!r} references unknown device {dev!r}")

    try:
        build_pipeline(cfg, lambda descriptor: _stub_factory)
    except DfpError as exc:
        _fail(f"pipeline: {exc}")

    if cfg.acc is not None:
        fsm_ids = {f.fsm_id for f in cfg.fsms}
        for fsm_id, event in cfg.acc.engage_events:
            if fsm_id not in fsm_ids:
                _fail(f"acc engage event references unknown fsm {fsm_id!r}")


def _stub_factory(node):
    return lambda inputs, config: {}


def build_pipeline(cfg: SystemConfig, factory_for):
    """Assemble the task graph and the mode coordinator ``cfg`` declares.

    ``factory_for(descriptor)`` gives the body factory each algorithm is
    registered with, or None to import its ``entry`` when a node resolves
    it. The graph gets copies of the node declarations, since resolving a
    node sets its body, so graphs built from one config share no node.
    Returns ``(graph, coordinator)``; the graph is None when the config
    declares no nodes, which an ``acc`` section, a plant for the graph to
    drive, does not allow.
    """
    registry = AlgorithmRegistry()
    for descriptor in cfg.algorithms:
        registry.register(descriptor, factory_for(descriptor))
    graph = None
    if cfg.nodes:
        graph = TaskGraph([replace(n, config=dict(n.config)) for n in cfg.nodes],
                          cfg.groups, registry=registry,
                          external_topics=cfg.topic_names())
        for gid, policy in cfg.groups.items():
            if policy.binding_label:
                graph.bind(gid, policy.binding_label)
    elif cfg.acc is not None:
        raise ConfigurationError("the acc section needs pipeline nodes to drive its plant")
    coordinator = Coordinator(groups=set(cfg.groups), group_controller=graph)
    coordinator.load(cfg.fsms)
    return graph, coordinator


def load_config(path) -> SystemConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"config not found: {path} ({exc.strerror})") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config does not parse: {exc}") from exc
    return parse_config(doc, sha256=hashlib.sha256(raw).hexdigest())
