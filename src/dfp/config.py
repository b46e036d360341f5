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

Each object section declares its keys once, below: for every allowed key,
its exact types and either a default, REQUIRED, or NAME (required, and its
value names the object in later diagnostics). One reader, ``_read``, checks
an object against its declaration, and nothing is coerced: an unknown key,
a missing required key or a value of another exact type is one
``ConfigurationError`` naming the section and the key. A bool is not a
number, a number is finite (``json`` reads ``NaN``, ``Infinity`` and a
literal past the float range as floats), a list of words is a list of
str, and a pair is a two-item list.
``_parse`` builds a section's value from what ``_read`` returns, and a
``DfpError`` the build raises (a constructor's own check) gets the
section's name in front.

Validation is assembly, complete before a Stack starts: ``validate_config``
runs ``dfp.runtime.assemble``, the one assembly the runtime's ``Stack``
runs too, with the builtin bodies and a stub for each imported entry. So a
dangling cross-reference (unknown topic, group, algorithm, fsm, state,
device, odd) and every check a layer makes when it is built (a device's id
and rate, an ODD's searchable tokens, wiring, stage order, cycles, port
counts against each algorithm's descriptor, group binding against binding
requirements, a builtin body's device, the modes' references) fail here as
one ``ConfigurationError`` naming what is wrong, and each check is written
only in its layer. ``validate_config`` itself checks what no layer builds:
topic names are unique, and each acc engage event names an fsm and an
event one of that fsm's transitions takes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from dfp import ConfigurationError, DfpError
from dfp.acc import AccConfig, Scenario, VehicleState
from dfp.envmodel import OddQuery, RecordClass
from dfp.funcsw import AlgorithmDescriptor, GroupPolicy, RestartPolicy, Stage, TaskNode
from dfp.hal import DeviceDescriptor, DeviceKind
from dfp.middleware import QoSProfile, TopicDescriptor, type_hash_of
from dfp.modemgr import EmitEvent, FsmDefinition, Guard, StartGroup, StopGroup, Transition
from dfp.runtime import assemble


class AccSetup(NamedTuple):
    scenario: Scenario
    config: AccConfig
    engage_events: tuple = ()  # ((fsm_id, event), ...) dispatched at run start


# not a named tuple: each list and dict field defaults to a fresh one, and
# variants come from dataclasses.replace
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


class _Shape:
    """A value more exact than its JSON type, by the name diagnostics give it."""

    def __init__(self, name: str, holds):
        self.__name__, self.holds = name, holds


def _finite(value) -> bool:
    return type(value) is not float or math.isfinite(value)


def _pair(name: str, items: tuple) -> _Shape:
    return _Shape(name, lambda v: type(v) is list and len(v) == 2
                  and all(type(x) in items and _finite(x) for x in v))


INT, NUMBER, STR, LIST, DICT = (int,), (int, float), (str,), (list,), (dict,)
STR_OR_NULL = (str, type(None))
WORDS = (_Shape("words", lambda v: type(v) is list and all(type(w) is str for w in v)),)
FSM_EVENT = (_pair("[fsm, event]", STR),)
LITERAL = (_pair("[fsm, state]", STR),)
POINT = (_pair("[t, speed]", NUMBER),)
RESTART = (_Shape("'never' or {'up_to': n}",
                  lambda v: v == "never" or type(v) is dict and v.keys() == {"up_to"}),)

# defaults of a key that must be present; NAME's value also names the object
REQUIRED, NAME = object(), object()

CONFIG = {"seed": (INT, 0), "devices": (LIST, []), "topics": (LIST, []),
          "pipeline": (DICT, {}), "algorithms": (LIST, []), "fsms": (LIST, []),
          "odds": (LIST, []), "acc": (DICT, None)}
PIPELINE = {"nodes": (LIST, []), "groups": (DICT, {})}
DEVICE = {"device_id": (STR, NAME), "kind": (STR, REQUIRED), "rate_hz": (NUMBER, REQUIRED),
          "seed": (INT, 0), "binding_label": (STR, "compute-unit")}
TOPIC = {"name": (STR, NAME), "type": (STR, REQUIRED), "qos": (DICT, {})}
ALGORITHM = {"name": (STR, NAME), "version": (STR, REQUIRED), "entry": (STR, REQUIRED),
             "inputs": (WORDS, []), "outputs": (WORDS, []),
             "binding_requirement": (STR_OR_NULL, None)}
NODE = {"node_id": (STR, NAME), "stage": (STR, REQUIRED), "inputs": (WORDS, []),
        "outputs": (WORDS, []), "group": (STR, REQUIRED),
        "algorithm": ((_pair("[name, version]", STR),), REQUIRED),
        "config": (DICT, {}), "watchdog_ms": (NUMBER, 1000.0)}
GROUP = {"binding_label": (STR_OR_NULL, None), "restart_policy": (RESTART, "never")}
FSM = {"fsm_id": (STR, NAME), "states": (WORDS, REQUIRED), "initial": (STR, REQUIRED),
       "transitions": (LIST, [])}
TRANSITION = {"from": (STR, REQUIRED), "event": (STR, REQUIRED), "to": (STR, REQUIRED),
              "guard": ((dict, list, type(None)), None), "actions": (LIST, [])}
ACTIONS = {"start_group": (STR, StartGroup), "stop_group": (STR, StopGroup),
           "emit": (FSM_EVENT, lambda pair: EmitEvent(*pair))}
ODD = {"name": (STR, NAME), "tokens": (WORDS, REQUIRED), "class_filter": (STR_OR_NULL, None),
       "time_range": ((list, type(None)), None)}
ACC = {"scenario": (DICT, REQUIRED), "config": (DICT, {}), "engage_events": (LIST, [])}
SCENARIO = {"ego": (DICT, REQUIRED), "lead": (DICT, REQUIRED), "lead_profile": (LIST, REQUIRED),
            "dt": (NUMBER, 0.05), "duration": (NUMBER, 120.0)}
VEHICLE = {name: (NUMBER, default) for name, default in VehicleState._field_defaults.items()}
ACC_CONFIG = {name: (NUMBER, default) for name, default in AccConfig._field_defaults.items()}


def _typed(value, types: tuple, context: str, what: str):
    """``value`` if its exact type, or its shape, is one of ``types``: a bool is not an int."""
    if not any(t.holds(value) if isinstance(t, _Shape) else type(value) is t for t in types):
        _fail(f"{context}: {what} must be {' or '.join(t.__name__ for t in types)}, "
              f"not {value!r}")
    if not _finite(value):
        _fail(f"{context}: {what} must be finite, not {value!r}")
    return value


def _read(obj, context: str, keys: dict) -> tuple[dict, str]:
    """``obj``'s fields as ``keys`` declares them, every key present, and the
    context naming ``obj`` (the section, then its NAME key's value)."""
    if type(obj) is not dict:
        _fail(f"{context}: must be an object, not {obj!r}")
    out = {}
    for key, (types, default) in keys.items():
        if key in obj:
            out[key] = _typed(obj[key], types, context, key)
        elif default is REQUIRED or default is NAME:
            _fail(f"{context}: missing required key {key!r}")
        else:
            out[key] = default
        if default is NAME:
            context = f"{context} {out[key]!r}"
    unknown = obj.keys() - keys.keys()
    if unknown:
        _fail(f"{context}: unknown keys {sorted(unknown)}")
    return out, context


def _parse(obj, context: str, keys: dict, build):
    """``build(fields, context)`` of what ``_read`` reads from ``obj``; a
    ``DfpError`` the build raises names the object."""
    values, context = _read(obj, context, keys)
    try:
        return build(values, context)
    except ConfigurationError:
        raise
    except DfpError as exc:
        _fail(f"{context}: {exc}")


def _device(f: dict, context: str) -> DeviceDescriptor:
    try:
        kind = DeviceKind(f["kind"].lower())
    except ValueError:
        _fail(f"{context}: unknown kind {f['kind']!r}")
    return DeviceDescriptor(f["device_id"], kind, float(f["rate_hz"]), f["seed"],
                            f["binding_label"])


def _topic(f: dict, context: str) -> TopicDescriptor:
    return TopicDescriptor(f["name"], type_hash_of(f["type"]), QoSProfile.from_json(f["qos"]))


def _algorithm(f: dict, context: str) -> AlgorithmDescriptor:
    return AlgorithmDescriptor(f["name"], f["version"], f["entry"], tuple(f["inputs"]),
                               tuple(f["outputs"]), f["binding_requirement"])


def _node(f: dict, context: str) -> TaskNode:
    try:
        stage = Stage[f["stage"].upper()]
    except KeyError:
        _fail(f"{context}: unknown stage {f['stage']!r}")
    return TaskNode(node_id=f["node_id"], stage=stage, inputs=f["inputs"], outputs=f["outputs"],
                    group_id=f["group"], algorithm=tuple(f["algorithm"]),
                    config=dict(f["config"]), watchdog_ms=float(f["watchdog_ms"]))


def _group(f: dict, context: str) -> GroupPolicy:
    policy = f["restart_policy"]
    if policy == "never":
        restart = RestartPolicy.never()
    else:
        up_to = _typed(policy["up_to"], INT, context, "restart_policy up_to")
        restart = RestartPolicy.up_to(up_to)
    return GroupPolicy(binding_label=f["binding_label"], restart_policy=restart)


def _action(obj, context: str):
    if type(obj) is not dict or len(obj) != 1:
        _fail(f"{context}: action must be a single-key object")
    ((kind, value),) = obj.items()
    if kind not in ACTIONS:
        _fail(f"{context}: unknown action kind {kind!r}")
    types, make = ACTIONS[kind]
    return make(_typed(value, types, context, f"{kind} action"))


def _fsm(f: dict, context: str) -> FsmDefinition:
    transitions = []
    for obj in f["transitions"]:
        t, where = _read(obj, f"{context} transition", TRANSITION)
        guard = sorted(map(list, t["guard"].items())) if type(t["guard"]) is dict else t["guard"]
        literals = tuple(tuple(_typed(g, LITERAL, where, "guard literal")) for g in guard or ())
        transitions.append(Transition(t["from"], t["event"], t["to"],
                                      Guard(literals) if literals else None,
                                      tuple(_action(a, context) for a in t["actions"])))
    return FsmDefinition(f["fsm_id"], frozenset(f["states"]), f["initial"], tuple(transitions))


def _odd(f: dict, context: str):
    class_filter, window = f["class_filter"], f["time_range"]
    if class_filter is not None:
        try:
            class_filter = RecordClass(class_filter)
        except ValueError:
            _fail(f"{context}: unknown class_filter {class_filter!r}")
    return f["name"], OddQuery(tuple(f["tokens"]), class_filter,
                               None if window is None else tuple(window))


def _acc(f: dict, context: str) -> AccSetup:
    s, where = _read(f["scenario"], f"{context} scenario", SCENARIO)
    profile = [_typed(p, POINT, where, "lead_profile point") for p in s["lead_profile"]]
    return AccSetup(
        scenario=Scenario(
            ego=VehicleState(**_read(s["ego"], f"{where} ego", VEHICLE)[0]),
            lead=VehicleState(**_read(s["lead"], f"{where} lead", VEHICLE)[0]),
            lead_profile=tuple((float(t), float(v)) for t, v in profile),
            dt=float(s["dt"]),
            duration=float(s["duration"]),
        ),
        config=AccConfig(**_read(f["config"], f"{context} config", ACC_CONFIG)[0]),
        engage_events=tuple(tuple(_typed(event, FSM_EVENT, context, "engage event"))
                            for event in f["engage_events"]),
    )


def _unique(items, what: str):
    seen = set()
    for item in items:
        if item in seen:
            _fail(f"duplicate {what} {item!r}")
        seen.add(item)


def parse_config(doc: dict, sha256: str = "") -> SystemConfig:
    if type(doc) is not dict:
        _fail("config root must be a JSON object")
    f = _read(doc, "config", CONFIG)[0]
    if not 0 <= f["seed"] < 2**64:
        _fail(f"config: seed {f['seed']!r} out of [0, 2**64)")
    pipeline = _read(f["pipeline"], "pipeline", PIPELINE)[0]
    cfg = SystemConfig(
        seed=f["seed"],
        devices=[_parse(obj, "device", DEVICE, _device) for obj in f["devices"]],
        topics=[_parse(obj, "topic", TOPIC, _topic) for obj in f["topics"]],
        nodes=[_parse(obj, "node", NODE, _node) for obj in pipeline["nodes"]],
        groups={name: _parse(obj, f"group {name!r}", GROUP, _group)
                for name, obj in pipeline["groups"].items()},
        algorithms=[_parse(obj, "algorithm", ALGORITHM, _algorithm) for obj in f["algorithms"]],
        fsms=[_parse(obj, "fsm", FSM, _fsm) for obj in f["fsms"]],
        odds=[_parse(obj, "odd", ODD, _odd) for obj in f["odds"]],
        acc=None if f["acc"] is None else _parse(f["acc"], "acc", ACC, _acc),
        sha256=sha256,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: SystemConfig) -> None:
    """Assemble every layer, imported entries stubbed; raise naming what one refuses."""
    _unique([t.name for t in cfg.topics], "topic")
    assemble(cfg, stub_imports=True)
    if cfg.acc is not None:
        events = {f.fsm_id: {t.event for t in f.transitions} for f in cfg.fsms}
        for fsm_id, event in cfg.acc.engage_events:
            if fsm_id not in events:
                _fail(f"acc engage event references unknown fsm {fsm_id!r}")
            if event not in events[fsm_id]:
                _fail(f"acc engage event {[fsm_id, event]!r}: "
                      f"no transition of fsm {fsm_id!r} takes it")


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
