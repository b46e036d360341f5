"""Value types are named tuples: which classes stay dataclasses, and the
semantics the conversion must keep (immutability, checks in the
constructor, actions that never compare equal across kinds)."""

import dataclasses
import os
import re
import sys

import pytest

import dfp
import dfp.cli  # noqa: F401  reaches every module
from dfp.acc import AccConfig, AccError, Scenario, TrajectoryPoint, VehicleState
from dfp.bench import BenchRow
from dfp.config import AccSetup
from dfp.envmodel import OddQuery
from dfp.funcsw import GraphError
from dfp.funcsw.types import AlgorithmDescriptor, GroupPolicy, NodeResult, RestartPolicy
from dfp.hal import DeviceDescriptor, DeviceKind
from dfp.middleware import (
    DiscoveryRecord,
    History,
    InProcess,
    Loopback,
    MiddlewareError,
    QoSProfile,
    ServiceDescriptor,
    TopicDescriptor,
)
from dfp.middleware.qos import QoSError
from dfp.modemgr import (
    EmitEvent,
    FsmDefinition,
    Guard,
    StartGroup,
    StopGroup,
    Transition,
    UnknownStateRef,
)
from dfp.runtime import RunResult

# (module, class) -> why it is not a named tuple
KEPT_DATACLASSES = {
    ("dfp.modemgr", "StartGroup"): "two actions of one shape must not compare equal",
    ("dfp.modemgr", "StopGroup"): "two actions of one shape must not compare equal",
    ("dfp.modemgr", "EmitEvent"): "two actions of one shape must not compare equal",
    ("dfp.config", "SystemConfig"): "variants come from dataclasses.replace",
    ("dfp.funcsw.types", "TaskNode"): "the graph binds a node's body after construction",
}


def test_every_module_is_loaded():
    src = os.path.dirname(dfp.__file__)
    files = {os.path.join(folder, name) for folder, _, names in os.walk(src)
             for name in names if name.endswith(".py")}
    loaded = {os.path.realpath(m.__file__) for name, m in sys.modules.items()
              if name == "dfp" or name.startswith("dfp.")}
    assert {os.path.realpath(f) for f in files} <= loaded


def test_only_the_kept_types_are_dataclasses():
    found = {(name, cls.__name__)
             for name, module in list(sys.modules.items())
             if name == "dfp" or name.startswith("dfp.")
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == name
             and dataclasses.is_dataclass(cls)}
    assert found == set(KEPT_DATACLASSES)


QOS = QoSProfile()
TOPIC = TopicDescriptor("a/b", 1)
VEHICLE = VehicleState(0.0, 10.0)
SCENARIO = Scenario(VEHICLE, VehicleState(30.0, 10.0), ((0.0, 10.0),))
VALUES = {
    "History": (History(1), "depth"),
    "QoSProfile": (QOS, "deadline_ms"),
    "TopicDescriptor": (TOPIC, "name"),
    "ServiceDescriptor": (ServiceDescriptor("s"), "service_name"),
    "InProcess": (InProcess(), "port"),
    "Loopback": (Loopback(7000), "port"),
    "DiscoveryRecord": (DiscoveryRecord("publisher", 1, TOPIC, 0), "entity"),
    "DeviceDescriptor": (DeviceDescriptor("r", DeviceKind.RADAR, 20.0), "rate_hz"),
    "OddQuery": (OddQuery(("rain",)), "tokens"),
    "Guard": (Guard((("f", "s"),)), "literals"),
    "Transition": (Transition("a", "e", "b"), "target"),
    "FsmDefinition": (FsmDefinition("f", frozenset({"a"}), "a", ()), "initial"),
    "RestartPolicy": (RestartPolicy(1), "limit"),
    "GroupPolicy": (GroupPolicy("ai-unit"), "binding_label"),
    "AlgorithmDescriptor": (AlgorithmDescriptor("a", "1.0.0", "m:f"), "version"),
    "NodeResult": (NodeResult({}), "elapsed_ms"),
    "RunResult": (RunResult({}, []), "fault"),
    "BenchRow": (BenchRow("zero_copy", 1, 1.0, 1.0, 1), "size"),
    "AccSetup": (AccSetup(SCENARIO, AccConfig()), "config"),
    "VehicleState": (VEHICLE, "speed"),
    "AccConfig": (AccConfig(), "kp"),
    "Scenario": (SCENARIO, "dt"),
    "TrajectoryPoint": (TrajectoryPoint(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0), "gap"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_value_is_a_named_tuple_whose_fields_cannot_be_assigned(name):
    value, field = VALUES[name]
    assert type(value).__name__ == name and isinstance(value, tuple)
    assert value == tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


# the message each check raised from ``__post_init__``, now raised from
# ``__new__``; test_envmodel's query cases cover OddQuery's checks
REFUSED = [
    (lambda: TopicDescriptor("Bad Name", 1), MiddlewareError,
     "bad topic name 'Bad Name' (want [a-z0-9_/]+)"),
    (lambda: TopicDescriptor(name="a", type_hash=2**64), MiddlewareError,
     f"type_hash out of u64 range: {2**64}"),
    (lambda: TopicDescriptor("a", -1, QOS), MiddlewareError, "type_hash out of u64 range: -1"),
    (lambda: ServiceDescriptor(""), MiddlewareError, "service_name must be non-empty"),
    (lambda: History(0), QoSError, "keep_last depth must be >= 1, got 0"),
    (lambda: History.keep_last(-2), QoSError, "keep_last depth must be >= 1, got -2"),
    (lambda: QoSProfile(deadline_ms=0), QoSError, "deadline_ms must be positive, got 0"),
    (lambda: QoSProfile(QOS.reliability, QOS.history, QOS.durability, -5), QoSError,
     "deadline_ms must be positive, got -5"),
    (lambda: AlgorithmDescriptor("a", "1.0", "m:f"), GraphError,
     "version must be semver (x.y.z), got '1.0'"),
    (lambda: FsmDefinition("f", frozenset(), "a", ()), UnknownStateRef, "fsm 'f' has no states"),
    (lambda: FsmDefinition("f", frozenset({"a"}), initial="b", transitions=()), UnknownStateRef,
     "fsm 'f': initial state 'b' not in states"),
    (lambda: FsmDefinition("f", frozenset({"a"}), "a", (Transition("z", "e", "a"),)),
     UnknownStateRef, "fsm 'f': transition source 'z' not in states"),
    (lambda: VehicleState(speed=-1.0), AccError, "vehicle speed must be non-negative, not -1.0"),
    (lambda: AccConfig(standstill_gap=0.0), AccError, "standstill_gap must be positive"),
    (lambda: AccConfig(accel_max=-1.0), AccError, "need accel_min < 0 < accel_max"),
    (lambda: Scenario(VEHICLE, VEHICLE, ((0.0, 10.0),)), AccError,
     "lead must start ahead of ego"),
    (lambda: Scenario(VEHICLE, VehicleState(30.0), ((0.0, -1.0),)), AccError,
     "lead speeds must be non-negative"),
]


@pytest.mark.parametrize("build, error, message", REFUSED, ids=[m for _, _, m in REFUSED])
def test_a_constructor_refuses_what_its_checks_refuse(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_actions_of_one_shape_and_different_kinds_differ():
    assert StartGroup("g") != StopGroup("g")
    assert StartGroup("g") != ("g",)
    assert EmitEvent("f", "e") != ("f", "e")
    assert StartGroup("g") == StartGroup("g")
