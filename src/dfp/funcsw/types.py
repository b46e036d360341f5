"""Task-graph domain types and errors."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from dfp import DfpError


class GraphError(DfpError):
    pass


class DuplicateNodeId(GraphError):
    pass


class UnresolvedInput(GraphError):
    pass


class StageOrderViolation(GraphError):
    pass


class CycleDetected(GraphError):
    def __init__(self, cycle: list[str]):
        super().__init__(f"cycle detected: {' -> '.join(cycle)}")
        self.cycle = sorted(set(cycle))


class UnknownGroup(GraphError):
    pass


class UnknownNode(GraphError):
    pass


class BindingConflict(GraphError):
    pass


class DuplicateAlgorithm(GraphError):
    pass


class AlgorithmNotFound(GraphError):
    pass


class PortSchemaMismatch(GraphError):
    pass


class Stage(enum.IntEnum):
    ACQUISITION = 0
    ABSTRACTION = 1
    PRE_PROCESSING = 2
    SERVICE = 3


class Lifecycle(enum.Enum):
    CREATED = "created"
    CONFIGURED = "configured"
    RUNNING = "running"
    FAILED = "failed"
    STOPPED = "stopped"


LEGAL_TRANSITIONS = {
    (Lifecycle.CREATED, Lifecycle.CONFIGURED),
    (Lifecycle.CONFIGURED, Lifecycle.RUNNING),
    (Lifecycle.RUNNING, Lifecycle.FAILED),
    (Lifecycle.RUNNING, Lifecycle.STOPPED),
    (Lifecycle.FAILED, Lifecycle.RUNNING),
    (Lifecycle.FAILED, Lifecycle.STOPPED),
}


class RestartPolicy(NamedTuple):
    limit: int  # restarts allowed before a failure becomes permanent

    @classmethod
    def never(cls) -> "RestartPolicy":
        return cls(0)

    @classmethod
    def up_to(cls, n: int) -> "RestartPolicy":
        if n < 0:
            raise GraphError("restart limit must be >= 0")
        return cls(n)


# fixed when the graph is built: every algorithm in the group requires no
# label or binding_label, and a null or empty binding_label binds nothing
class GroupPolicy(NamedTuple):
    binding_label: str | None = None
    restart_policy: RestartPolicy = RestartPolicy(0)


_SEMVER_RE = re.compile(r"^\d+\.\d+\.\d+$")


class _AlgorithmFields(NamedTuple):
    name: str
    version: str
    entry: str  # loader identifier, "module:attribute" form
    required_inputs: tuple[str, ...] = ()
    required_outputs: tuple[str, ...] = ()
    binding_requirement: str | None = None


class AlgorithmDescriptor(_AlgorithmFields):
    """A named tuple; constructing one raises ``GraphError`` for a version that
    is not semver or an entry that is not of the ``module:attribute`` form."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _SEMVER_RE.match(self.version):
            raise GraphError(f"version must be semver (x.y.z), got {self.version!r}")
        module_name, sep, attr = self.entry.partition(":")
        if not sep or not module_name or not attr:
            raise GraphError(f"entry must look like 'module:attribute', got {self.entry!r}")
        return self


@dataclass  # not a named tuple: the graph binds a node's body after construction
class TaskNode:
    node_id: str
    stage: Stage
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    group_id: str = "default"
    algorithm: tuple[str, str] | None = None  # (name, version) in the registry
    body: object = None  # step callable; resolved from the registry when None
    config: dict = field(default_factory=dict)
    watchdog_ms: float = 1000.0

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        if self.watchdog_ms <= 0:
            raise GraphError(f"watchdog_ms must be positive, got {self.watchdog_ms}")


class NodeResult(NamedTuple):
    """Body return value carrying outputs plus simulated execution time."""

    outputs: dict
    elapsed_ms: float = 0.0

