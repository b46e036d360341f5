"""Task-graph domain types and errors."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

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


class StaticKeyWhileRunning(GraphError):
    def __init__(self, key: str):
        super().__init__(f"config key {key!r} is static and the graph is running")
        self.key = key


class UnknownConfigKey(GraphError):
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


@dataclass(frozen=True)
class RestartPolicy:
    limit: int  # restarts allowed before a failure becomes permanent

    @classmethod
    def never(cls) -> "RestartPolicy":
        return cls(0)

    @classmethod
    def up_to(cls, n: int) -> "RestartPolicy":
        if n < 0:
            raise GraphError("restart limit must be >= 0")
        return cls(n)


@dataclass
class GroupPolicy:
    binding_label: str | None = None
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy.never)


_SEMVER_RE = re.compile(r"^\d+\.\d+\.\d+$")


@dataclass(frozen=True)
class AlgorithmDescriptor:
    name: str
    version: str
    entry: str  # loader identifier, "module:attribute" form
    required_inputs: tuple[str, ...] = ()
    required_outputs: tuple[str, ...] = ()
    binding_requirement: str | None = None

    def __post_init__(self):
        if not _SEMVER_RE.match(self.version):
            raise GraphError(f"version must be semver (x.y.z), got {self.version!r}")


@dataclass
class TaskNode:
    node_id: str
    stage: Stage
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    group_id: str = "default"
    algorithm: tuple[str, str] | None = None  # (name, version) in the registry
    body: object = None  # step callable; resolved from the registry when None
    config: dict = field(default_factory=dict)
    config_modes: dict = field(default_factory=dict)  # key -> "static"|"dynamic"
    watchdog_ms: float = 1000.0

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        if self.watchdog_ms <= 0:
            raise GraphError(f"watchdog_ms must be positive, got {self.watchdog_ms}")
        for key, mode in self.config_modes.items():
            if mode not in ("static", "dynamic"):
                raise GraphError(f"config mode for {key!r} must be static|dynamic")
            if key not in self.config:
                raise UnknownConfigKey(f"mode declared for unknown config key {key!r}")

    def mode_of(self, key: str) -> str:
        return self.config_modes.get(key, "static")


@dataclass
class NodeResult:
    """Body return value carrying outputs plus simulated execution time."""

    outputs: dict
    elapsed_ms: float = 0.0

