"""Data-flow task orchestration: grouping, binding, deterministic
scheduling rounds and lifecycle management.

A ``TaskGraph`` is built once from node declarations whose input ports
bind to topics; its wiring does not change after that. A node fires in a round only when every input port holds fresh
data; fired nodes execute in topological order (ties broken by node id)
and their outputs propagate within the same round. Firing consumes input
freshness. ``TaskGraph.step`` returns the values the round produced; the
graph keeps the rest of the round's record: per-node fired counts and
largest simulated cost, per-topic produced counts, and the lifecycle
``trace``. Failures (body faults, watchdog overruns or undeclared outputs)
move a node to FAILED, logged in the trace with their reason, and the group
restart policy decides whether it comes back.
"""

from dfp.funcsw.types import (
    AlgorithmDescriptor,
    AlgorithmNotFound,
    BindingConflict,
    CycleDetected,
    DuplicateAlgorithm,
    DuplicateNodeId,
    GraphError,
    GroupPolicy,
    Lifecycle,
    NodeResult,
    PortSchemaMismatch,
    RestartPolicy,
    Stage,
    StageOrderViolation,
    TaskNode,
    UnknownGroup,
    UnknownNode,
    UnresolvedInput,
)
from dfp.funcsw.registry import AlgorithmRegistry
from dfp.funcsw.graph import TaskGraph

__all__ = [
    "AlgorithmDescriptor",
    "AlgorithmNotFound",
    "AlgorithmRegistry",
    "BindingConflict",
    "CycleDetected",
    "DuplicateAlgorithm",
    "DuplicateNodeId",
    "GraphError",
    "GroupPolicy",
    "Lifecycle",
    "NodeResult",
    "PortSchemaMismatch",
    "RestartPolicy",
    "Stage",
    "StageOrderViolation",
    "TaskGraph",
    "TaskNode",
    "UnknownGroup",
    "UnknownNode",
    "UnresolvedInput",
]
