"""Graph construction, validation and the deterministic firing engine.

A round runs a plan compiled at wiring time: per node, in topological
order, its input cells, its declared outputs and its consumers' cells.
``add_node`` and ``remove_node`` rebuild it; a round only walks it.

The graph counts where things happen: as a round fires a node it adds to
the node's fired count and keeps the largest simulated ``elapsed_ms`` the
node has reported, and it counts each topic a fired node produces. These
counts live for the graph's lifetime and survive rebuilds; the run report
reads them (``fired_count_of``, ``max_elapsed_ms_of``, ``restart_count_of``,
``produced_count_of``) instead of recounting the firing reports.
"""

from __future__ import annotations

import heapq

from dfp.funcsw.types import (
    BindingConflict,
    CycleDetected,
    DuplicateNodeId,
    FiringReport,
    GraphError,
    GroupPolicy,
    Lifecycle,
    LEGAL_TRANSITIONS,
    NodeResult,
    PortSchemaMismatch,
    Stage,
    StageOrderViolation,
    StaticKeyWhileRunning,
    TaskNode,
    UnknownConfigKey,
    UnknownGroup,
    UnknownNode,
    UnresolvedInput,
)


class _NodeState:
    __slots__ = ("lifecycle", "restart_count", "ports", "fired", "max_elapsed_ms")

    def __init__(self, node: TaskNode):
        self.lifecycle = Lifecycle.CREATED
        self.restart_count = 0
        self.fired = 0
        self.max_elapsed_ms = 0.0  # the largest simulated cost of a firing
        # port -> [value, fresh]
        self.ports = {topic: [None, False] for topic in node.inputs}


def _toposort(node_ids, edges) -> list[str]:
    """Kahn's algorithm; the ready frontier pops lexicographically."""
    indeg = {n: 0 for n in node_ids}
    down = {n: [] for n in node_ids}
    for src, dst in edges:
        indeg[dst] += 1
        down[src].append(dst)
    ready = [n for n in node_ids if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in down[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(indeg):
        remaining = {n for n in indeg if n not in set(order)}
        raise CycleDetected(_find_cycle(remaining, down))
    return order


def _find_cycle(remaining, down) -> list[str]:
    start = sorted(remaining)[0]
    path, seen = [], {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = sorted(m for m in down[node] if m in remaining)[0]
    return path[seen[node]:] + [node]


class TaskGraph:
    """Node declarations, validated, with their edges and firing order.

    ``external_topics`` optionally closes the input namespace: inputs that
    no node produces must then appear in it. When omitted, unproduced
    inputs are implicitly external.
    """

    def __init__(self, nodes, groups, registry=None, external_topics=None):
        if not nodes:
            raise GraphError("node list must be non-empty")
        self.nodes: dict[str, TaskNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise DuplicateNodeId(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        self.groups: dict[str, GroupPolicy] = dict(groups)
        self.registry = registry
        self.external_topics = None if external_topics is None else set(external_topics)
        self._descriptors = {}
        for node in self.nodes.values():
            if node.group_id not in self.groups:
                raise UnknownGroup(
                    f"node {node.node_id!r} names unknown group {node.group_id!r}")
            self._resolve_body(node)
        self._state: dict[str, _NodeState] = {}
        self._produced_counts: dict[str, int] = {}
        self._validate_wiring()
        self.started = False
        self._round = 0
        self._in_round = False
        self.trace: list[dict] = []  # lifecycle transition log

    # -- construction helpers -------------------------------------------------

    def _resolve_body(self, node: TaskNode) -> None:
        if node.algorithm is not None:
            if self.registry is None:
                raise GraphError(
                    f"node {node.node_id!r} names an algorithm but no registry given")
            descriptor, factory = self.registry.resolve(*node.algorithm)
            self._check_ports(node, descriptor)
            self._descriptors[node.node_id] = descriptor
            node.body = factory(node)
        elif node.body is None:
            raise GraphError(f"node {node.node_id!r} has neither body nor algorithm")

    @staticmethod
    def _check_ports(node: TaskNode, descriptor) -> None:
        if len(node.inputs) != len(descriptor.required_inputs):
            raise PortSchemaMismatch(
                f"node {node.node_id!r} wires {len(node.inputs)} inputs, "
                f"algorithm {descriptor.name!r} requires {len(descriptor.required_inputs)}")
        if len(node.outputs) != len(descriptor.required_outputs):
            raise PortSchemaMismatch(
                f"node {node.node_id!r} wires {len(node.outputs)} outputs, "
                f"algorithm {descriptor.name!r} requires {len(descriptor.required_outputs)}")

    def _validate_wiring(self) -> None:
        producers: dict[str, str] = {}
        for node in self.nodes.values():
            for topic in node.outputs:
                if topic in producers:
                    raise UnresolvedInput(
                        f"topic {topic!r} is produced by both {producers[topic]!r} "
                        f"and {node.node_id!r}")
                producers[topic] = node.node_id
        edges = set()
        consumers: dict[str, list] = {}
        for node in self.nodes.values():
            for topic in node.inputs:
                consumers.setdefault(topic, []).append(node.node_id)
                src = producers.get(topic)
                if src is None:
                    if self.external_topics is not None and topic not in self.external_topics:
                        raise UnresolvedInput(
                            f"input {topic!r} of node {node.node_id!r} has no producer "
                            f"and is not a declared external topic")
                    continue
                src_node = self.nodes[src]
                if src_node.stage > node.stage:
                    raise StageOrderViolation(
                        f"edge {src!r} ({src_node.stage.name}) -> {node.node_id!r} "
                        f"({node.stage.name}) runs against the stage order")
                edges.add((src, node.node_id))
        self.consumers = consumers
        self.edges = edges
        self.topo_order = _toposort(list(self.nodes), edges)
        self._compile()

    def _compile(self) -> None:
        """Give every node a state and compile the firing plan.

        Ports have rate 1 and the topological order is fixed, so the
        round's schedule is computed once here, as in static scheduling of
        synchronous data flow, and rebuilt only when the wiring changes.
        A plan entry is ``(node id, node, state, (topic, cell) input pairs,
        declared outputs, {output: consumers' cells})``; a cell is a port's
        ``[value, fresh]`` list. Bodies are read when a node fires, so
        ``swap_algorithm`` needs no rebuild.
        """
        # a node keeps its state, and so its port cells and counters, across
        # rebuilds; so does a produced topic its count
        self._state = {nid: self._state.get(nid) or _NodeState(node)
                       for nid, node in self.nodes.items()}
        self._produced_counts = {topic: self._produced_counts.get(topic, 0)
                                 for node in self.nodes.values() for topic in node.outputs}
        # every consumed topic, so a caller may feed a produced topic too
        self._cells = {topic: tuple(self._state[nid].ports[topic] for nid in nids)
                       for topic, nids in self.consumers.items()}
        plan = []
        for nid in self.topo_order:
            node, state = self.nodes[nid], self._state[nid]
            routes = {topic: self._cells.get(topic, ()) for topic in node.outputs}
            plan.append((nid, node, state, tuple(state.ports.items()),
                         frozenset(node.outputs), routes))
        self._plan = tuple(plan)

    # -- lifecycle --------------------------------------------------------------

    def _transition(self, node_id: str, to: Lifecycle, reason: str) -> None:
        state = self._state[node_id]
        frm = state.lifecycle
        if (frm, to) not in LEGAL_TRANSITIONS:
            raise GraphError(f"illegal lifecycle transition {frm.value} -> {to.value} "
                             f"for node {node_id!r}")
        state.lifecycle = to
        self.trace.append({"node": node_id, "from": frm.value, "to": to.value,
                           "reason": reason, "round": self._round})

    def lifecycle_of(self, node_id: str) -> Lifecycle:
        if node_id not in self._state:
            raise UnknownNode(f"no node {node_id!r}")
        return self._state[node_id].lifecycle

    def restart_count_of(self, node_id: str) -> int:
        return self._state[node_id].restart_count

    def fired_count_of(self, node_id: str) -> int:
        return self._state[node_id].fired

    def max_elapsed_ms_of(self, node_id: str) -> float:
        """The largest simulated ``elapsed_ms`` of the node's firings, 0.0 if none."""
        return self._state[node_id].max_elapsed_ms

    def produced_count_of(self, topic: str) -> int:
        """Rounds in which a node produced ``topic``; 0 for a topic no node produces."""
        return self._produced_counts.get(topic, 0)

    def configure_all(self) -> None:
        for nid, st in self._state.items():
            if st.lifecycle == Lifecycle.CREATED:
                self._transition(nid, Lifecycle.CONFIGURED, "configure")

    def start(self, groups=None) -> None:
        """Mark the graph started and run the named groups (default: all)."""
        self.configure_all()
        self.started = True
        for gid in (self.groups if groups is None else groups):
            self.start_group(gid)

    def start_group(self, group_id: str) -> None:
        if group_id not in self.groups:
            raise UnknownGroup(f"no group {group_id!r}")
        for nid, node in self.nodes.items():
            if node.group_id == group_id:
                if self._state[nid].lifecycle == Lifecycle.CONFIGURED:
                    self._transition(nid, Lifecycle.RUNNING, "start_group")

    def stop_group(self, group_id: str) -> None:
        if group_id not in self.groups:
            raise UnknownGroup(f"no group {group_id!r}")
        for nid, node in self.nodes.items():
            if node.group_id == group_id:
                if self._state[nid].lifecycle in (Lifecycle.RUNNING, Lifecycle.FAILED):
                    self._transition(nid, Lifecycle.STOPPED, "stop_group")

    def on_node_failure(self, node_id: str, reason: str = "fault") -> Lifecycle:
        """Apply the failure path: FAIL, then restart if the policy allows."""
        if node_id not in self.nodes:
            raise UnknownNode(f"no node {node_id!r}")
        state = self._state[node_id]
        self._transition(node_id, Lifecycle.FAILED, reason)
        policy = self.groups[self.nodes[node_id].group_id].restart_policy
        if state.restart_count < policy.limit:
            state.restart_count += 1
            for port in state.ports.values():
                port[1] = False  # a restarted node never replays a half round
            self._transition(node_id, Lifecycle.RUNNING,
                             f"restart {state.restart_count}/{policy.limit}")
        return state.lifecycle

    # -- binding and configuration ------------------------------------------------

    def bind(self, group_id: str, compute_label: str) -> None:
        """Pin a group to a compute unit label; static once started."""
        if group_id not in self.groups:
            raise UnknownGroup(f"no group {group_id!r}")
        if self.started:
            raise BindingConflict("binding is static: the graph has started")
        for nid, node in self.nodes.items():
            if node.group_id != group_id:
                continue
            descriptor = self._descriptors.get(nid)
            need = descriptor.binding_requirement if descriptor else None
            if need is not None and need != compute_label:
                raise BindingConflict(
                    f"node {nid!r} requires label {need!r}, group bound to "
                    f"{compute_label!r}")
        self.groups[group_id].binding_label = compute_label

    def binding_of(self, node_id: str) -> str | None:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no node {node_id!r}")
        return self.groups[node.group_id].binding_label

    def configure(self, node_id: str, patch: dict) -> None:
        """Patch node config; static keys are sealed once the graph starts."""
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no node {node_id!r}")
        for key in patch:
            if key not in node.config:
                raise UnknownConfigKey(
                    f"node {node_id!r} has no config key {key!r}")
            if self.started and node.mode_of(key) == "static":
                raise StaticKeyWhileRunning(key)
        node.config.update(patch)

    def swap_algorithm(self, node_id: str, version: str) -> None:
        """Swap a node to another registered version with compatible ports."""
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no node {node_id!r}")
        if node.algorithm is None:
            raise GraphError(f"node {node_id!r} has a direct body, nothing to swap")
        name = node.algorithm[0]
        descriptor, factory = self.registry.resolve(name, version)
        self._check_ports(node, descriptor)
        node.algorithm = (name, version)
        self._descriptors[node_id] = descriptor
        node.body = factory(node)

    # -- dynamic service nodes -------------------------------------------------

    def add_node(self, node: TaskNode) -> None:
        """Add a SERVICE-stage node between rounds and revalidate the graph."""
        if self._in_round:
            raise GraphError("cannot mutate the graph during a round")
        if node.stage != Stage.SERVICE:
            raise GraphError("only service-stage nodes may be added dynamically")
        if node.node_id in self.nodes:
            raise DuplicateNodeId(f"duplicate node id {node.node_id!r}")
        if node.group_id not in self.groups:
            raise UnknownGroup(f"node {node.node_id!r} names unknown group "
                               f"{node.group_id!r}")
        self._resolve_body(node)
        self.nodes[node.node_id] = node
        try:
            self._validate_wiring()
        except GraphError:
            del self.nodes[node.node_id]
            self._validate_wiring()
            raise
        if self.started:
            self._transition(node.node_id, Lifecycle.CONFIGURED, "configure")
            self._transition(node.node_id, Lifecycle.RUNNING, "start_group")

    def remove_node(self, node_id: str) -> None:
        if self._in_round:
            raise GraphError("cannot mutate the graph during a round")
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no node {node_id!r}")
        if node.stage != Stage.SERVICE:
            raise GraphError("only service-stage nodes may be removed dynamically")
        del self.nodes[node_id]
        self._validate_wiring()

    # -- the firing engine --------------------------------------------------------

    def step(self, external_inputs: dict | None = None) -> FiringReport:
        """Run one deterministic scheduling round.

        A node fires iff it is RUNNING and every input port holds fresh
        data. Fired nodes execute in topological order and their outputs
        propagate within the round. Non-firing is not an error. The round
        counts as it goes: each fired node's firings and largest simulated
        ``elapsed_ms``, and each produced topic's rounds.
        """
        if not self.started:
            raise GraphError("step() before start()")
        self._in_round = True
        try:
            return self._run_round(external_inputs or {})
        finally:
            self._in_round = False

    def _run_round(self, external_inputs: dict) -> FiringReport:
        cells = self._cells
        for topic, value in external_inputs.items():
            for cell in cells.get(topic, ()):
                cell[0] = value
                cell[1] = True
        fired, elapsed, produced, failures = [], {}, {}, []
        counts = self._produced_counts
        running = Lifecycle.RUNNING
        for nid, node, state, ports, declared, routes in self._plan:
            if state.lifecycle is not running:
                continue
            inputs = {}
            for topic, cell in ports:
                if not cell[1]:
                    break
                inputs[topic] = cell[0]
            if len(inputs) != len(ports):
                continue
            for _, cell in ports:
                cell[1] = False  # consume-on-fire
            try:
                result = node.body(inputs, node.config)
            except Exception as exc:
                failures.append({"node": nid, "reason": f"fault: {exc}"})
                self.on_node_failure(nid, f"fault: {exc}")
                continue
            if isinstance(result, NodeResult):
                outputs, cost_ms = result.outputs, result.elapsed_ms
            else:
                outputs, cost_ms = (result or {}), 0.0
            if cost_ms > node.watchdog_ms:
                failures.append({"node": nid, "reason": "watchdog"})
                self.on_node_failure(nid, "watchdog")
                continue
            if not declared.issuperset(outputs):
                undeclared = set(outputs) - declared
                failures.append({"node": nid,
                                 "reason": f"undeclared outputs {sorted(undeclared)}"})
                self.on_node_failure(nid, "undeclared output")
                continue
            fired.append(nid)
            elapsed[nid] = cost_ms
            state.fired += 1
            if cost_ms > state.max_elapsed_ms:
                state.max_elapsed_ms = cost_ms
            for topic, value in outputs.items():
                produced[topic] = value
                counts[topic] += 1
                for cell in routes[topic]:
                    cell[0] = value
                    cell[1] = True
        report = FiringReport(self._round, fired, elapsed, produced, failures)
        self._round += 1
        return report
