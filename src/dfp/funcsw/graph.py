"""Graph construction, validation and the deterministic firing engine.

A round runs a plan compiled at wiring time: per node, in topological
order, its held input values, its declared outputs and, per output, the
consumers it feeds. A node's freshness is a bitmask, one bit per input
port, and the node fires when it equals the node's ``need`` mask (every
port's bit while RUNNING, -1 otherwise): one comparison per node. A firing
body gets a copy of the node's held values as its ``inputs``. The wiring is
fixed once the graph is built; a round only walks the plan.

A group's ``GroupPolicy`` is fixed too. One check binds a node's algorithm
to its group wherever the node gets one, at construction and in
``swap_algorithm``: an algorithm's ``binding_requirement`` is None or the
group's ``binding_label``, and a null or empty label binds nothing. A swap
that any check or the algorithm's builder refuses changes nothing.

The graph keeps the one record of what a round did. As a round fires a
node it adds to the node's fired count and keeps the largest simulated
``elapsed_ms`` the node has reported, and it counts each topic a fired node
produces. These counts live for the graph's lifetime; the run report
reads them (``fired_count_of``, ``max_elapsed_ms_of``,
``restart_count_of``, ``produced_count_of``). A failure is logged once, in
``trace``, with its node, full reason and round. ``step`` returns only
the values the round produced.
"""

from __future__ import annotations

import heapq

from dfp.funcsw.types import (
    BindingConflict,
    CycleDetected,
    DuplicateNodeId,
    GraphError,
    GroupPolicy,
    Lifecycle,
    LEGAL_TRANSITIONS,
    NodeResult,
    PortSchemaMismatch,
    StageOrderViolation,
    TaskNode,
    UnknownGroup,
    UnknownNode,
    UnresolvedInput,
)


class _NodeState:
    __slots__ = ("lifecycle", "restart_count", "held", "fresh", "full", "need",
                 "fired", "max_elapsed_ms")

    def __init__(self, node: TaskNode):
        self.lifecycle = Lifecycle.CREATED
        self.restart_count = 0
        self.fired = 0
        self.max_elapsed_ms = 0.0  # the largest simulated cost of a firing
        self.held = dict.fromkeys(node.inputs)  # port -> its last value, in port order
        self.fresh = 0  # bit i set: port i holds data no firing has consumed
        self.full = (1 << len(self.held)) - 1  # every port's bit
        self.need = -1  # the fresh mask the node fires at: full while RUNNING, else none


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
        for node in self.nodes.values():
            if node.group_id not in self.groups:
                raise UnknownGroup(
                    f"node {node.node_id!r} names unknown group {node.group_id!r}")
            self._resolve_body(node)
        self._validate_wiring()
        self._state = {nid: _NodeState(node) for nid, node in self.nodes.items()}
        self._produced_counts = {topic: 0 for node in self.nodes.values()
                                 for topic in node.outputs}
        self._compile()
        self.started = False
        self._round = 0
        self.trace: list[dict] = []  # lifecycle transition log

    # -- construction helpers -------------------------------------------------

    def _resolve_body(self, node: TaskNode) -> None:
        if node.algorithm is not None:
            if self.registry is None:
                raise GraphError(
                    f"node {node.node_id!r} names an algorithm but no registry given")
            descriptor, factory = self.registry.resolve(*node.algorithm)
            self._check_ports(node, descriptor)
            self._check_binding(node, descriptor)
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

    def _check_binding(self, node: TaskNode, descriptor) -> None:
        """The binding rule: a node's algorithm requires no label or its group's."""
        label = self.groups[node.group_id].binding_label
        need = descriptor.binding_requirement
        if label and need is not None and need != label:
            raise BindingConflict(
                f"node {node.node_id!r} requires label {need!r}, group bound to {label!r}")

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
                            f"input {topic!r} of node {node.node_id!r}: nothing feeds it")
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

    def _compile(self) -> None:
        """Compile the firing plan over the nodes' states.

        Ports have rate 1 and the wiring is fixed, so the round's schedule
        is computed once here, as in static scheduling of synchronous data
        flow. A plan entry is ``(node, state, held values, declared
        outputs, {output: its consumers})``. A consumer is ``(state, held
        values, port bit)``; port ``i`` of a node has bit ``1 << i``. A node
        fires when its ``fresh`` mask equals its ``need`` mask, which
        ``_transition`` keeps at every port's bit while the node is RUNNING
        and at -1, which no mask equals, otherwise. Bodies are read when a
        node fires, so ``swap_algorithm`` needs no new plan.
        """
        # every consumed topic, so a caller may feed a produced topic too
        self._consumers = {
            topic: tuple((self._state[nid], self._state[nid].held,
                          1 << list(self._state[nid].held).index(topic)) for nid in nids)
            for topic, nids in self.consumers.items()}
        plan = []
        for nid in self.topo_order:
            node, state = self.nodes[nid], self._state[nid]
            routes = {topic: self._consumers.get(topic, ()) for topic in node.outputs}
            plan.append((node, state, state.held, frozenset(node.outputs), routes))
        self._plan = tuple(plan)

    # -- lifecycle --------------------------------------------------------------

    def _transition(self, node_id: str, to: Lifecycle, reason: str) -> None:
        state = self._state[node_id]
        frm = state.lifecycle
        if (frm, to) not in LEGAL_TRANSITIONS:
            raise GraphError(f"illegal lifecycle transition {frm.value} -> {to.value} "
                             f"for node {node_id!r}")
        state.lifecycle = to
        state.need = state.full if to is Lifecycle.RUNNING else -1
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
            state.fresh = 0  # a restarted node never replays a half round
            self._transition(node_id, Lifecycle.RUNNING,
                             f"restart {state.restart_count}/{policy.limit}")
        return state.lifecycle

    # -- algorithm swap -----------------------------------------------------------

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
        self._check_binding(node, descriptor)
        body = factory(node)  # a swap that raises changes nothing
        node.algorithm, node.body = (name, version), body

    # -- the firing engine --------------------------------------------------------

    def step(self, external_inputs: dict | None = None) -> dict:
        """Run one deterministic scheduling round; return ``{topic: value}``
        for every topic a node produced in it.

        A node fires iff it is RUNNING and every input port holds fresh
        data; firing consumes that freshness. Its body gets a dict of its
        own: keeping or changing it changes nothing the node sees later.
        Fired nodes execute in topological order and their outputs
        propagate within the round. Non-firing is not an error. A body
        returns a dict of outputs, a ``NodeResult``, or None for nothing;
        anything else, like a raised exception, a watchdog overrun or an
        undeclared output, fails the node. The round counts as it goes:
        each fired node's firings and largest simulated ``elapsed_ms``, and
        each produced topic's rounds. A failed node's ``trace`` entry, with
        ``to == "failed"``, holds the reason.
        """
        if not self.started:
            raise GraphError("step() before start()")
        if external_inputs:
            consumers = self._consumers
            for topic, value in external_inputs.items():
                for state, held, bit in consumers.get(topic, ()):
                    held[topic] = value
                    state.fresh |= bit
        produced = {}
        counts = self._produced_counts
        for node, state, held, declared, routes in self._plan:
            if state.fresh != state.need:
                continue
            state.fresh = 0  # consume-on-fire
            try:
                outputs = node.body(held.copy(), node.config)
            except Exception as exc:
                self.on_node_failure(node.node_id, f"fault: {exc}")
                continue
            if type(outputs) is not dict or not declared.issuperset(outputs):
                outputs = self._settle(node, state, declared, outputs)
                if outputs is None:
                    continue
            state.fired += 1
            for topic, value in outputs.items():
                produced[topic] = value
                counts[topic] += 1
                for consumer, consumer_held, bit in routes[topic]:
                    consumer_held[topic] = value
                    consumer.fresh |= bit
        self._round += 1
        return produced

    def _settle(self, node: TaskNode, state: _NodeState, declared: frozenset, result):
        """The outputs of a body result that is not a dict of declared
        outputs, or None once the node has failed with it.

        None is no outputs. A ``NodeResult`` gives its outputs, and its
        ``elapsed_ms`` becomes the node's largest cost if the node fires
        with it. Any other result, a cost that is not a number or is over
        the watchdog, or an undeclared output fails the node.
        """
        if result is None:
            return {}  # the body produced nothing
        outputs, cost_ms = result if isinstance(result, NodeResult) else (result, 0.0)
        if not isinstance(cost_ms, (int, float)):
            reason = f"elapsed_ms must be a number, not {type(cost_ms).__name__}"
        elif cost_ms > node.watchdog_ms:
            reason = "watchdog"
        elif not isinstance(outputs, dict):
            reason = f"outputs must be a dict, not {type(outputs).__name__}"
        elif not declared.issuperset(outputs):
            reason = f"undeclared outputs {sorted(set(outputs) - declared)}"
        else:
            if cost_ms > state.max_elapsed_ms:
                state.max_elapsed_ms = cost_ms
            return outputs
        self.on_node_failure(node.node_id, reason)
        return None
