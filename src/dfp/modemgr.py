"""Coordinated finite state machines for system mode management.

Several FSMs load into one coordinator. A transition may carry a guard
(a conjunction over other machines' current states) and actions: start or
stop a task group, or emit an event to another machine. Emitted events go
through a FIFO queue processed to quiescence, with a hard depth limit so
mutually-exciting machines terminate with a fault instead of spinning.

Among transitions enabled for (state, event), declaration order is the
priority: the first one whose guard holds fires. Events that match no
transition are ignored and recorded in the trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from dfp import DfpError, RuntimeFault

CASCADE_LIMIT = 1000


class ModeManagerError(DfpError):
    pass


class DuplicateFsmId(ModeManagerError):
    pass


class UnknownStateRef(ModeManagerError):
    pass


class UnknownFsmRef(ModeManagerError):
    pass


class UnknownGroupRef(ModeManagerError):
    pass


class UnknownEventRef(ModeManagerError):
    pass


class UnknownFsm(ModeManagerError):
    pass


class CascadeOverflow(ModeManagerError, RuntimeFault):
    def __init__(self, depth: int):
        super().__init__(f"event cascade exceeded {depth} chained dispatches")
        self.depth = depth


# The three actions stay dataclasses: as tuples, StartGroup("g") would
# equal StopGroup("g"), and an action would equal a plain tuple of its fields.
@dataclass(frozen=True)
class StartGroup:
    group_id: str

    def to_json_obj(self):
        return {"start_group": self.group_id}


@dataclass(frozen=True)
class StopGroup:
    group_id: str

    def to_json_obj(self):
        return {"stop_group": self.group_id}


@dataclass(frozen=True)
class EmitEvent:
    target_fsm: str
    event: str

    def to_json_obj(self):
        return {"emit": [self.target_fsm, self.event]}


class Guard(NamedTuple):
    """Conjunction of (fsm_id, expected_state) literals."""

    literals: tuple

    def holds(self, snapshot: dict) -> bool:
        return all(snapshot.get(fsm) == state for fsm, state in self.literals)


class Transition(NamedTuple):
    source: str
    event: str
    target: str
    guard: Guard | None = None
    actions: tuple = ()


class _FsmFields(NamedTuple):
    fsm_id: str
    states: frozenset
    initial: str
    transitions: tuple


class FsmDefinition(_FsmFields):
    """A named tuple; constructing one raises ``UnknownStateRef`` for no
    states, or for an initial state or a transition end outside them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.states:
            raise UnknownStateRef(f"fsm {self.fsm_id!r} has no states")
        if self.initial not in self.states:
            raise UnknownStateRef(
                f"fsm {self.fsm_id!r}: initial state {self.initial!r} not in states")
        for t in self.transitions:
            for s, what in ((t.source, "source"), (t.target, "target")):
                if s not in self.states:
                    raise UnknownStateRef(
                        f"fsm {self.fsm_id!r}: transition {what} {s!r} not in states")
        return self


class Coordinator:
    def __init__(self, groups=None, group_controller=None):
        """``groups`` names the startable/stoppable task groups; when a
        ``group_controller`` (anything with start_group/stop_group, such as
        a task graph) is attached, its groups are used and actions drive it.
        """
        self._controller = group_controller
        if groups is None and group_controller is not None:
            groups = set(group_controller.groups)
        self._groups = set(groups or ())
        self._defs: dict[str, FsmDefinition] = {}
        self._state: dict[str, str] = {}
        self.driven_groups: frozenset[str] = frozenset()  # groups an action starts or stops
        self.trace: list[dict] = []
        self._lock = threading.RLock()

    # -- loading -------------------------------------------------------------

    def load(self, definitions) -> dict:
        """Validate cross-references and enter every machine's initial state.

        A refused load changes nothing; a load adds the groups its actions
        start or stop to ``driven_groups``.
        """
        with self._lock:
            incoming = {}
            for d in definitions:
                if d.fsm_id in self._defs or d.fsm_id in incoming:
                    raise DuplicateFsmId(f"fsm {d.fsm_id!r} already loaded")
                incoming[d.fsm_id] = d
            known = set(self._defs) | set(incoming)
            driven = set()
            for d in incoming.values():
                for t in d.transitions:
                    self._check_guard(d, t, known, incoming)
                    self._check_actions(d, t, known, incoming, driven)
            self._defs.update(incoming)
            self.driven_groups |= driven
            for fid, d in incoming.items():
                self._state[fid] = d.initial
            return dict(self._state)

    def _check_guard(self, d, t, known, incoming) -> None:
        if t.guard is None:
            return
        for fsm_id, state in t.guard.literals:
            if fsm_id not in known:
                raise UnknownFsmRef(
                    f"fsm {d.fsm_id!r}: guard references unloaded fsm {fsm_id!r}")
            ref = incoming.get(fsm_id) or self._defs[fsm_id]
            if state not in ref.states:
                raise UnknownStateRef(
                    f"fsm {d.fsm_id!r}: guard expects {fsm_id!r} in unknown "
                    f"state {state!r}")

    def _check_actions(self, d, t, known, incoming, driven: set) -> None:
        for action in t.actions:
            if isinstance(action, (StartGroup, StopGroup)):
                if action.group_id not in self._groups:
                    raise UnknownGroupRef(
                        f"fsm {d.fsm_id!r}: action names unknown group "
                        f"{action.group_id!r}")
                driven.add(action.group_id)
            elif isinstance(action, EmitEvent):
                target = action.target_fsm
                if target not in known:
                    raise UnknownFsmRef(
                        f"fsm {d.fsm_id!r}: emit targets unloaded fsm {target!r}")
                ref = incoming.get(target) or self._defs[target]
                if all(rt.event != action.event for rt in ref.transitions):
                    raise UnknownEventRef(
                        f"fsm {d.fsm_id!r}: emit {[target, action.event]!r}: "
                        f"no transition of fsm {target!r} takes it")
            else:
                raise ModeManagerError(f"unknown action {action!r}")

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, fsm_id: str, event: str) -> tuple[dict, list]:
        """Process one external event to quiescence.

        Returns the post-quiescence snapshot and the actions emitted, in
        execution order.
        """
        with self._lock:
            if fsm_id not in self._defs:
                raise UnknownFsm(f"no fsm {fsm_id!r}")
            queue = [(fsm_id, event)]
            emitted: list = []
            steps = 0
            while queue:
                if steps >= CASCADE_LIMIT:
                    raise CascadeOverflow(CASCADE_LIMIT)
                steps += 1
                fid, ev = queue.pop(0)
                self._dispatch_one(fid, ev, emitted, queue)
            return dict(self._state), emitted

    def _dispatch_one(self, fid: str, ev: str, emitted: list, queue: list) -> None:
        d = self._defs[fid]
        current = self._state[fid]
        fired = None
        for t in d.transitions:
            if t.source != current or t.event != ev:
                continue
            if t.guard is not None and not t.guard.holds(self._state):
                continue
            fired = t
            break
        if fired is None:
            self.trace.append({"fsm": fid, "event": ev, "fired": False,
                               "state": current})
            return
        self._state[fid] = fired.target
        acted = []
        for action in fired.actions:
            emitted.append(action)
            acted.append(action.to_json_obj())
            if isinstance(action, StartGroup):
                if self._controller is not None:
                    self._controller.start_group(action.group_id)
            elif isinstance(action, StopGroup):
                if self._controller is not None:
                    self._controller.stop_group(action.group_id)
            elif isinstance(action, EmitEvent):
                queue.append((action.target_fsm, action.event))
        self.trace.append({"fsm": fid, "event": ev, "fired": True,
                           "from": current, "to": fired.target, "actions": acted})

    def snapshot(self) -> dict:
        """Consistent view: always pre- or post-dispatch, never mid-cascade."""
        with self._lock:
            return dict(self._state)

    def trace_jsonl(self) -> str:
        """Dispatch trace as JSON lines, one object per processed event."""
        import json

        with self._lock:
            return "\n".join(json.dumps(entry, sort_keys=True) for entry in self.trace)
