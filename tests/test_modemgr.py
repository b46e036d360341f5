"""FSM coordination: guards, priorities, cascades, linearizable snapshots."""

import random
import threading

import pytest

from dfp.modemgr import (
    CascadeOverflow,
    Coordinator,
    DuplicateFsmId,
    EmitEvent,
    FsmDefinition,
    Guard,
    StartGroup,
    StopGroup,
    Transition,
    UnknownEventRef,
    UnknownFsm,
    UnknownFsmRef,
    UnknownGroupRef,
    UnknownStateRef,
)

from oracles import FsmReference


def health_fsm():
    return FsmDefinition(
        "health", frozenset({"ok", "fault"}), "ok",
        (
            Transition("ok", "degrade", "fault"),
            Transition("fault", "recover", "ok"),
        ),
    )


def ads_fsm():
    return FsmDefinition(
        "ads", frozenset({"off", "standby", "active", "fallback"}), "off",
        (
            Transition("off", "driver_engage", "standby",
                       guard=Guard((("health", "ok"),)),
                       actions=(StartGroup("perception"),)),
            Transition("standby", "activate", "active",
                       guard=Guard((("health", "ok"),)),
                       actions=(StartGroup("control"),)),
            Transition("active", "fallback", "fallback",
                       actions=(StopGroup("control"),)),
            Transition("standby", "driver_disengage", "off"),
        ),
    )


class GroupRecorder:
    def __init__(self, groups):
        self.groups = set(groups)
        self.log = []

    def start_group(self, gid):
        self.log.append(("start", gid))

    def stop_group(self, gid):
        self.log.append(("stop", gid))


def coordinator():
    ctl = GroupRecorder({"perception", "control"})
    c = Coordinator(group_controller=ctl)
    c.load([health_fsm(), ads_fsm()])
    return c, ctl


# -- loading -----------------------------------------------------------------

def test_load_enters_initial_states():
    c, _ = coordinator()
    assert c.snapshot() == {"health": "ok", "ads": "off"}


def test_guard_referencing_unloaded_fsm_rejected():
    c = Coordinator(groups={"perception", "control"})
    with pytest.raises(UnknownFsmRef):
        c.load([ads_fsm()])  # guards need "health", which is absent


def test_duplicate_fsm_id_rejected():
    c = Coordinator(groups=set())
    with pytest.raises(DuplicateFsmId):
        c.load([health_fsm(), health_fsm()])


def test_unknown_state_refs_rejected():
    with pytest.raises(UnknownStateRef):
        FsmDefinition("x", frozenset({"a"}), "b", ())
    with pytest.raises(UnknownStateRef):
        FsmDefinition("x", frozenset({"a"}), "a",
                      (Transition("a", "e", "ghost"),))
    c = Coordinator(groups=set())
    bad_guard = FsmDefinition(
        "x", frozenset({"a"}), "a",
        (Transition("a", "e", "a", guard=Guard((("y", "ghost"),))),))
    with pytest.raises(UnknownStateRef):
        c.load([bad_guard,
                FsmDefinition("y", frozenset({"s"}), "s", ())])


def test_unknown_group_ref_rejected():
    c = Coordinator(groups={"perception"})
    with pytest.raises(UnknownGroupRef):
        c.load([FsmDefinition("x", frozenset({"a"}), "a",
                              (Transition("a", "e", "a",
                                          actions=(StartGroup("ghost"),)),))])


def test_emit_of_an_event_no_transition_takes_rejected():
    # a typo in an emitted event: the target ignored it at every dispatch
    emitter = FsmDefinition("x", frozenset({"a"}), "a",
                            (Transition("a", "e", "a", actions=(EmitEvent("y", "actvate"),)),))
    target = FsmDefinition("y", frozenset({"s"}), "s", (Transition("s", "activate", "s"),))
    c = Coordinator(groups=set())
    with pytest.raises(UnknownEventRef, match=r"emit \['y', 'actvate'\]: no transition of fsm 'y'"):
        c.load([emitter, target])
    assert c.snapshot() == {}  # nothing loaded
    # an event loaded earlier counts, and one of the emitter's own machine too
    c.load([target])
    c.load([FsmDefinition("z", frozenset({"a"}), "a",
                          (Transition("a", "e", "a", actions=(EmitEvent("y", "activate"),
                                                               EmitEvent("z", "e"))),))])
    assert c.snapshot() == {"y": "s", "z": "a"}


# -- dispatch ---------------------------------------------------------------

def test_guarded_engage_fires_and_starts_group():
    c, ctl = coordinator()
    snapshot, actions = c.dispatch("ads", "driver_engage")
    assert snapshot["ads"] == "standby"
    assert actions == [StartGroup("perception")]
    assert ctl.log == [("start", "perception")]


def test_guard_false_means_event_ignored():
    c, ctl = coordinator()
    c.dispatch("health", "degrade")
    snapshot, actions = c.dispatch("ads", "driver_engage")
    assert snapshot["ads"] == "off"
    assert actions == []
    assert ctl.log == []
    assert c.trace[-1]["fired"] is False


def test_unmatched_event_recorded_not_error():
    c, _ = coordinator()
    snapshot, actions = c.dispatch("ads", "no_such_event")
    assert snapshot["ads"] == "off"
    assert c.trace[-1] == {"fsm": "ads", "event": "no_such_event",
                           "fired": False, "state": "off"}


def test_dispatch_unknown_fsm():
    c, _ = coordinator()
    with pytest.raises(UnknownFsm):
        c.dispatch("ghost", "e")


def test_declaration_order_is_priority():
    fsm = FsmDefinition(
        "p", frozenset({"s", "t1", "t2"}), "s",
        (
            Transition("s", "go", "t1"),
            Transition("s", "go", "t2"),  # also enabled, declared later
        ),
    )
    c = Coordinator(groups=set())
    c.load([fsm])
    snapshot, _ = c.dispatch("p", "go")
    assert snapshot["p"] == "t1"


def test_guard_uses_snapshot_current_at_each_cascade_step():
    # machine a flips b, then a second emitted event sees b's new state
    a = FsmDefinition(
        "a", frozenset({"s0", "s1"}), "s0",
        (Transition("s0", "go", "s1",
                    actions=(EmitEvent("b", "flip"), EmitEvent("b", "probe"))),))
    b = FsmDefinition(
        "b", frozenset({"idle", "flipped", "probed"}), "idle",
        (
            Transition("idle", "flip", "flipped"),
            Transition("flipped", "probe", "probed",
                       guard=Guard((("a", "s1"),))),
        ),
    )
    c = Coordinator(groups=set())
    c.load([a, b])
    snapshot, _ = c.dispatch("a", "go")
    assert snapshot == {"a": "s1", "b": "probed"}


def test_ping_pong_pair_overflows_at_depth_1000():
    a = FsmDefinition("a", frozenset({"s"}), "s",
                      (Transition("s", "e", "s", actions=(EmitEvent("b", "e"),)),))
    b = FsmDefinition("b", frozenset({"s"}), "s",
                      (Transition("s", "e", "s", actions=(EmitEvent("a", "e"),)),))
    c = Coordinator(groups=set())
    c.load([a, b])
    with pytest.raises(CascadeOverflow) as err:
        c.dispatch("a", "e")
    assert err.value.depth == 1000


def test_trace_serializes_as_json_lines():
    import json

    c, _ = coordinator()
    c.dispatch("ads", "driver_engage")
    c.dispatch("ads", "bogus_event")
    lines = c.trace_jsonl().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["fired"] is True and parsed[1]["fired"] is False


def test_snapshot_is_linearizable_with_dispatch():
    # snapshots taken while dispatches run must always equal a quiescent
    # state: both machines flip together in one cascade, so any observed
    # snapshot must show them equal
    a = FsmDefinition(
        "a", frozenset({"x", "y"}), "x",
        (
            Transition("x", "go", "y", actions=(EmitEvent("b", "go"),)),
            Transition("y", "back", "x", actions=(EmitEvent("b", "back"),)),
        ),
    )
    b = FsmDefinition(
        "b", frozenset({"x", "y"}), "x",
        (Transition("x", "go", "y"), Transition("y", "back", "x")),
    )
    c = Coordinator(groups=set())
    c.load([a, b])
    stop = threading.Event()
    bad = []

    def reader():
        while not stop.is_set():
            snap = c.snapshot()
            if snap["a"] != snap["b"]:
                bad.append(snap)

    t = threading.Thread(target=reader)
    t.start()
    for _ in range(500):
        c.dispatch("a", "go")
        c.dispatch("a", "back")
    stop.set()
    t.join()
    assert bad == []


# -- reference interpreter equivalence ---------------------------------------

def random_fsm_pair(rng):
    ids = ["m0", "m1"]
    drafts = {}  # fid -> (states, [(src, event, dst, reference guard)])
    for fid in ids:
        other = ids[1 - ids.index(fid)]
        states = [f"s{k}" for k in range(rng.randint(2, 5))]
        rows = []
        for _ in range(rng.randint(1, 8)):
            src = rng.choice(states)
            dst = rng.choice(states)
            event = rng.choice(["e0", "e1", "e2"])
            ref_guard = None
            if rng.random() < 0.4:
                ref_guard = [(other, f"s{rng.randint(0, 1)}")]
            rows.append((src, event, dst, ref_guard))
        drafts[fid] = (states, rows)
    # an emitted event is one a transition of its target takes: load refuses others
    taken = {fid: sorted({event for _, event, _, _ in rows}) for fid, (_, rows) in drafts.items()}
    built, defs = [], {}
    for fid, (states, rows) in drafts.items():
        other = ids[1 - ids.index(fid)]
        transitions, ref_transitions = [], []
        for src, event, dst, ref_guard in rows:
            ref_actions = []
            if rng.random() < 0.35:
                ref_actions = [("emit", other, rng.choice(taken[other]))]
            guard = Guard(tuple(ref_guard)) if ref_guard else None
            actions = tuple(EmitEvent(target, ev) for _, target, ev in ref_actions)
            transitions.append(Transition(src, event, dst, guard, actions))
            ref_transitions.append({"from": src, "event": event, "to": dst,
                                    "guard": ref_guard, "actions": ref_actions})
        built.append(FsmDefinition(fid, frozenset(states), "s0", tuple(transitions)))
        defs[fid] = {"initial": "s0", "transitions": ref_transitions}
    return built, defs


def test_random_pairs_match_reference_interpreter():
    rng = random.Random(4242)
    for trial in range(50):
        built, ref_defs = random_fsm_pair(rng)
        c = Coordinator(groups=set())
        c.load(built)
        ref = FsmReference(ref_defs)
        script = [(rng.choice(["m0", "m1"]), rng.choice(["e0", "e1", "e2"]))
                  for _ in range(100)]
        diverged = False
        for fid, ev in script:
            ref_actions, status = ref.dispatch(fid, ev)
            if status == "overflow":
                with pytest.raises(CascadeOverflow):
                    c.dispatch(fid, ev)
                diverged = True
                break
            snapshot, actions = c.dispatch(fid, ev)
            got = [a.to_json_obj() for a in actions]
            want = [{"emit": [t, e]} for (_, t, e) in ref_actions]
            assert got == want, f"trial {trial}"
            assert snapshot == ref.state, f"trial {trial}"
        if not diverged:
            assert c.snapshot() == ref.state
