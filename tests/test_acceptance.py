"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and parameter is pinned here, not configurable.
"""

import contextlib
import json
import os
import random
import time

import pytest

from dfp.acc import desired_gap
from dfp.bench import latency_ratios, run_bench
from dfp.cli import main as dfpctl
from dfp.config import load_config
from dfp.envmodel import STOPWORDS, EnvRecord, EnvStore, OddQuery, RecordClass
from dfp.funcsw import GroupPolicy, Lifecycle, RestartPolicy, Stage, TaskNode, build_graph
from dfp.funcsw.types import LEGAL_TRANSITIONS
from dfp.middleware import (
    Domain,
    Durability,
    Frame,
    FrameError,
    History,
    Loopback,
    MsgType,
    QoSProfile,
    Reliability,
    TopicDescriptor,
    decode_frame,
    encode_frame,
    type_hash_of,
)
from dfp.modemgr import CascadeOverflow, Coordinator, EmitEvent, FsmDefinition, Transition
from dfp.runtime import Stack, reference_trajectory

from oracles import FsmReference, firing_round_oracle, levenshtein_recursive, toposort_bruteforce
from test_modemgr import random_fsm_pair

REPO = os.path.join(os.path.dirname(__file__), "..")
DEMO_CONFIG = os.path.join(REPO, "configs", "demo.json")
MS = 1_000_000


@contextlib.contextmanager
def criterion(cid, description):
    """Print the criterion's pass/fail line; strings the body appends to the
    yielded list are measured values, printed after the description."""
    measured = []
    outcome = "FAIL"
    try:
        yield measured
        outcome = "PASS"
    finally:
        detail = "; " + ", ".join(measured) if measured else ""
        print(f"[{cid}] {outcome} {description}{detail}")


# -- A1 constant latency -----------------------------------------------------------


def test_a1_constant_latency_zero_copy_vs_copying_baseline():
    with criterion("A1", "zero-copy median ratio <= 3, copying baseline >= 100, "
                         "< 30 s") as measured:
        t0 = time.perf_counter()
        rows = run_bench(sizes=(1024, 64 * 1024, 1024 * 1024, 4 * 1024 * 1024),
                         samples=10_000)
        elapsed = time.perf_counter() - t0
        ratios = latency_ratios(rows)
        measured += [f"zero-copy {ratios['zero_copy']:.2f}",
                     f"copying {ratios['copying']:.1f}", f"{elapsed:.1f} s"]
        assert ratios["zero_copy"] <= 3.0, f"zero-copy ratio {ratios['zero_copy']:.2f}"
        assert ratios["copying"] >= 100.0, f"copying ratio {ratios['copying']:.2f}"
        assert elapsed < 30.0, f"bench took {elapsed:.1f} s"


# -- A2 plug-and-play discovery -------------------------------------------------------


def test_a2_late_transient_local_subscriber_gets_exactly_latest():
    with criterion("A2", "late TL subscriber gets exactly the latest sample; volatile none"):
        t0 = time.perf_counter()
        domain = Domain()
        writer = domain.create_participant("writer")
        reader = domain.create_participant("reader")
        tl = TopicDescriptor("env/state", type_hash_of("s"),
                             QoSProfile(Reliability.RELIABLE, History.keep_last(1),
                                        Durability.TRANSIENT_LOCAL))
        pub = writer.create_publisher(tl)
        for k in range(5):
            pub.publish(f"sample-{k}".encode())
        late = reader.create_subscriber(tl)
        domain.spin()  # one discovery round
        got = late.take()
        assert [(s.seq, s.data) for s in got] == [(4, b"sample-4")]
        volatile = reader.create_subscriber(
            TopicDescriptor("env/state", type_hash_of("s"),
                            QoSProfile(Reliability.RELIABLE, History.keep_last(1),
                                       Durability.VOLATILE)))
        domain.spin()
        assert volatile.take() == []
        assert time.perf_counter() - t0 < 1.0


# -- A3 reliability under loss ----------------------------------------------------------


def test_a3_reliable_and_best_effort_under_seeded_loss():
    with criterion("A3", "drop 0.3: reliable delivers 0..999 exactly once in order; "
                         "best-effort an in-order subsequence"):
        t0 = time.perf_counter()
        domain = Domain()
        domain.set_loss(9300, 0.3, seed=20240915)
        writer = domain.create_participant("writer", Loopback(9300))
        reader = domain.create_participant("reader", Loopback(9300))
        reliable = TopicDescriptor("stream/reliable", type_hash_of("r"),
                                   QoSProfile(Reliability.RELIABLE, History.keep_all()))
        best = TopicDescriptor("stream/best_effort", type_hash_of("b"),
                               QoSProfile(Reliability.BEST_EFFORT, History.keep_all()))
        sub_r = reader.create_subscriber(reliable)
        sub_b = reader.create_subscriber(best)
        pub_r = writer.create_publisher(reliable)
        pub_b = writer.create_publisher(best)
        for _ in range(100):  # let announcements survive the loss
            domain.advance(100 * MS, 100 * MS)
            if sub_r._recv and sub_b._recv:
                break
        for i in range(1000):
            pub_r.publish(i.to_bytes(4, "big"))
            pub_b.publish(i.to_bytes(4, "big"))
        for _ in range(2000):
            domain.advance(5 * MS, 5 * MS)
            if sub_r.queued() >= 1000:
                break
        got_r = [s.seq for s in sub_r.take()]
        assert got_r == list(range(1000)), f"reliable delivered {len(got_r)}"
        got_b = [s.seq for s in sub_b.take()]
        assert 0 < len(got_b) < 1000
        assert got_b == sorted(set(got_b))
        assert time.perf_counter() - t0 < 10.0


# -- A4 wire format ---------------------------------------------------------------------


def test_a4_wire_golden_bytes_and_corruption_rejection():
    with criterion("A4", "golden bytes per msg_type round-trip; corrupt magic/version rejected"):
        def golden(mt, flags, pid, eid, seq, payload):
            return (b"DFP1" + bytes([1, mt, flags, 0])
                    + pid.to_bytes(8, "big") + eid.to_bytes(4, "big")
                    + seq.to_bytes(8, "big") + len(payload).to_bytes(4, "big") + payload)

        cases = [
            (Frame(MsgType.DATA, 0x00, 1, 2, 0, b"hi"), golden(0, 0, 1, 2, 0, b"hi")),
            (Frame(MsgType.ANNOUNCE, 0x02, 3, 1, 0, b"{}"), golden(1, 2, 3, 1, 0, b"{}")),
            (Frame(MsgType.SUBSCRIBE, 0x00, 4, 2, 0, b"{}"), golden(2, 0, 4, 2, 0, b"{}")),
            (Frame(MsgType.REQUEST, 0x00, 5, 0, 9, b"\x00\x01xPING"),
             golden(3, 0, 5, 0, 9, b"\x00\x01xPING")),
            (Frame(MsgType.RESPONSE, 0x00, 6, 0, 9, b"\x00" * 8 + b"\x00PONG"),
             golden(4, 0, 6, 0, 9, b"\x00" * 8 + b"\x00PONG")),
            (Frame(MsgType.HEARTBEAT, 0x00, 7, 0, 0, b""), golden(5, 0, 7, 0, 0, b"")),
            (Frame(MsgType.NACK, 0x01, 8, 3, 0, b'{"missing":[1]}'),
             golden(6, 1, 8, 3, 0, b'{"missing":[1]}')),
        ]
        assert len(cases) == len(MsgType)
        for frame, raw in cases:
            assert encode_frame(frame) == raw
            assert decode_frame(raw) == frame
        data_frame = encode_frame(Frame(MsgType.DATA, 0, 1, 2, 0, b"hi"))
        assert data_frame[:8] == bytes([0x44, 0x46, 0x50, 0x31, 0x01, 0x00, 0x00, 0x00])
        assert len(data_frame) == 34
        bad_magic = b"XFP1" + data_frame[4:]
        with pytest.raises(FrameError):
            decode_frame(bad_magic)
        bad_version = data_frame[:4] + b"\x07" + data_frame[5:]
        with pytest.raises(FrameError):
            decode_frame(bad_version)


# -- A5 orchestration correctness ----------------------------------------------------------


def _random_dag(rng, max_nodes=20):
    n = rng.randint(2, max_nodes)
    stage_of = {f"n{i:02d}": Stage(rng.randint(0, 3)) for i in range(n)}
    ordered = sorted(stage_of, key=lambda nid: (stage_of[nid], nid))
    inputs = {nid: [] for nid in stage_of}
    for i, nid in enumerate(ordered):
        for j in range(i):
            src = ordered[j]
            if stage_of[src] <= stage_of[nid] and rng.random() < 0.25:
                inputs[nid].append(f"t_{src}")
    external = {}
    for nid in stage_of:
        if not inputs[nid] and rng.random() < 0.8:
            inputs[nid].append(f"ext_{nid}")
            external[f"ext_{nid}"] = rng.random() < 0.7
    def make_body(topic):
        return lambda inp, cfg: {topic: 1}
    nodes = [TaskNode(nid, stage_of[nid], tuple(inputs[nid]), (f"t_{nid}",),
                      body=make_body(f"t_{nid}")) for nid in stage_of]
    return nodes, external


def test_a5_orchestration_matches_oracle_and_lifecycle_is_legal():
    with criterion("A5", "100 random DAGs match the firing oracle; 20 fault scripts legal"):
        rng = random.Random(50505)
        for trial in range(100):
            nodes, external = _random_dag(rng)
            graph = build_graph(nodes, {"default": GroupPolicy()})
            graph.start()
            assert graph.topo_order == toposort_bruteforce(list(graph.nodes), graph.edges)
            fed = {t: 1 for t, feed in external.items() if feed}
            report = graph.step(fed)
            spec = {nid: (n.inputs, n.outputs) for nid, n in graph.nodes.items()}
            fresh0 = {(nid, t): False for nid, n in graph.nodes.items() for t in n.inputs}
            want, _ = firing_round_oracle(spec, graph.edges, set(graph.nodes), fresh0, fed)
            assert report.fired == want, f"dag trial {trial}"

        for trial in range(20):
            limit = rng.randint(0, 3)
            crashes = rng.randint(0, 5)
            crash_rounds = set(rng.sample(range(10), crashes))
            calls = {"n": 0}

            def body(inputs, config):
                calls["n"] += 1
                if (calls["n"] - 1) in crash_rounds:
                    raise RuntimeError("injected")
                return {}

            node = TaskNode("worker", Stage.SERVICE, ("w",), (), group_id="g", body=body)
            graph = build_graph([node],
                                {"g": GroupPolicy(restart_policy=RestartPolicy.up_to(limit))})
            graph.start()
            fired_rounds = 0
            for k in range(10):
                report = graph.step({"w": k})
                fired_rounds += len(report.fired)
            for entry in graph.trace:
                frm, to = Lifecycle(entry["from"]), Lifecycle(entry["to"])
                assert (frm, to) in LEGAL_TRANSITIONS, entry
            # the node keeps restarting until the policy budget is exhausted
            expect_restarts = min(crashes, limit)
            assert graph.restart_count_of("worker") == expect_restarts, f"script {trial}"
            expect_state = (Lifecycle.FAILED if crashes > limit else Lifecycle.RUNNING)
            assert graph.lifecycle_of("worker") == expect_state, f"script {trial}"


# -- A6 environment model oracle equivalence --------------------------------------------------


def test_a6_query_engine_equals_bruteforce_levenshtein_scan():
    with criterion("A6", "200 random queries equal brute-force scan; seeded "
                         "tunnel/highway/rain records selected exactly"):
        vocabulary = ["tunnel", "highway", "rain", "night", "fog", "urban", "bridge",
                      "snow", "ramp", "merge", "toll", "gravel", "wind", "ice",
                      "roadwork", "detour"]
        rng = random.Random(606060)
        store = EnvStore()
        tunnel_rain_ids = set()
        for rid in range(50):
            if rid < 3:  # seeded targets for the worded query
                tags = frozenset({"tunnel", "highway", "rain"}
                                 | set(rng.sample(vocabulary, rng.randint(0, 2))))
            else:
                tags = frozenset(rng.sample(vocabulary, rng.randint(1, 4)))
            if {"tunnel", "highway", "rain"} <= tags:
                tunnel_rain_ids.add(rid)
            store.create(EnvRecord(rid, rng.choice(list(RecordClass)), tags,
                                   rng.randint(0, 100_000)))

        def brute(words, class_filter, time_range):
            tokens = [w.strip().lower() for w in words]
            tokens = [w for w in tokens if w and w not in STOPWORDS]
            out = []
            for rec in store.all_records():
                if class_filter and rec.record_class != class_filter:
                    continue
                if time_range and not (time_range[0] <= rec.timestamp_ns <= time_range[1]):
                    continue
                if all(any(tok == tag or (len(tok) >= 4
                                          and levenshtein_recursive(tok, tag) <= 1)
                           for tag in rec.tags) for tok in tokens):
                    out.append(rec)
            return sorted(out, key=lambda r: (-r.timestamp_ns, r.record_id))

        for trial in range(200):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                w = list(words[0])
                pos = rng.randrange(len(w))
                w[pos] = rng.choice("abcdefghijklmnopqrstuvwxyz")
                words[0] = "".join(w)
            if rng.random() < 0.3:
                words.insert(rng.randint(0, len(words)), rng.choice(sorted(STOPWORDS)))
            class_filter = rng.choice(list(RecordClass)) if rng.random() < 0.25 else None
            time_range = (20_000, 80_000) if rng.random() < 0.25 else None
            got = store.query(OddQuery(tuple(words), class_filter, time_range))
            want = brute(words, class_filter, time_range)
            assert got == want, f"query trial {trial}: {words}"

        worded = store.query(OddQuery(("tunnel", "on", "highway", "in", "rain")))
        assert {r.record_id for r in worded} == tunnel_rain_ids
        assert [r.record_id for r in worded] == sorted(
            tunnel_rain_ids,
            key=lambda rid: (-store.read(rid).timestamp_ns, rid))


# -- A7 fsm coordination ------------------------------------------------------------------------


def test_a7_fsm_pairs_match_reference_and_ping_pong_overflows():
    with criterion("A7", "50 random FSM pairs match the reference; ping-pong "
                         "overflows at depth 1000"):
        rng = random.Random(70707)
        for trial in range(50):
            built, ref_defs = random_fsm_pair(rng)
            coordinator = Coordinator(groups=set())
            coordinator.load(built)
            reference = FsmReference(ref_defs)
            for _ in range(100):
                fid = rng.choice(["m0", "m1"])
                ev = rng.choice(["e0", "e1", "e2"])
                ref_actions, status = reference.dispatch(fid, ev)
                if status == "overflow":
                    with pytest.raises(CascadeOverflow):
                        coordinator.dispatch(fid, ev)
                    break
                snapshot, actions = coordinator.dispatch(fid, ev)
                assert snapshot == reference.state, f"pair {trial}"
                got = [a.to_json_obj() for a in actions]
                want = [{"emit": [t, e]} for (_, t, e) in ref_actions]
                assert got == want, f"pair {trial}"

        ping = FsmDefinition("ping", frozenset({"s"}), "s",
                             (Transition("s", "e", "s", actions=(EmitEvent("pong", "e"),)),))
        pong = FsmDefinition("pong", frozenset({"s"}), "s",
                             (Transition("s", "e", "s", actions=(EmitEvent("ping", "e"),)),))
        coordinator = Coordinator(groups=set())
        coordinator.load([ping, pong])
        with pytest.raises(CascadeOverflow) as err:
            coordinator.dispatch("ping", "e")
        assert err.value.depth == 1000


# -- A8 acc end to end ----------------------------------------------------------------------------


def test_a8_acc_through_the_full_stack_with_reintegration_oracle():
    with criterion("A8", "lead 25->15 at t=10: |gap-desired| < 0.5 m past 70 s, gap > 0, "
                         "dt/10 oracle within 0.1 m, < 5 s"):
        t0 = time.perf_counter()
        config = load_config(DEMO_CONFIG)
        stack = Stack(config)
        result = stack.run_scenario()
        assert result.ok, result.fault
        trajectory = result.trajectory
        assert len(trajectory) == 2401  # 120 s at dt=0.05
        cfg = config.acc.config
        assert all(p["gap"] > 0 for p in trajectory)
        late = [p for p in trajectory if p["t"] > 70.0]
        assert late
        worst_late = max(abs(p["gap"] - desired_gap(cfg, p["ego_speed"])) for p in late)
        assert worst_late < 0.5, f"late gap error {worst_late:.3f} m"
        fine = reference_trajectory(config, dt=config.acc.scenario.dt / 10)
        worst_diff = max(abs(f.ego_position - c["ego_position"])
                         for c, f in zip(trajectory, fine[::10]))
        assert worst_diff < 0.1, f"oracle disagreement {worst_diff:.3f} m"
        assert time.perf_counter() - t0 < 5.0


# -- A9 end-to-end determinism -----------------------------------------------------------------------


def test_a9_cli_run_twice_produces_byte_identical_reports(tmp_path):
    with criterion("A9", "dfpctl run, demo config, seed 42, twice: identical report bytes"):
        first = tmp_path / "report1.json"
        second = tmp_path / "report2.json"
        assert dfpctl(["run", "--config", DEMO_CONFIG, "--seed", "42",
                       "--out", str(first)]) == 0
        assert dfpctl(["run", "--config", DEMO_CONFIG, "--seed", "42",
                       "--out", str(second)]) == 0
        b1, b2 = first.read_bytes(), second.read_bytes()
        assert b1 == b2
        report = json.loads(b1)
        assert report["seed"] == 42
        assert report["acc"]["collided"] is False


# -- A10 mode/pipeline coupling ------------------------------------------------------------------------


def test_a10_fallback_stops_the_control_group_within_one_round():
    with criterion("A10", "Fallback stops the ACC control group within one firing round"):
        config = load_config(DEMO_CONFIG)
        stack = Stack(config)
        fallback_step = 60
        result = stack.run_scenario(
            duration=8.0,
            event_schedule={fallback_step: [("ads", "fallback_trigger")]})
        assert result.ok, result.fault
        assert stack.coordinator.snapshot()["ads"] == "fallback"
        for node_id in ("acc_planner", "acc_ctrl"):
            assert stack.graph.lifecycle_of(node_id) == Lifecycle.STOPPED
        published = result.metrics["topics"]["control/acc_cmd"]["published"]
        assert published == fallback_step
        fired = result.metrics["nodes"]["acc_ctrl"]["fired"]
        assert fired == fallback_step
