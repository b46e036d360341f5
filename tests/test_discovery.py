"""Dynamic discovery: announcements, liveliness expiry, loopback planes."""

import json
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dfp.middleware import (
    Domain,
    Durability,
    Frame,
    History,
    Loopback,
    MiddlewareError,
    MsgType,
    QoSProfile,
    Reliability,
    RemoteError,
    ServiceDescriptor,
    ServiceNotFound,
    Timeout,
    TopicDescriptor,
    TransportUnavailable,
    decode_frame,
    type_hash_of,
)
import dfp.middleware.core as core
from dfp.middleware.core import HEARTBEAT_PERIOD_NS, LIVELINESS_PERIODS
from dfp.util import MS


def topic(name="a"):
    return TopicDescriptor(name, type_hash_of("t"), QoSProfile())


def test_fresh_plane_lists_only_self():
    d = Domain()
    p = d.create_participant("solo")
    recs = p.discover("all")
    assert len(recs) == 1
    assert recs[0].entity == "participant"
    assert recs[0].participant_id == p.participant_id


def test_empty_participant_name_rejected():
    d = Domain()
    with pytest.raises(MiddlewareError):
        d.create_participant("")


def test_endpoints_and_services_appear_in_discover():
    d = Domain()
    p = d.create_participant("node")
    p.create_publisher(topic("a"))
    p.register_service(ServiceDescriptor("s"), lambda req: req)
    kinds = {r.entity for r in p.discover("all")}
    assert kinds == {"participant", "publisher", "service"}
    assert {r.entity for r in p.discover("topics")} == {"publisher"}
    assert {r.entity for r in p.discover("services")} == {"service"}


def test_peer_records_visible_across_plane():
    d = Domain()
    p1 = d.create_participant("one")
    p2 = d.create_participant("two")
    p1.create_publisher(topic("sensors/x"))
    recs = p2.discover("topics")
    assert [r.descriptor.name for r in recs] == ["sensors/x"]
    assert recs[0].participant_id == p1.participant_id


def test_records_expire_after_three_missed_heartbeats():
    d = Domain()
    p1 = d.create_participant("one")
    p2 = d.create_participant("two")
    p1.create_publisher(topic())
    p1.register_service(ServiceDescriptor("diag"), lambda r: r)
    d.spin()
    p1.close(graceful=False)  # goes silent without withdrawing records

    period = HEARTBEAT_PERIOD_NS
    window = LIVELINESS_PERIODS * period
    silent_since = d.now_ns()
    # stepped-clock oracle: presence holds exactly while (now - last_hb) < window
    for step in range(1, 8):
        d.clock.advance(period // 2)
        p2.spin()
        expect_alive = (d.now_ns() - silent_since) < window
        others = [r for r in p2.discover("all") if r.participant_id == p1.participant_id]
        assert bool(others) == expect_alive, f"at step {step}"


def test_graceful_close_withdraws_records_immediately():
    d = Domain()
    p1 = d.create_participant("one")
    p2 = d.create_participant("two")
    p1.create_publisher(topic())
    p1.close(graceful=True)
    assert all(r.participant_id != p1.participant_id for r in p2.discover("all"))


def test_loopback_participants_discover_each_other():
    d = Domain()
    a = d.create_participant("a", Loopback(7000))
    b = d.create_participant("b", Loopback(7000))
    d.spin()
    assert any(r.entity == "participant" and r.participant_id == b.participant_id
               for r in a.discover("all"))
    assert any(r.entity == "participant" and r.participant_id == a.participant_id
               for r in b.discover("all"))
    # oracle: the bus frame log must contain each side's announcement frames
    log = d.bus(7000).frame_log
    announces = [(pid, json.loads(decode_frame(raw).payload))
                 for pid, raw in log
                 if decode_frame(raw).msg_type == MsgType.ANNOUNCE]
    kinds = {(pid, obj["kind"]) for pid, obj in announces}
    assert (a.participant_id, "participant") in kinds
    assert (b.participant_id, "participant") in kinds


def test_loopback_port_out_of_range_is_unavailable():
    d = Domain()
    with pytest.raises(TransportUnavailable):
        d.create_participant("x", Loopback(0))
    with pytest.raises(TransportUnavailable):
        d.create_participant("x", Loopback(70000))


def test_separate_ports_are_separate_planes():
    d = Domain()
    a = d.create_participant("a", Loopback(7001))
    b = d.create_participant("b", Loopback(7002))
    d.spin()
    assert all(r.participant_id != b.participant_id for r in a.discover("all"))


def test_discover_rejects_unknown_filter():
    d = Domain()
    p = d.create_participant("p")
    with pytest.raises(MiddlewareError):
        p.discover("bogus")


def test_liveliness_deadline_reflects_last_heartbeat():
    d = Domain()
    p1 = d.create_participant("one")
    p2 = d.create_participant("two")
    d.spin()
    rec = [r for r in p2.discover("all") if r.participant_id == p1.participant_id][0]
    window = LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS
    assert rec.liveliness_deadline_ns == d.now_ns() + window


def test_inprocess_late_joiner_lists_records_at_once_and_can_call():
    d = Domain()
    early = d.create_participant("early")
    pub = early.create_publisher(topic("sensors/x"))
    pub.publish(b"x")
    early.register_service(ServiceDescriptor("diag/echo"), lambda req: b"re:" + req)
    late = d.create_participant("late")
    seen = {(r.entity, r.participant_id) for r in late.discover("all")}
    assert seen == {("participant", early.participant_id),
                    ("participant", late.participant_id),
                    ("publisher", early.participant_id),
                    ("service", early.participant_id)}
    assert late.call("diag/echo", b"hi", timeout_ms=10) == b"re:hi"


def test_reader_whose_subscribe_is_lost_is_listed_within_ten_periods():
    # a reader can match through the writer's ANNOUNCE while its own
    # SUBSCRIBE is lost; the heartbeat's restatement must still reach the writer
    misses = []
    for seed in range(104700, 104800):
        d = Domain()
        d.set_loss(7200, 0.1, seed=seed)
        writer = d.create_participant("writer", Loopback(7200))
        reader = d.create_participant("reader", Loopback(7200))
        reader.create_subscriber(topic("stream"))
        writer.create_publisher(topic("stream"))
        d.advance(10 * HEARTBEAT_PERIOD_NS, HEARTBEAT_PERIOD_NS)
        if not any(r.entity == "subscriber" and r.participant_id == reader.participant_id
                   for r in writer.discover("topics")):
            misses.append(seed)
    assert misses == []


def test_expired_inprocess_records_return_with_the_next_heartbeat():
    d = Domain()
    server = d.create_participant("server")
    client = d.create_participant("client")
    server.create_publisher(topic("sensors/x"))
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    d.spin()
    d.clock.advance(LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS)
    client.spin()  # the server did not spin: its records expire
    assert all(r.participant_id != server.participant_id for r in client.discover("all"))
    d.spin()  # the server's heartbeat restates every endpoint
    kinds = {r.entity for r in client.discover("all") if r.participant_id == server.participant_id}
    assert kinds == {"participant", "publisher", "service"}
    assert client.call("diag/echo", b"x", timeout_ms=10) == b"x"


@pytest.mark.parametrize("msg_type, payload", [
    (MsgType.HEARTBEAT, b"[1]"),
    (MsgType.HEARTBEAT, b'"x"'),
    (MsgType.HEARTBEAT, b"null"),
    (MsgType.NACK, b"[2]"),
    # json raises RecursionError here, and ValueError (no JSONDecodeError)
    # for an int longer than the interpreter converts
    (MsgType.HEARTBEAT, b"[" * 100_000 + b"]" * 100_000),
    (MsgType.NACK, b"1" * 5000),
], ids=["heartbeat_list", "heartbeat_str", "heartbeat_null", "nack_list",
        "heartbeat_nested_past_the_parser", "nack_int_past_the_digit_limit"])
def test_a_control_document_that_is_not_an_object_is_dropped(msg_type, payload):
    def discovered(bad_frame: bool):
        d = Domain()
        a = d.create_participant("a", Loopback(7300))
        b = d.create_participant("b", Loopback(7300))
        a.create_publisher(topic("sensors/x"))
        b.create_subscriber(topic("sensors/x"))
        d.spin()
        if bad_frame:
            d.bus(7300).send(a, Frame(msg_type, 0, a.participant_id, 0, 0, payload))
        d.advance(2 * HEARTBEAT_PERIOD_NS)
        return a.discover("all"), b.discover("all")

    assert discovered(bad_frame=True) == discovered(bad_frame=False)


# fields laid over a valid NACK for a live publisher's seq 1
BAD_NACKS = {
    "missing_str": {"missing": ["z"]},
    "missing_int": {"missing": 5},
    "missing_null": {"missing": None},
    "missing_bool": {"missing": [True]},
    "missing_digit_str": {"missing": ["1"]},
    "missing_float": {"missing": [1.0]},
    "eid_list": {"target_eid": [1]},
    "eid_bool": {"target_eid": True},
    "pid_float": {"target_pid": 1.0},
    "pid_bool": {"target_pid": True},
}


def _nack_run(fields):
    """A two-participant loopback run in which the reader sends the writer a
    NACK for seq 1 with ``fields`` laid over it (no NACK for None): what
    each side discovers, and every frame the bus carried after the NACK."""
    d = Domain()
    writer = d.create_participant("writer", Loopback(7400))
    reader = d.create_participant("reader", Loopback(7400))
    kept = TopicDescriptor("sensors/x", type_hash_of("t"),
                           QoSProfile(Reliability.RELIABLE, History.keep_all()))
    pub = writer.create_publisher(kept)
    reader.create_subscriber(kept)
    d.spin()
    pub.publish(b"zero")
    pub.publish(b"one")
    d.spin()
    bus = d.bus(7400)
    logged = len(bus.frame_log)
    if fields is not None:
        nack = {"target_pid": writer.participant_id, "target_eid": pub.entity_id,
                "topic": "sensors/x", "missing": [1], **fields}
        bus.send(reader, Frame(MsgType.NACK, 0, reader.participant_id, 0, 0,
                               json.dumps(nack).encode()))
        logged += 1
    d.advance(2 * HEARTBEAT_PERIOD_NS)
    return writer.discover("all"), reader.discover("all"), bus.frame_log[logged:]


@pytest.mark.parametrize("fields", BAD_NACKS.values(), ids=BAD_NACKS.keys())
def test_a_nack_with_fields_of_the_wrong_type_is_dropped(fields):
    assert _nack_run(fields) == _nack_run(None)


def test_a_well_typed_nack_resends_what_it_names():
    clean, nacked = _nack_run(None), _nack_run({})
    assert nacked[:2] == clean[:2]
    resent = [decode_frame(raw) for _, raw in nacked[2] if (_, raw) not in clean[2]]
    assert [(f.msg_type, f.seq, f.payload) for f in resent] == [(MsgType.DATA, 1, b"one")]


def _gap_run(first_available):
    """A two-participant loopback run in which the reader is told, before
    seqs 0-2 reach it, that the writer keeps only seqs from
    ``first_available`` on (no such gap for None): what each side
    discovers, the samples the reader takes, the seqs it counts as skipped,
    and every frame the bus carried after the gap."""
    d = Domain()
    writer = d.create_participant("writer", Loopback(7500))
    reader = d.create_participant("reader", Loopback(7500))
    kept = TopicDescriptor("sensors/x", type_hash_of("t"),
                           QoSProfile(Reliability.RELIABLE, History.keep_all()))
    pub = writer.create_publisher(kept)
    sub = reader.create_subscriber(kept)
    d.spin()
    bus = d.bus(7500)
    logged = len(bus.frame_log)
    if first_available is not None:
        gap = {"kind": "gap", "topic": "sensors/x", "first_available": first_available}
        bus.send(writer, Frame(MsgType.ANNOUNCE, 0, writer.participant_id, pub.entity_id, 0,
                               json.dumps(gap).encode()))
        logged += 1
    for payload in (b"zero", b"one", b"two"):
        pub.publish(payload)
    d.advance(2 * HEARTBEAT_PERIOD_NS)
    taken = [(s.seq, s.data) for s in sub.take()]
    return (writer.discover("all"), reader.discover("all"), taken, sub.drops_gap,
            bus.frame_log[logged:])


# a gap names an int; a bool, a str, a float or a list is none
BAD_GAPS = {"digit_str": "2", "bool": True, "float": 2.5, "list": [1]}


@pytest.mark.parametrize("first_available", BAD_GAPS.values(), ids=BAD_GAPS.keys())
def test_a_gap_whose_first_available_is_not_an_int_is_dropped(first_available):
    assert _gap_run(first_available) == _gap_run(None)


def test_a_well_typed_gap_skips_the_reader_ahead():
    clean, gapped = _gap_run(None), _gap_run(2)
    assert clean[2:4] == ([(0, b"zero"), (1, b"one"), (2, b"two")], 0)
    assert gapped[:2] == clean[:2]
    assert gapped[2:4] == ([(2, b"two")], 2)


_ABSENT = object()
# fields laid over a valid publisher record, one at a time (_ABSENT drops the key)
BAD_PUBLISHER_RECORDS = {
    "no_qos": {"qos": _ABSENT},
    "qos_list": {"qos": [1]},
    "qos_unknown_key": {"qos": {"speed": 1}},
    "qos_bad_reliability": {"qos": {"reliability": "sometimes"}},
    "topic_bad_name": {"topic": "Sensors X"},
    "topic_int": {"topic": 5},
    "no_topic": {"topic": _ABSENT},
    "type_hash_str": {"type_hash": "1"},
    "type_hash_bool": {"type_hash": True},
    "type_hash_negative": {"type_hash": -1},
    "next_seq_str": {"next_seq": "0"},
    "next_seq_float": {"next_seq": 0.0},
    "no_retained_first": {"retained_first": _ABSENT},
    "retained_first_bool": {"retained_first": False},
}


def _publisher_record_run(fields):
    """A two-participant loopback run in which the writer's participant id
    announces one more publisher on the reader's topic, with ``fields``
    laid over its record (no such record for None): what each side
    discovers, and the samples the reader takes from the real publisher."""
    d = Domain()
    writer = d.create_participant("writer", Loopback(7600))
    reader = d.create_participant("reader", Loopback(7600))
    t = topic("sensors/x")
    pub = writer.create_publisher(t)
    sub = reader.create_subscriber(t)
    d.spin()
    if fields is not None:
        record = {"kind": "publisher", "topic": t.name, "type_hash": t.type_hash,
                  "qos": t.qos.to_json(), "next_seq": 0, "retained_first": 0}
        record.update(fields)
        record = {k: v for k, v in record.items() if v is not _ABSENT}
        d.bus(7600).send(writer, Frame(MsgType.ANNOUNCE, 0, writer.participant_id, 99, 0,
                                       json.dumps(record).encode()))
    pub.publish(b"x")
    d.advance(2 * HEARTBEAT_PERIOD_NS)
    return writer.discover("all"), reader.discover("all"), [s.data for s in sub.take()]


@pytest.mark.parametrize("fields", BAD_PUBLISHER_RECORDS.values(),
                         ids=BAD_PUBLISHER_RECORDS.keys())
def test_a_publisher_record_with_a_malformed_field_is_dropped(fields):
    assert _publisher_record_run(fields) == _publisher_record_run(None)


def test_a_well_formed_publisher_record_is_listed():
    clean, announced = _publisher_record_run(None), _publisher_record_run({})
    extra = Counter(announced[1]) - Counter(clean[1])
    assert [(r.entity, r.descriptor.name) for r in extra.elements()] == [("publisher", "sensors/x")]
    assert announced[2] == clean[2] == [b"x"]


SUBSCRIBE_DOCUMENT = {"kind": "subscriber", "topic": "sensors/x", "type_hash": type_hash_of("t"),
                      "qos": QoSProfile().to_json(), "matched": []}
SERVICE_DOCUMENT = {"kind": "service", "name": "diag/probe", "request_type_hash": 0,
                    "response_type_hash": 0, "entity_id": 99}
PARTICIPANT_DOCUMENT = {"kind": "participant", "name": "writer"}
HEARTBEAT_DOCUMENT = {"kind": "heartbeat", "name": "writer"}

# (sending side, message type, a well-formed document, fields laid over it);
# the reader sends the SUBSCRIBE, so the writer's publisher courts it
BAD_PEER_DOCUMENTS = {
    "subscribe_no_qos": ("reader", MsgType.SUBSCRIBE, SUBSCRIBE_DOCUMENT, {"qos": _ABSENT}),
    "subscribe_matched_int": ("reader", MsgType.SUBSCRIBE, SUBSCRIBE_DOCUMENT, {"matched": 5}),
    "subscribe_topic_list": ("reader", MsgType.SUBSCRIBE, SUBSCRIBE_DOCUMENT, {"topic": ["x"]}),
    "subscribe_topic_bad_name": ("reader", MsgType.SUBSCRIBE, SUBSCRIBE_DOCUMENT,
                                 {"topic": "Bad Name"}),
    "service_no_name": ("writer", MsgType.ANNOUNCE, SERVICE_DOCUMENT, {"name": _ABSENT}),
    "service_name_list": ("writer", MsgType.ANNOUNCE, SERVICE_DOCUMENT, {"name": ["x"]}),
    "service_request_type_hash_str": ("writer", MsgType.ANNOUNCE, SERVICE_DOCUMENT,
                                      {"request_type_hash": "x"}),
    "participant_name_list": ("writer", MsgType.ANNOUNCE, PARTICIPANT_DOCUMENT, {"name": ["x"]}),
    "heartbeat_name_list": ("writer", MsgType.HEARTBEAT, HEARTBEAT_DOCUMENT, {"name": ["x"]}),
}


def _peer_document_run(sender=None, msg_type=None, document=None, fields=None):
    """A two-participant loopback run in which ``sender`` sends its peer one
    document, from entity 99, with ``fields`` laid over it (no document for
    None): what each side discovers at once and two heartbeat periods
    later, and the samples the reader takes from the writer."""
    d = Domain()
    writer = d.create_participant("writer", Loopback(7700))
    reader = d.create_participant("reader", Loopback(7700))
    t = topic("sensors/x")
    pub = writer.create_publisher(t)
    sub = reader.create_subscriber(t)
    d.spin()
    if document is not None:
        doc = {k: v for k, v in {**document, **fields}.items() if v is not _ABSENT}
        src = writer if sender == "writer" else reader
        d.bus(7700).send(src, Frame(msg_type, 0, src.participant_id, 99, 0,
                                    json.dumps(doc).encode()))
    d.spin()
    at_once = writer.discover("all"), reader.discover("all")
    pub.publish(b"x")
    d.advance(2 * HEARTBEAT_PERIOD_NS)
    return at_once, writer.discover("all"), reader.discover("all"), [s.data for s in sub.take()]


@pytest.mark.parametrize("sender, msg_type, document, fields", BAD_PEER_DOCUMENTS.values(),
                         ids=BAD_PEER_DOCUMENTS.keys())
def test_a_peer_document_with_a_malformed_field_is_dropped(sender, msg_type, document, fields):
    assert _peer_document_run(sender, msg_type, document, fields) == _peer_document_run()


@pytest.mark.parametrize("sender, msg_type, document, listed", [
    ("reader", MsgType.SUBSCRIBE, SUBSCRIBE_DOCUMENT, ("subscriber", topic("sensors/x"))),
    ("writer", MsgType.ANNOUNCE, SERVICE_DOCUMENT, ("service", ServiceDescriptor("diag/probe"))),
], ids=["subscribe", "service"])
def test_a_well_formed_peer_document_is_listed(sender, msg_type, document, listed):
    clean, announced = _peer_document_run(), _peer_document_run(sender, msg_type, document, {})
    receiver = 1 if sender == "reader" else 2  # the writer's or the reader's late view
    extra = Counter(announced[receiver]) - Counter(clean[receiver])
    assert [(r.entity, r.descriptor) for r in extra.elements()] == [listed]
    assert announced[3 - receiver] == clean[3 - receiver]
    assert announced[3] == clean[3] == [b"x"]


def test_every_document_the_stack_sends_reads_back_to_the_same_bytes():
    # a lossy session that sends each declared document (at this seed a NACK
    # asks for an evicted seq, so a gap is sent): the reader takes each one,
    # and the value it reads is sent again as the same payload
    d = Domain()
    d.set_loss(7800, 0.3, seed=0)
    writer = d.create_participant("writer", Loopback(7800))
    reader = d.create_participant("reader", Loopback(7800))
    t = TopicDescriptor("sensors/x", type_hash_of("t"),
                        QoSProfile(Reliability.RELIABLE, History.keep_last(1)))
    pub = writer.create_publisher(t)
    reader.create_subscriber(t)
    writer.register_service(ServiceDescriptor("diag/echo", 1, 2), lambda req: req)
    d.spin()
    for i in range(20):
        pub.publish(b"%d" % i)
        d.advance(5 * MS, MS)
    reader.close(graceful=True)
    bus = d.bus(7800)
    sent = [(pid, decode_frame(raw)) for pid, raw in bus.frame_log]
    kinds = set()
    for pid, frame in sent:
        if frame.msg_type in (MsgType.DATA, MsgType.REQUEST, MsgType.RESPONSE):
            continue
        doc = core._read_document(frame.msg_type, frame.payload)
        assert doc is not None, frame
        kinds.add(core._SENT_AS[type(doc)])
        sender = writer if pid == writer.participant_id else reader
        bus.send_control(sender, doc, frame.entity_id)
        assert decode_frame(bus.frame_log[-1][1]) == frame
    assert kinds == set(core._DOCUMENTS)


def _readme_documents() -> dict:
    """README's control-document table: (message type, kind) -> [(key, value type)]."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| message type | kind | keys |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.strip().splitlines()[1:]:
        msg_type, kind, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[(MsgType[msg_type], kind.strip("`") if kind != "none" else None)] = [
            tuple(part.strip().strip("`") for part in key.split(":"))
            for key in keys.split(",") if key.strip() != "none"]
    return rows


def test_the_readme_table_lists_each_documents_keys_and_value_types():
    declared = {}
    for frame, cls in core._DOCUMENTS.items():
        hints = get_type_hints(cls)  # each a value type: a predicate core names as a type
        assert list(hints) == list(cls._fields)
        assert all(getattr(core, check.__name__) is check for check in hints.values())
        declared[frame] = [(key, check.__name__) for key, check in hints.items()]
    assert _readme_documents() == declared


FUZZ_PORT = 7900
FUZZ_TOPIC = TopicDescriptor("sensors/x", type_hash_of("t"),
                             QoSProfile(Reliability.RELIABLE, History.keep_last(4),
                                        Durability.TRANSIENT_LOCAL))


def _fuzz_run(frame_from=None):
    """A loopback run in which the writer publishes on ``FUZZ_TOPIC`` and
    serves ``diag/echo``, the reader subscribes and calls, and after the
    first round ``frame_from(writer, reader)`` gives the (sender, frame)
    the bus carries (none for None). Returns what each side discovers two
    heartbeat periods later, the call's outcome and the samples taken."""
    d = Domain()
    writer = d.create_participant("writer", Loopback(FUZZ_PORT))
    reader = d.create_participant("reader", Loopback(FUZZ_PORT))
    pub = writer.create_publisher(FUZZ_TOPIC)
    sub = reader.create_subscriber(FUZZ_TOPIC)
    writer.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    pub.publish(b"a")
    d.spin()
    if frame_from is not None:
        d.bus(FUZZ_PORT).send(*frame_from(writer, reader))
    pub.publish(b"b")
    try:
        outcome = reader.call("diag/echo", b"q", timeout_ms=5)
    except (ServiceNotFound, Timeout, RemoteError) as exc:  # a peer may withdraw the service
        outcome = type(exc).__name__
    d.advance(2 * HEARTBEAT_PERIOD_NS)
    return (writer.discover("all"), reader.discover("all"), outcome,
            [(s.seq, s.data) for s in sub.take()])


_CLEAN_FUZZ_RUN = []


def _clean_fuzz_run():
    if not _CLEAN_FUZZ_RUN:
        _CLEAN_FUZZ_RUN.append(_fuzz_run())
    return _CLEAN_FUZZ_RUN[0]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)
# the well-formed document of each declared kind, for fields to be laid over
TEMPLATES = [
    (MsgType.ANNOUNCE, {"kind": "participant", "name": "ghost"}),
    (MsgType.HEARTBEAT, {"kind": "heartbeat", "name": "ghost"}),
    (MsgType.ANNOUNCE, {"kind": "publisher", "topic": "sensors/x", "type_hash": FUZZ_TOPIC.type_hash,
                        "qos": FUZZ_TOPIC.qos.to_json(), "next_seq": 3, "retained_first": 1}),
    (MsgType.SUBSCRIBE, {"kind": "subscriber", "topic": "sensors/x",
                         "type_hash": FUZZ_TOPIC.type_hash, "qos": FUZZ_TOPIC.qos.to_json(),
                         "matched": []}),
    (MsgType.ANNOUNCE, {"kind": "service", "name": "diag/echo", "request_type_hash": 0,
                        "response_type_hash": 0, "entity_id": 7}),
    (MsgType.ANNOUNCE, {"kind": "leave"}),
    (MsgType.ANNOUNCE, {"kind": "gap", "topic": "sensors/x", "first_available": 2}),
    (MsgType.NACK, {"target_pid": 1, "target_eid": 1, "topic": "sensors/x", "missing": [0, 1]}),
]
CONTROL_TYPES = (MsgType.ANNOUNCE, MsgType.SUBSCRIBE, MsgType.HEARTBEAT, MsgType.NACK)


@st.composite
def control_frames(draw):
    """(message type, document) pairs: a declared document with some keys
    dropped, replaced or added, under its own or another control type, or
    any JSON value at all."""
    mt, template = draw(st.sampled_from(TEMPLATES))
    doc = dict(template)
    keys = st.sampled_from(sorted(template) + ["kind", "name", "topic", "qos"]) | st.text(max_size=6)
    for op, key, value in draw(st.lists(st.tuples(st.sampled_from(("drop", "set")), keys,
                                                  json_values), max_size=3)):
        if op == "drop":
            doc.pop(key, None)
        else:
            doc[key] = value
    mt = draw(st.sampled_from(CONTROL_TYPES)) if draw(st.booleans()) else mt
    return mt, draw(st.just(doc) | json_values)


def _check_descriptor(record) -> None:
    desc = record.descriptor
    if record.entity in ("publisher", "subscriber"):
        assert type(desc) is TopicDescriptor and TopicDescriptor(*desc) == desc
        assert type(desc.qos) is QoSProfile and QoSProfile(*desc.qos) == desc.qos
    elif record.entity == "service":
        assert type(desc) is ServiceDescriptor and ServiceDescriptor(*desc) == desc
        assert all(type(h) is int for h in desc[1:])
    else:
        assert record.entity == "participant" and type(desc) is str and desc


# 300 derandomized examples, about 2 s on a 2-vCPU KVM guest
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frame=control_frames(), from_writer=st.booleans(), entity_id=st.sampled_from((0, 1, 2, 99)))
def test_no_control_document_from_a_peer_raises_and_a_refused_one_changes_nothing(
        frame, from_writer, entity_id):
    mt, doc = frame
    payload = json.dumps(doc).encode()

    def frame_from(writer, reader):
        sender = writer if from_writer else reader
        return sender, Frame(mt, 0, sender.participant_id, entity_id, 0, payload)

    run = _fuzz_run(frame_from)  # nothing raises out of spin, advance, call or discover
    for record in run[0] + run[1]:
        _check_descriptor(record)
    if core._read_document(mt, payload) is None:
        assert run == _clean_fuzz_run()
