"""Dynamic discovery: announcements, liveliness expiry, loopback planes."""

import json

import pytest

from dfp.middleware import (
    Domain,
    Frame,
    Loopback,
    MiddlewareError,
    MsgType,
    QoSProfile,
    ServiceDescriptor,
    TopicDescriptor,
    TransportUnavailable,
    decode_frame,
    type_hash_of,
)
from dfp.middleware.core import HEARTBEAT_PERIOD_NS, LIVELINESS_PERIODS


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
], ids=["heartbeat_list", "heartbeat_str", "heartbeat_null", "nack_list"])
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
