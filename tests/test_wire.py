"""Wire framing: golden byte fixtures and rejection of corrupt frames.

The golden bytes are written out longhand from the documented header
layout, so a codec regression cannot hide behind its own round-trip.
"""

import pytest

import dfp.middleware.core as core
from dfp.middleware import (
    Domain,
    Loopback,
    QoSProfile,
    Reliability,
    ServiceDescriptor,
    TopicDescriptor,
    type_hash_of,
)
from dfp.middleware.wire import (
    HEADER_LEN,
    Frame,
    FrameError,
    MsgType,
    decode_frame,
    encode_frame,
)


def u8(x):
    return bytes([x])


def be(x, width):
    return x.to_bytes(width, "big")


def golden(msg_type, flags, pid, eid, seq, payload):
    return (
        b"DFP1" + u8(0x01) + u8(msg_type) + u8(flags) + u8(0x00)
        + be(pid, 8) + be(eid, 4) + be(seq, 8) + be(len(payload), 4) + payload
    )


def test_header_is_32_bytes():
    assert HEADER_LEN == 32


def test_data_frame_golden_bytes():
    frame = Frame(MsgType.DATA, 0, 1, 2, 0, b"hi")
    raw = encode_frame(frame)
    assert len(raw) == 34
    assert raw[:8] == bytes([0x44, 0x46, 0x50, 0x31, 0x01, 0x00, 0x00, 0x00])
    assert raw == golden(0, 0, 1, 2, 0, b"hi")


GOLDEN_CASES = [
    # (frame, expected bytes) -- one per message type
    (Frame(MsgType.DATA, 0x01, 7, 3, 41, b"abc"), golden(0, 0x01, 7, 3, 41, b"abc")),
    (Frame(MsgType.ANNOUNCE, 0x02, 1, 0, 0, b"{}"), golden(1, 0x02, 1, 0, 0, b"{}")),
    (Frame(MsgType.SUBSCRIBE, 0x00, 2, 9, 0, b"{}"), golden(2, 0x00, 2, 9, 0, b"{}")),
    (Frame(MsgType.REQUEST, 0x00, 5, 0, 77, b"\x00\x04diagPING"),
     golden(3, 0x00, 5, 0, 77, b"\x00\x04diagPING")),
    (Frame(MsgType.RESPONSE, 0x00, 6, 0, 77, be(5, 8) + u8(0) + b"PONG"),
     golden(4, 0x00, 6, 0, 77, be(5, 8) + u8(0) + b"PONG")),
    (Frame(MsgType.HEARTBEAT, 0x00, 4, 0, 0, b""), golden(5, 0x00, 4, 0, 0, b"")),
    (Frame(MsgType.NACK, 0x00, 8, 11, 0, b'{"missing":[2,3]}'),
     golden(6, 0x00, 8, 11, 0, b'{"missing":[2,3]}')),
]


@pytest.mark.parametrize("frame,raw", GOLDEN_CASES, ids=[f.msg_type.name for f, _ in GOLDEN_CASES])
def test_every_msg_type_round_trips_bit_exactly(frame, raw):
    assert encode_frame(frame) == raw
    back = decode_frame(raw)
    assert back == frame
    assert encode_frame(back) == raw


def test_extreme_field_values_round_trip():
    frame = Frame(MsgType.DATA, 0x03, 2**64 - 1, 2**32 - 1, 2**64 - 1, b"\xff" * 17)
    assert decode_frame(encode_frame(frame)) == frame


def test_corrupted_magic_rejected():
    raw = bytearray(golden(0, 0, 1, 2, 0, b"hi"))
    raw[0] ^= 0xFF
    with pytest.raises(FrameError, match="magic"):
        decode_frame(bytes(raw))


def test_corrupted_version_rejected():
    raw = bytearray(golden(0, 0, 1, 2, 0, b"hi"))
    raw[4] = 0x02
    with pytest.raises(FrameError, match="version"):
        decode_frame(bytes(raw))


def test_truncated_frame_rejected():
    raw = golden(0, 0, 1, 2, 0, b"hi")
    with pytest.raises(FrameError, match="truncated"):
        decode_frame(raw[:10])


def test_payload_length_mismatch_rejected():
    raw = golden(0, 0, 1, 2, 0, b"hi") + b"trailing"
    with pytest.raises(FrameError, match="length mismatch"):
        decode_frame(raw)


def test_unknown_msg_type_rejected():
    raw = bytearray(golden(0, 0, 1, 2, 0, b""))
    raw[5] = 0x2A
    with pytest.raises(FrameError, match="msg_type"):
        decode_frame(bytes(raw))


def test_reserved_flag_bits_rejected():
    raw = bytearray(golden(0, 0, 1, 2, 0, b""))
    raw[6] = 0x80
    with pytest.raises(FrameError, match="flag"):
        decode_frame(bytes(raw))


@pytest.mark.parametrize("field,value", [
    ("flags", 0x100),
    ("participant_id", 2**64),
    ("entity_id", 2**32),
    ("seq", -1),
    ("seq", 2**64),
])
def test_frame_constructor_rejects_a_field_outside_its_slot(field, value):
    fields = dict(msg_type=MsgType.DATA, flags=0, participant_id=1, entity_id=2, seq=0,
                  payload=b"")
    fields[field] = value
    with pytest.raises(FrameError, match=f"{field} out of range"):
        Frame(**fields)


@pytest.mark.parametrize("msg_type", list(MsgType), ids=[m.name for m in MsgType])
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_a_decoded_frame_holds_the_members_and_bytes_it_promises(msg_type, wrap):
    frame = decode_frame(wrap(golden(msg_type.value, 0x01, 3, 4, 5, b"body")))
    assert frame.msg_type is msg_type
    assert type(frame.payload) is bytes and frame.payload == b"body"
    assert hash(frame) == hash(Frame(msg_type, 0x01, 3, 4, 5, b"body"))
    with pytest.raises(AttributeError):
        frame.seq = 6
    with pytest.raises(AttributeError):
        frame.extra = 1
    assert frame == Frame(msg_type, 0x01, 3, 4, 5, b"body")


from hypothesis import given, strategies as st  # noqa: E402


@given(
    msg_type=st.sampled_from(list(MsgType)),
    flags=st.integers(min_value=0, max_value=3),
    pid=st.integers(min_value=0, max_value=2**64 - 1),
    eid=st.integers(min_value=0, max_value=2**32 - 1),
    seq=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=256),
)
def test_any_frame_round_trips(msg_type, flags, pid, eid, seq, payload):
    frame = Frame(msg_type, flags, pid, eid, seq, payload)
    raw = encode_frame(frame)
    assert len(raw) == HEADER_LEN + len(payload)
    assert decode_frame(raw) == frame


def test_only_the_loopback_path_calls_the_codec_bound_in_core(monkeypatch):
    # the benchmark's tracer times the wire by wrapping these two module names
    calls = {"encode": 0, "decode": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(core, "encode_frame", counting("encode", core.encode_frame))
    monkeypatch.setattr(core, "decode_frame", counting("decode", core.decode_frame))
    t = TopicDescriptor("codec/probe", type_hash_of("c"), QoSProfile(Reliability.RELIABLE))

    d = Domain()
    w, r = d.create_participant("w"), d.create_participant("r")
    sub, pub = r.create_subscriber(t), w.create_publisher(t)
    w.register_service(ServiceDescriptor("codec/echo"), lambda req: req)
    pub.publish(b"x")
    assert [s.data for s in sub.take()] == [b"x"]
    assert r.call("codec/echo", b"q") == b"q"
    assert calls == {"encode": 0, "decode": 0}  # the in-process plane never serialises

    d = Domain()
    w, r = d.create_participant("w", Loopback(7301)), d.create_participant("r", Loopback(7301))
    sub, pub = r.create_subscriber(t), w.create_publisher(t)
    d.spin()
    before = dict(calls)
    pub.publish(b"y")
    d.spin()
    assert [s.data for s in sub.take()] == [b"y"]
    assert calls["encode"] > before["encode"] and calls["decode"] > before["decode"]
