"""DFP1 wire framing for the loopback transport and the discovery plane.

Every frame starts with a fixed 32-byte big-endian header::

    magic           4 bytes     0x44 0x46 0x50 0x31 ("DFP1")
    version         u8          0x01
    msg_type        u8          see MsgType
    flags           u8          bit0 = reliable, bit1 = transient_local,
                                remaining bits reserved, must be 0
    reserved        u8          0x00
    participant_id  u64         sender participant
    entity_id       u32         sender endpoint, 0 for participant-level frames
    seq             u64         sample sequence / request id / 0
    payload_len     u32         number of payload bytes that follow

A ``Frame`` is a tuple of the header fields that vary, msg_type through
seq, and the payload. Its constructor checks that each field fits its
slot. ``decode_frame`` checks each header field once, in header order, and
builds the frame without running those checks a second time, since a
field unpacked from its slot always fits it.

The framing is DFP-specific. It borrows the header-then-payload shape of
automotive service middlewares but is not conformant to any of them.

Payload conventions by message type (above the framing layer):

- DATA: raw application payload bytes.
- ANNOUNCE / HEARTBEAT / SUBSCRIBE / NACK: UTF-8 JSON control documents.
- REQUEST: u16 service-name length, service name bytes, request bytes.
- RESPONSE: u64 caller participant id, u8 status (0 ok, 1 fault),
  then response bytes (ok) or u32 fault code + UTF-8 message (fault).
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from dfp import DfpError

MAGIC = b"DFP1"
VERSION = 0x01

_HEADER = struct.Struct(">4sBBBBQIQI")
HEADER_LEN = _HEADER.size  # 32

FLAG_RELIABLE = 0x01
FLAG_TRANSIENT_LOCAL = 0x02
_KNOWN_FLAGS = FLAG_RELIABLE | FLAG_TRANSIENT_LOCAL

MAX_WIRE_PAYLOAD = 2**32 - 1


class MsgType(enum.IntEnum):
    DATA = 0
    ANNOUNCE = 1
    SUBSCRIBE = 2
    REQUEST = 3
    RESPONSE = 4
    HEARTBEAT = 5
    NACK = 6


_MSG_TYPES = tuple(MsgType)  # the members in value order: the values run 0, 1, 2, ...


class FrameError(DfpError):
    """Malformed frame: bad magic, version, length or field range."""


class _FrameFields(NamedTuple):
    msg_type: MsgType
    flags: int
    participant_id: int
    entity_id: int
    seq: int
    payload: bytes


class Frame(_FrameFields):
    """One DFP1 frame: an immutable, hashable tuple of its header fields
    and payload.

    Constructing a frame checks that each field fits its header slot and
    raises ``FrameError`` otherwise. Being a tuple, a frame compares equal
    to a plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, msg_type: MsgType, flags: int, participant_id: int, entity_id: int,
                seq: int, payload: bytes):
        if not 0 <= flags <= 0xFF:
            raise FrameError(f"flags out of range: {flags}")
        if not 0 <= participant_id < 2**64:
            raise FrameError(f"participant_id out of range: {participant_id}")
        if not 0 <= entity_id < 2**32:
            raise FrameError(f"entity_id out of range: {entity_id}")
        if not 0 <= seq < 2**64:
            raise FrameError(f"seq out of range: {seq}")
        if len(payload) > MAX_WIRE_PAYLOAD:
            raise FrameError("payload exceeds u32 length field")
        return tuple.__new__(cls, (msg_type, flags, participant_id, entity_id, seq, payload))


def encode_frame(frame: Frame) -> bytes:
    msg_type, flags, pid, eid, seq, payload = frame
    return _HEADER.pack(MAGIC, VERSION, msg_type, flags, 0, pid, eid, seq, len(payload)) + payload


def decode_frame(buf: bytes) -> Frame:
    """Parse one frame, or raise ``FrameError`` naming the first bad field."""
    size = len(buf)
    if size < HEADER_LEN:
        raise FrameError(f"frame truncated: {size} bytes, header needs {HEADER_LEN}")
    magic, version, msg_type, flags, reserved, pid, eid, seq, plen = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version:#x}")
    if reserved != 0:
        raise FrameError(f"reserved byte must be 0, got {reserved:#x}")
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"reserved flag bits set: {flags:#04x}")
    if msg_type >= len(_MSG_TYPES):
        raise FrameError(f"unknown msg_type {msg_type}")
    if size != HEADER_LEN + plen:
        raise FrameError(f"length mismatch: payload_len={plen}, frame has {size - HEADER_LEN}")
    # each field fits its slot, so Frame's constructor checks would all pass
    return tuple.__new__(Frame, (_MSG_TYPES[msg_type], flags, pid, eid, seq,
                                 bytes(buf[HEADER_LEN:])))
