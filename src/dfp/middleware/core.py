"""Participants, endpoints, discovery and the two transports.

A ``Domain`` is the desk-scale communication universe: it owns the clock,
the in-process plane and the loopback buses. ``Domain.create_participant``
picks a participant's transport once, and the participant holds it as
``_net``. Discovery, endpoints, services and ``spin`` are shared; the
transport owns every operation that differs between the two:

- ``InProcess()`` joins the domain's ``_InProcPlane``. Endpoints match
  synchronously through per-topic state, samples are references into the
  topic's slot arena (no payload copies), and announcements and calls
  reach peers as direct calls, so nothing is ever serialised and the
  inbox stays empty: a record reaches a peer as the typed value its
  announcer built. Nothing is lost, so nothing is asked for again, and a
  publisher keeps a retained ring only for a transient-local topic.
- ``Loopback(port)`` joins the ``_LoopbackBus`` that all participants on that
  port share. ``send`` DFP1-encodes every frame, and the bus itself draws a
  seeded drop per (frame, receiver) at the port's ``Domain.set_loss``
  probability. The bus runs the wire protocol
  over each participant's inbox and its subscribers' receive state:
  matching from announcements, NACK-driven retransmission for reliable
  topics, gaps, and transient-local replay, so a publisher keeps a retained
  ring for a reliable or a transient-local topic. Each participant keeps a
  route table from a matched publisher's ``(pid, eid)`` to its readers'
  receive states: matching fills it, unmatching empties it, and a DATA
  frame goes through it to those readers alone. A publisher's entity id
  fits u32 from its allocation, which refuses an id past u32 on either
  transport before anything is registered; its participant id and flags
  pass ``Frame``'s checks once, in its ANNOUNCE at creation, so its DATA
  frames are built with only the seq checked.

Discovery records are typed values (the control documents below): a peer's
record crosses into a participant once, through ``_read_document`` on the
loopback bus, which turns each ANNOUNCE, SUBSCRIBE, HEARTBEAT or NACK
payload into its value or refuses it, and a refused frame is dropped.
Nothing after the reader checks or parses the record again. The bus does
the wire's duties with the value (matching a publisher, courting a
subscriber, applying a gap, answering a NACK); the participant keeps only
its discovery database.

Services (``register_service`` / ``call``): each participant's discovery
database indexes its service records by name, so ``call`` finds the
provider without walking the records. An in-process call runs the
provider's handler in place and returns its reply, with no request id and
no wait. A loopback call sends a REQUEST with a request id and spins until
the RESPONSE or the timeout (``Timeout``); a reply that arrives later is
discarded. The bus never hands a frame back to its sender, so a loopback
participant that is itself the provider runs its handler in place, as an
in-process call does, and sends no frame. On either transport a
``ServiceFault`` raised by the handler reaches the caller as
``RemoteError`` with its code, and any other exception, or a reply that
is not bytes, as ``RemoteError`` with code 1.
Loopback REQUEST and RESPONSE frames are not retransmitted, so a lost
frame ends the call in ``Timeout``.

Only ``spin`` (``Domain.spin``/``advance``, a waiting ``call``) handles
frames, heartbeats, NACKs and deadlines; ``take`` returns what it delivered.
A participant's spin receives only when its inbox holds a frame, walks its
peers only once the clock reaches the earliest instant one of them could
expire, asks again only for a receive state with a gap before its high
water mark, and checks deadlines only on a topic that has one.
A ``Domain.spin`` at the instant of the last full round, with no frame sent
and no participant created since, returns at once, so an in-process ``call``
at an unchanged clock costs its handler, not a round per participant.
Heartbeats restate every endpoint, any ``close`` leaves the data plane at
once, and tests step the manual clock, so every outcome is reproducible.

Threads: a domain and everything it creates (participants, endpoints,
samples, arenas) belong to one thread at a time, the way an event loop owns
its objects. Nothing here takes a lock, so calls into one domain must not
overlap; a program that shares a domain across threads serializes its own
calls. A handler that calls from inside a spin is not an overlap: it runs
on the spinning thread and gets a full nested round.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from itertools import islice
from typing import NamedTuple, get_type_hints

from dfp import DfpError
from dfp.middleware.arena import (
    DEFAULT_SLOT_COUNT,
    DEFAULT_SLOT_SIZE,
    BufferHandle,
    PayloadTooLarge,
    SlotArena,
)
from dfp.middleware.qos import Durability, QoSError, QoSProfile, Reliability, link
from dfp.middleware.wire import (
    FLAG_RELIABLE,
    FLAG_TRANSIENT_LOCAL,
    MAX_WIRE_PAYLOAD,
    Frame,
    FrameError,
    MsgType,
    decode_frame,
    encode_frame,
)
from dfp.util import MS, ManualClock, stable_u64

# the message types a handler branches on, bound once: each read through the
# enum class is a lookup, and a decoded frame holds the member itself, so
# the handlers compare with ``is``
_DATA, _REQUEST, _RESPONSE, _NACK = MsgType.DATA, MsgType.REQUEST, MsgType.RESPONSE, MsgType.NACK

HEARTBEAT_PERIOD_NS = 100 * MS
LIVELINESS_PERIODS = 3
LIVELINESS_NS = LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS
NACK_INTERVAL_NS = 5 * MS
CALL_QUANTUM_NS = 1 * MS

_TOPIC_NAME_RE = re.compile(r"[a-z0-9_/]+")  # a whole name: ``fullmatch``, no trailing newline

# one encoder and one decoder for every control document: ``json.dumps(obj,
# sort_keys=True)`` and ``json.loads`` would give the same text and objects
_encode_json = json.JSONEncoder(sort_keys=True).encode
_decode_json = json.JSONDecoder().decode


class MiddlewareError(DfpError):
    pass


class TypeHashMismatch(MiddlewareError):
    pass


class TransportUnavailable(MiddlewareError):
    pass


class DuplicateService(MiddlewareError):
    pass


class ServiceNotFound(MiddlewareError):
    pass


class Timeout(MiddlewareError):
    pass


class RemoteError(MiddlewareError):
    def __init__(self, code: int, message: str):
        super().__init__(f"service fault {code}: {message}")
        self.code = code
        self.message = message


class ParticipantClosed(MiddlewareError):
    pass


def type_hash_of(schema: str | bytes) -> int:
    """64-bit content hash of a declared payload schema."""
    return stable_u64(b"type", schema if isinstance(schema, bytes) else schema.encode())


class _TopicFields(NamedTuple):
    name: str
    type_hash: int
    qos: QoSProfile = QoSProfile()


class TopicDescriptor(_TopicFields):
    """A named tuple; constructing one raises ``MiddlewareError`` for a bad
    name or a type hash outside u64."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _TOPIC_NAME_RE.fullmatch(self.name):
            raise MiddlewareError(f"bad topic name {self.name!r} (want [a-z0-9_/]+)")
        if not 0 <= self.type_hash < 2**64:
            raise MiddlewareError(f"type_hash out of u64 range: {self.type_hash}")
        return self


class _ServiceFields(NamedTuple):
    service_name: str
    request_type_hash: int = 0
    response_type_hash: int = 0


class ServiceDescriptor(_ServiceFields):
    """A named tuple; constructing one raises ``MiddlewareError`` for an empty name."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.service_name:
            raise MiddlewareError("service_name must be non-empty")
        return self


class InProcess(NamedTuple):
    pass


class Loopback(NamedTuple):
    port: int


# ``discover``'s filter -> the entities it lists
_LISTED = {"topics": ("publisher", "subscriber"), "services": ("service",),
           "all": ("participant", "publisher", "subscriber", "service")}


class DiscoveryRecord(NamedTuple):
    entity: str  # participant | publisher | subscriber | service
    participant_id: int
    descriptor: object
    liveliness_deadline_ns: int


class Sample:
    """One published datum; ``payload`` is a shared buffer reference."""

    __slots__ = ("topic", "seq", "publisher_id", "timestamp_ns", "payload", "_held")

    def __init__(self, topic: str, seq: int, publisher_id: int, timestamp_ns: int,
                 payload: BufferHandle):
        self.topic = topic
        self.seq = seq
        self.publisher_id = publisher_id
        self.timestamp_ns = timestamp_ns
        self.payload = payload
        self._held = True  # the delivery's reference is still held

    @property
    def data(self) -> bytes:
        return self.payload.data

    def release(self) -> None:
        """Drop the delivery's reference so the arena slot can recycle.

        Each delivery is its own sample: a second release does nothing, so
        no over-release reaches a sibling reader's reference, the retained
        ring's, or a later sample in the same slot.
        """
        if self._held:
            self._held = False
            handle = self.payload
            arena = handle._arena  # None for a wire-received payload
            if arena is not None:
                arena.release(handle.slot)


def _publisher_id(participant_id: int, entity_id: int) -> int:
    return ((participant_id << 24) | entity_id) & 0xFFFFFFFFFFFFFFFF


# --------------------------------------------------------------------------
# control documents: a typed value each, declared once, read by one reader
# --------------------------------------------------------------------------
#
# Each control document a peer sends is a named tuple below. Its fields are
# the document's keys, and each field's annotation is a value type: the
# exact check ``_read_document`` applies, a predicate named as the type of
# JSON value it admits. (A plain function, not ``typing.Annotated``, whose
# process-wide cache would keep each import of this module alive.)
# ``_DOCUMENTS`` names the message type and "kind" that carry each
# document. README "Wire format (DFP1)"
# tabulates the same. A participant, publisher, subscriber or service
# record's ``entry`` is its key in a discovery database and the descriptor
# stored there, which ``discover`` lists. The in-process plane hands these
# values to its peers as they are; the loopback bus sends each as its
# document.


def Name(v) -> bool:
    return type(v) is str and v != ""


def TopicName(v) -> bool:
    return type(v) is str and _TOPIC_NAME_RE.fullmatch(v) is not None


def U64(v) -> bool:
    return type(v) is int and 0 <= v < 2**64  # a bool is not an int


def U32(v) -> bool:
    return type(v) is int and 0 <= v < 2**32


def QoS(v) -> bool:
    return type(v) is dict  # which the reader then hands to ``QoSProfile.from_json``


def SeqList(v) -> bool:
    return type(v) is list and all(map(U64, v))


def PairList(v) -> bool:  # of [pid, eid]
    return type(v) is list and all(type(m) is list and len(m) == 2 and U64(m[0]) and U32(m[1])
                                   for m in v)


class _ParticipantRecord(NamedTuple):
    """A participant's record, stated when it joins."""

    name: Name

    def entry(self, pid: int, eid: int) -> tuple:
        return ("participant", pid), self.name


class _Heartbeat(_ParticipantRecord):
    """A liveliness assertion; it restates the participant's record to a late joiner."""

    __slots__ = ()


class _PublisherRecord(NamedTuple):
    """A publisher's record: its topic, the seq it publishes next, and the
    first seq its ring still holds."""

    topic: TopicName
    type_hash: U64
    qos: QoS
    next_seq: U64
    retained_first: U64

    def entry(self, pid: int, eid: int) -> tuple:
        # the fields passed TopicDescriptor's checks: its own, or the reader's
        return ("publisher", pid, eid), TopicDescriptor._make(self[:3])


class _SubscriberRecord(NamedTuple):
    """A subscriber's record: its topic, and the ``[pid, eid]`` of each
    publisher it has matched, which need not announce or replay again."""

    topic: TopicName
    type_hash: U64
    qos: QoS
    matched: PairList

    def entry(self, pid: int, eid: int) -> tuple:
        return ("subscriber", pid, eid), TopicDescriptor._make(self[:3])


class _ServiceRecord(NamedTuple):
    """A service's record, keyed by its name."""

    name: Name
    request_type_hash: U64
    response_type_hash: U64
    entity_id: U32

    def entry(self, pid: int, eid: int) -> tuple:
        return ("service", pid, self.name), ServiceDescriptor._make(self[:3])


class _Leave(NamedTuple):
    """A graceful close: peers withdraw the sender's records at once."""


class _Gap(NamedTuple):
    """A publisher's ring no longer holds the seqs before ``first_available``."""

    topic: TopicName
    first_available: U64


class _Nack(NamedTuple):
    """A reader asks publisher ``(target_pid, target_eid)`` to resend ``missing``."""

    target_pid: U64
    target_eid: U32
    topic: TopicName
    missing: SeqList


# (message type, "kind") -> the value its document reads into; a NACK has no kind
_DOCUMENTS = {
    (MsgType.ANNOUNCE, "participant"): _ParticipantRecord,
    (MsgType.HEARTBEAT, "heartbeat"): _Heartbeat,
    (MsgType.ANNOUNCE, "publisher"): _PublisherRecord,
    (MsgType.SUBSCRIBE, "subscriber"): _SubscriberRecord,
    (MsgType.ANNOUNCE, "service"): _ServiceRecord,
    (MsgType.ANNOUNCE, "leave"): _Leave,
    (MsgType.ANNOUNCE, "gap"): _Gap,
    (MsgType.NACK, None): _Nack,
}
_SENT_AS = {cls: frame for frame, cls in _DOCUMENTS.items()}
# (message type, "kind") -> each of its value's keys, with the key's value type
_CHECKS = {frame: get_type_hints(cls) for frame, cls in _DOCUMENTS.items()}


def _read_document(mt: MsgType, payload: bytes):
    """The typed value of a peer's control document, or None to drop it.

    The payload must be a UTF-8 JSON object that ``_DOCUMENTS`` declares
    for ``mt`` and its "kind", with exactly its value's keys, each value of
    its declared type. Nothing that reads the value checks it again.
    """
    try:  # a ValueError: not UTF-8 JSON; a RecursionError: nested past the parser
        doc = _decode_json(payload.decode())
        if type(doc) is not dict:
            return None
        # a NACK's "kind" stays in ``doc`` and fails the key check
        kind = None if mt is _NACK else doc.pop("kind", None)
        checks = _CHECKS.get((mt, kind)) if kind is None or type(kind) is str else None
        if (checks is None or doc.keys() != checks.keys()
                or not all(check(doc[key]) for key, check in checks.items())):
            return None
        if "qos" in doc:
            doc["qos"] = QoSProfile.from_json(doc["qos"])
    except (ValueError, RecursionError, QoSError):
        return None
    return _DOCUMENTS[mt, kind](**doc)


class ServiceFault(MiddlewareError):
    """Raise inside a handler to return a typed fault to the caller."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# --------------------------------------------------------------------------
# discovery database (per participant)
# --------------------------------------------------------------------------


class _DiscoveryDb:
    def __init__(self, self_id: int):
        self.self_id = self_id
        self.peer_last_hb: dict[int, int] = {}
        # ("publisher"|"subscriber", pid, eid), ("service", pid, name) or
        # ("participant", pid) -> what ``discover`` lists: a TopicDescriptor,
        # a ServiceDescriptor or the participant's name
        self.records: dict[tuple, object] = {}
        # service name -> its keys in ``records``, in ``records`` order, so
        # the first is the provider a scan of ``records`` would find first
        self.services: dict[str, list[tuple]] = {}
        # no peer can expire before this instant: a heartbeat only moves a
        # peer's expiry later, and a peer first heard at or after the last
        # walk expires no earlier than this bound
        self._prune_at = 0

    def heartbeat(self, pid: int, now: int) -> None:
        self.peer_last_hb[pid] = now

    def add(self, key: tuple, descriptor, now: int) -> None:
        if key[0] == "service" and key not in self.records:
            self.services.setdefault(key[2], []).append(key)
        self.records[key] = descriptor
        self.heartbeat(key[1], now)

    def remove_participant(self, pid: int) -> list[tuple]:
        gone = [k for k in self.records if k[1] == pid]
        for k in gone:
            del self.records[k]
            if k[0] == "service":
                keys = self.services[k[2]]
                keys.remove(k)
                if not keys:
                    del self.services[k[2]]
        self.peer_last_hb.pop(pid, None)
        return gone

    def prune(self, now: int) -> list[tuple]:
        if now < self._prune_at:
            return []
        dead = [pid for pid, last in self.peer_last_hb.items()
                if pid != self.self_id and now - last >= LIVELINESS_NS]
        gone: list[tuple] = []
        for pid in dead:
            gone.extend(self.remove_participant(pid))
        # a peer heard from now on has its last heartbeat at ``now`` or later
        self._prune_at = min((last for pid, last in self.peer_last_hb.items()
                              if pid != self.self_id), default=now) + LIVELINESS_NS
        return gone

    def deadline_for(self, pid: int, now: int) -> int:
        if pid == self.self_id:
            return now + LIVELINESS_NS
        return self.peer_last_hb.get(pid, now) + LIVELINESS_NS


# --------------------------------------------------------------------------
# transports: each owns what differs; a participant holds one as ``_net``
# --------------------------------------------------------------------------


class _LoopbackBus:
    """One loopback port and the DFP1 wire protocol of its participants.

    The bus keeps no per-participant object: a participant's receive state
    is its ``_inbox``, its subscribers' ``_recv`` and the ``_routes`` that
    index those by publisher. It drops each (frame,
    receiver) edge with ``drop_probability``, one draw of its seeded
    generator per edge.
    """

    def __init__(self, domain: "Domain", drop_probability: float, seed: int):
        self.domain = domain
        self.drop_probability = drop_probability
        self._rng = random.Random(seed)
        self.endpoints: list[Participant] = []
        self.frame_log: list[tuple[int, bytes]] = []  # (sender pid, raw frame)
        self.dropped_frames = 0

    def join(self, p: Participant) -> None:
        self.endpoints.append(p)

    def detach(self, p: Participant) -> None:
        self.endpoints.remove(p)

    # -- sending -----------------------------------------------------------

    def send(self, sender: Participant, frame: Frame) -> None:
        raw = encode_frame(frame)
        self.frame_log.append((sender.participant_id, raw))
        loss = self.drop_probability
        for ep in self.endpoints:
            if ep is sender:
                continue
            if loss and self._rng.random() < loss:
                self.dropped_frames += 1
                continue
            ep._inbox.append(raw)
        # marked after queueing: a round that clears the mark later also
        # finds these frames
        self.domain._stirred = True

    def broadcast(self, p: Participant, msg_type: MsgType, payload_obj: dict,
                  entity_id: int = 0, flags: int = 0) -> None:
        self.send(p, Frame(msg_type, flags, p.participant_id, entity_id, 0,
                           _encode_json(payload_obj).encode()))

    def send_control(self, p: Participant, doc, entity_id: int = 0) -> None:
        """Send a control value as its JSON document: its fields, its kind,
        and a qos as ``to_json`` writes it. A publisher's ANNOUNCE carries
        the flags of its DATA frames."""
        msg_type, kind = _SENT_AS[type(doc)]
        obj = doc._asdict() if kind is None else {"kind": kind, **doc._asdict()}
        if "qos" in obj:
            obj["qos"] = doc.qos.to_json()
        flags = _qos_flags(doc.qos) if kind == "publisher" else 0
        self.broadcast(p, msg_type, obj, entity_id, flags)

    def _send_data(self, pub: Publisher, seq: int, payload: bytes) -> None:
        # the publisher's entity id fit u32 when it was allocated, and its
        # participant id and flags passed Frame's checks in its ANNOUNCE at
        # creation; only the seq moves since
        if not 0 <= seq < 2**64:
            raise FrameError(f"seq out of range: {seq}")
        participant = pub.participant
        self.send(participant, tuple.__new__(Frame, (
            _DATA, pub._qos_flags, participant.participant_id, pub.entity_id, seq, payload)))

    def _check_known_topic(self, p: Participant, desc: TopicDescriptor) -> None:
        for key, known in p._db.records.items():
            if (key[0] in ("publisher", "subscriber") and known.name == desc.name
                    and known.type_hash != desc.type_hash):
                raise TypeHashMismatch(f"topic {desc.name!r} is announced with type_hash "
                                       f"{known.type_hash:#x}, got {desc.type_hash:#x}")

    def new_publisher(self, p: Participant, topic: TopicDescriptor) -> Publisher:
        self._check_known_topic(p, topic)
        # the ring replays transient-local topics and resends reliable ones
        qos = topic.qos
        return Publisher(p, topic, p._alloc_entity(), None,
                         retains=(qos.durability == Durability.TRANSIENT_LOCAL
                                  or qos.reliability == Reliability.RELIABLE))

    def new_subscriber(self, p: Participant, topic: TopicDescriptor) -> Subscriber:
        self._check_known_topic(p, topic)
        return Subscriber(p, topic, p._alloc_entity())

    def publish(self, pub: Publisher, seq: int, payload: bytes) -> None:
        if len(payload) > MAX_WIRE_PAYLOAD:
            raise PayloadTooLarge("payload exceeds the u32 wire length field")
        # sent first: a seq out of range raises before the ring takes it
        self._send_data(pub, seq, payload)
        if pub._retains:
            pub._retained.append((seq, payload))

    def call(self, p: Participant, provider: int, service_name: str, request: bytes,
             timeout_ms: int) -> tuple[int, bytes, int]:
        """Send a REQUEST and spin the domain until its RESPONSE or the timeout.

        The REQUEST reaches every other participant on the port, and whoever
        provides ``service_name`` answers; the request id pairs the answer
        with this call, and a RESPONSE that comes later finds no slot. The
        bus never delivers a frame to its sender, so a participant that
        provides the service itself runs its handler in place.
        """
        if provider == p.participant_id:
            return p.services[service_name].answer(request)
        request_id = p._next_request_id
        p._next_request_id += 1
        slot: list = []
        p._pending_calls[request_id] = slot
        try:
            name_b = service_name.encode()
            payload = len(name_b).to_bytes(2, "big") + name_b + request
            self.send(p, Frame(_REQUEST, 0, p.participant_id, 0, request_id, payload))
            deadline = self.domain.now_ns() + timeout_ms * MS
            while True:
                self.domain.spin()
                if slot:
                    return slot[0]
                now = self.domain.now_ns()
                if now >= deadline:
                    raise Timeout(f"no response from {service_name!r} within {timeout_ms} ms")
                self.domain.clock.advance(min(CALL_QUANTUM_NS, deadline - now))
        finally:
            p._pending_calls.pop(request_id, None)

    def send_response(self, p: Participant, caller_pid: int, request_id: int, status: int,
                      body: bytes, code: int) -> None:
        payload = caller_pid.to_bytes(8, "big") + bytes([status])
        if status != 0:  # a fault carries its code before the message
            payload += code.to_bytes(4, "big")
        self.send(p, Frame(_RESPONSE, 0, p.participant_id, 0, request_id, payload + body))

    def send_nacks(self, p: Participant, sub: Subscriber, now: int) -> None:
        for (pid, eid), state in sub._recv.items():
            # with no seq between expected and high_water, nothing is missing
            if state.expected >= state.high_water or not state.reliable_path:
                continue
            if now - state.last_nack_ns < NACK_INTERVAL_NS:
                continue
            # every pending seq is below high_water: what is missing lies in
            # between; the first 64 are found without walking a wider gap
            missing = list(islice((s for s in range(state.expected, state.high_water)
                                   if s not in state.pending), 64))
            if not missing:
                continue
            state.last_nack_ns = now
            self.send_control(p, _Nack(pid, eid, state.topic, missing), sub.entity_id)

    def _resend(self, pub: Publisher, seqs: list[int]) -> None:
        # the ring holds contiguous seqs from retained_first_seq() to next_seq
        held = range(pub.retained_first_seq(), pub.next_seq)
        for seq in seqs:
            if seq in held:
                self._send_data(pub, seq, pub._retained[seq - held.start][1])
        if not all(seq in held for seq in seqs):
            # retention window moved past the request; tell readers to skip ahead
            self.send_control(pub.participant, _Gap(pub.topic.name, held.start), pub.entity_id)

    # -- receiving (from ``Participant.spin``) ----------------------------

    def receive(self, p: Participant) -> None:
        inbox, routes = p._inbox, p._routes
        while inbox:
            raw = inbox.popleft()
            try:
                frame = decode_frame(raw)
            except FrameError:
                continue  # a corrupt frame is dropped, not fatal
            if frame.msg_type is _DATA:
                # a DATA frame goes to the readers matched with its publisher
                route = routes.get((frame.participant_id, frame.entity_id))
                if route is not None:
                    self._handle_data(route, frame.seq, frame.payload, self.domain.clock.now)
            else:
                self._handle_frame(p, frame)

    def _handle_frame(self, p: Participant, frame: Frame) -> None:
        mt = frame.msg_type
        if mt is _REQUEST:
            if len(frame.payload) < 2:
                return
            name_len = int.from_bytes(frame.payload[:2], "big")
            name = frame.payload[2:2 + name_len].decode(errors="replace")
            ep = p.services.get(name)
            if ep is not None:
                self.send_response(p, frame.participant_id, frame.seq,
                                   *ep.answer(frame.payload[2 + name_len:]))
        elif mt is _RESPONSE:
            if len(frame.payload) < 9:
                return
            caller_pid = int.from_bytes(frame.payload[:8], "big")
            slot = p._pending_calls.get(frame.seq)
            # a late response finds no pending slot and is discarded
            if caller_pid != p.participant_id or slot is None or slot:
                return
            if frame.payload[8] == 0:
                slot.append((0, frame.payload[9:], 0))
            else:
                slot.append((1, frame.payload[13:], int.from_bytes(frame.payload[9:13], "big")))
        else:  # ANNOUNCE, SUBSCRIBE, HEARTBEAT and NACK carry one JSON document
            doc = _read_document(mt, frame.payload)
            kind = type(doc)
            if kind is _Nack:
                pub = p.publishers.get(doc.target_eid)
                if pub is not None and doc.target_pid == p.participant_id:
                    self._resend(pub, doc.missing)
            elif doc is not None:  # a refused document is dropped here
                pid, eid = frame.participant_id, frame.entity_id
                if kind is _PublisherRecord:
                    self._match_publisher(p, pid, eid, doc)
                p._handle_control(pid, eid, doc)
                if kind is _SubscriberRecord:
                    self._court_subscriber(p, doc)
                elif kind is _Gap:
                    self._apply_gap(p, pid, eid, doc.first_available)

    def _match_publisher(self, p: Participant, pid: int, eid: int,
                         record: _PublisherRecord) -> None:
        """Match a peer's publisher record with this participant's readers."""
        next_seq, key = record.next_seq, (pid, eid)
        for sub in p.subscribers.values():
            if sub.topic.name != record.topic or sub.topic.type_hash != record.type_hash:
                continue
            linked = link(record.qos, sub.topic.qos)
            if linked is None:
                continue
            state = sub._recv.get(key)
            if state is not None:
                state.high_water = max(state.high_water, next_seq)
                continue
            reliable, replays = linked
            expected = record.retained_first if replays else next_seq
            state = _RecvState(record.topic, expected, reliable, next_seq, _publisher_id(*key))
            sub._recv[key] = state
            p._routes.setdefault(key, []).append((sub, state))

    def _court_subscriber(self, p: Participant, record: _SubscriberRecord) -> None:
        """Announce, and replay, each of this participant's publishers that
        serves a peer's subscriber which has not matched it yet."""
        for pub in p.publishers.values():
            if (pub.topic.name != record.topic or pub.topic.type_hash != record.type_hash
                    or [p.participant_id, pub.entity_id] in record.matched):
                continue
            linked = link(pub.topic.qos, record.qos)
            if linked is None:
                continue
            p._announce(pub._record(), pub.entity_id)
            if linked[1]:  # replays
                for seq, payload in pub._retained:
                    self._send_data(pub, seq, payload)

    def _apply_gap(self, p: Participant, pid: int, eid: int, first: int) -> None:
        """Skip the readers of publisher ``(pid, eid)`` ahead to ``first``."""
        route = p._routes.get((pid, eid))
        if route is None:
            return
        now = self.domain.clock.now
        for sub, state in route:
            if first <= state.expected:
                continue
            sub.drops_gap += first - state.expected
            state.expected = first
            pending = state.pending
            for stale in [s for s in pending if s < first]:
                del pending[stale]
            if first in pending:
                self._deliver(sub, state, first, pending.pop(first), now)

    def _handle_data(self, route: list, seq: int, payload: bytes, now: int) -> None:
        for sub, state in route:
            if seq >= state.high_water:
                state.high_water = seq + 1
            expected = state.expected
            if seq < expected or seq in state.pending:
                continue  # duplicate or already-superseded sample
            if seq != expected:
                if state.reliable_path:
                    state.pending[seq] = payload  # held until the seqs before it arrive
                    continue
                sub.drops_gap += seq - expected
            self._deliver(sub, state, seq, payload, now)

    def _deliver(self, sub: Subscriber, state: _RecvState, seq: int, payload: bytes,
                 now: int) -> None:
        """Hand ``seq`` to ``sub``, then each pending seq that follows it in order."""
        pending = state.pending
        while True:
            sub._enqueue(Sample(state.topic, seq, state.publisher_id, now, BufferHandle(payload)))
            seq += 1
            if seq not in pending:
                break
            payload = pending.pop(seq)
        state.expected = seq


class _InProcTopic:
    def __init__(self, type_hash: int, arena: SlotArena):
        self.type_hash = type_hash
        self.arena = arena
        self.publishers: list[Publisher] = []
        self.subscribers: list[Subscriber] = []


class _InProcPlane:
    """The domain's zero-copy plane: one per domain, shared by every
    in-process participant. Nothing on it is ever serialised."""

    def __init__(self, domain: "Domain"):
        self.domain = domain
        self.topics: dict[str, _InProcTopic] = {}
        self.participants: list[Participant] = []  # the live ones

    def join(self, p: Participant) -> None:
        # synchronous plane: existing records are visible immediately
        now = self.domain.now_ns()
        for peer in self.participants:
            for key, desc in peer._db.records.items():
                if key[1] == peer.participant_id:
                    p._db.add(key, desc, now)
        self.participants.append(p)

    def detach(self, p: Participant) -> None:
        self.participants.remove(p)
        for state in self.topics.values():
            state.publishers = [pub for pub in state.publishers if pub.participant is not p]
            state.subscribers = [sub for sub in state.subscribers if sub.participant is not p]
            self._rematch(state)
        for sub in p.subscribers.values():
            for sample in sub.take():
                sample.release()
        for pub in p.publishers.values():
            while pub._retained:
                pub._retained.popleft()[1].release()

    def topic_state(self, desc: TopicDescriptor) -> _InProcTopic:
        state = self.topics.get(desc.name)
        if state is None:
            arena = SlotArena(self.domain.arena_slot_size, self.domain.arena_slot_count)
            state = self.topics[desc.name] = _InProcTopic(desc.type_hash, arena)
        elif state.type_hash != desc.type_hash:
            raise TypeHashMismatch(f"topic {desc.name!r} already exists with type_hash "
                                   f"{state.type_hash:#x}, got {desc.type_hash:#x}")
        return state

    def _rematch(self, state: _InProcTopic, replay_to: Subscriber | None = None) -> None:
        # topic_state admits one type hash per topic: every endpoint here shares it
        for pub in state.publishers:
            matched = tuple(sub for sub in state.subscribers
                            if link(pub.topic.qos, sub.topic.qos) is not None)
            newly = replay_to in matched and replay_to not in pub._matched_subs
            pub._matched_subs = matched
            if newly and link(pub.topic.qos, replay_to.topic.qos)[1]:  # replays
                for seq, handle in list(pub._retained):
                    pub._arena.retain(handle.slot)
                    replay_to._enqueue(Sample(pub.topic.name, seq, pub.publisher_id,
                                              self.domain.now_ns(), handle))

    def new_publisher(self, p: Participant, topic: TopicDescriptor) -> Publisher:
        state = self.topic_state(topic)
        # nothing is lost on the plane: the ring only replays transient-local topics
        pub = Publisher(p, topic, p._alloc_entity(), state.arena,
                        retains=topic.qos.durability == Durability.TRANSIENT_LOCAL)
        state.publishers.append(pub)
        self._rematch(state)
        return pub

    def new_subscriber(self, p: Participant, topic: TopicDescriptor) -> Subscriber:
        state = self.topic_state(topic)
        sub = Subscriber(p, topic, p._alloc_entity())
        state.subscribers.append(sub)
        self._rematch(state, replay_to=sub)
        return sub

    def send_control(self, p: Participant, doc, entity_id: int = 0) -> None:
        """Hand the typed value itself to every peer: nothing is serialised."""
        for peer in self.participants:
            if peer is not p:
                peer._handle_control(p.participant_id, entity_id, doc)

    def publish(self, pub: Publisher, seq: int, payload: bytes) -> None:
        # one reference per holder: each matched subscriber, plus the ring
        subs, arena = pub._matched_subs, pub._arena
        handle = arena.acquire(payload, len(subs) + pub._retains)
        if pub._retains:
            ring = pub._retained
            if len(ring) == ring.maxlen:  # the append drops the oldest: release its slot
                arena.release(ring[0][1].slot)
            ring.append((seq, handle))
        # one sample per delivery, every one on the same handle: no copy
        name, pid, now = pub.topic.name, pub.publisher_id, self.domain.clock.now
        for sub in subs:
            sub._enqueue(Sample(name, seq, pid, now, handle))

    def call(self, p: Participant, provider: int, service_name: str, request: bytes,
             timeout_ms: int) -> tuple[int, bytes, int]:
        """Run the provider's handler in place: nothing is lost on the plane,
        so no request id pairs the reply and no timeout can pass."""
        peer = self.domain._participants_by_id[provider]
        if not peer.alive:  # closed silently: its record lives until it expires
            raise ServiceNotFound(f"provider of {service_name!r} is gone")
        return peer.services[service_name].answer(request)

    # an in-process participant's inbox stays empty, since control arrives
    # as calls, so spin never asks the plane to receive; the plane matched,
    # and replayed to, every endpoint when it was created

    def send_nacks(self, p: Participant, sub: Subscriber, now: int) -> None:
        """Nothing is lost on the plane, so nothing is asked for again."""


# --------------------------------------------------------------------------
# endpoints
# --------------------------------------------------------------------------


class Publisher:
    def __init__(self, participant: "Participant", topic: TopicDescriptor, entity_id: int,
                 arena: SlotArena | None, retains: bool):
        self.participant = participant
        self._net = participant._net
        self.topic = topic
        self.entity_id = entity_id
        self.publisher_id = _publisher_id(participant.participant_id, entity_id)
        self._qos_flags = _qos_flags(topic.qos)  # the DFP1 flags of its DATA and ANNOUNCE frames
        self.next_seq = 0
        self._arena = arena  # None on the loopback path
        # retained ring: (seq, handle-or-bytes), kept when the transport says
        # so; serves transient-local replay and reliable retransmission. An
        # append past the history depth drops the oldest (no depth: keep all)
        self._retained: deque = deque(maxlen=topic.qos.history.depth)
        self._retains = retains
        self._matched_subs: tuple = ()
        self.published_count = 0

    def retained_first_seq(self) -> int:
        return self._retained[0][0] if self._retained else self.next_seq

    def _record(self) -> _PublisherRecord:
        return _PublisherRecord(*self.topic, self.next_seq, self.retained_first_seq())

    def publish(self, payload: bytes) -> int:
        if not self.participant.alive:  # checked inline: publish is a hot path
            self.participant._require_alive()
        if type(payload) is not bytes and not isinstance(payload, bytes):
            if not isinstance(payload, (bytearray, memoryview)):
                raise MiddlewareError("payload must be bytes-like")
            payload = bytes(payload)
        seq = self.next_seq
        self._net.publish(self, seq, payload)
        self.next_seq = seq + 1
        self.published_count += 1
        return seq

    def matched_subscriptions(self) -> int:
        return len(self._matched_subs)


class _RecvState:
    """Per matched remote publisher, on the subscriber side (loopback)."""

    __slots__ = ("topic", "expected", "pending", "last_nack_ns", "reliable_path",
                 "high_water", "publisher_id")

    def __init__(self, topic: str, expected: int, reliable_path: bool, high_water: int,
                 publisher_id: int):
        self.topic = topic
        self.expected = expected
        self.pending: dict[int, bytes] = {}
        self.last_nack_ns = -(10**18)
        self.reliable_path = reliable_path
        # highest next_seq the publisher has announced; lets the reader
        # notice trailing losses that no later data frame would reveal
        self.high_water = high_water
        self.publisher_id = publisher_id  # stamped on every sample delivered from it


class Subscriber:
    def __init__(self, participant: "Participant", topic: TopicDescriptor, entity_id: int):
        self.participant = participant
        self.topic = topic
        self.entity_id = entity_id
        # an append past the history depth drops the oldest (no depth: keep all)
        self._queue: deque[Sample] = deque(maxlen=topic.qos.history.depth)
        # loopback receive protocol state, keyed by (pid, eid)
        self._recv: dict[tuple[int, int], _RecvState] = {}
        self.delivered_count = 0
        self.drops_overflow = 0
        self.drops_gap = 0
        self.deadline_misses = 0
        self._deadline_ns = (topic.qos.deadline_ms * MS
                             if topic.qos.deadline_ms is not None else None)
        self._last_activity_ns = participant.domain.now_ns()

    def _enqueue(self, sample: Sample) -> None:
        queue = self._queue
        if len(queue) == queue.maxlen:  # the append drops the oldest: release it
            queue[0].release()
            self.drops_overflow += 1
        queue.append(sample)
        self.delivered_count += 1
        self._last_activity_ns = sample.timestamp_ns

    def take(self, max_n: int | None = None) -> list[Sample]:
        """Remove and return up to ``max_n`` samples, oldest first.

        Ownership of each returned sample's buffer reference moves to the
        caller; call ``sample.release()`` when done with the payload.
        """
        out: list[Sample] = []
        while self._queue and (max_n is None or len(out) < max_n):
            out.append(self._queue.popleft())
        return out

    def queued(self) -> int:
        return len(self._queue)

    def _record(self) -> _SubscriberRecord:
        return _SubscriberRecord(*self.topic, [[pid, eid] for pid, eid in sorted(self._recv)])

    def _check_deadline(self, now: int) -> None:
        """Count the deadlines missed by ``now``; spin calls this only when
        the topic has a deadline."""
        while now - self._last_activity_ns >= self._deadline_ns:
            self.deadline_misses += 1
            self._last_activity_ns += self._deadline_ns


class _ServiceEndpoint:
    def __init__(self, descriptor: ServiceDescriptor, entity_id: int, handler):
        self.descriptor = descriptor
        self.entity_id = entity_id
        self.handler = handler

    def _record(self) -> _ServiceRecord:
        return _ServiceRecord(*self.descriptor, self.entity_id)

    def answer(self, request: bytes) -> tuple[int, bytes, int]:
        """Run the handler: ``(status, body, code)`` is ``(0, reply, 0)``, or
        ``(1, message, code)`` when the handler fails, on either transport."""
        try:
            result = self.handler(request)
            if not isinstance(result, (bytes, bytearray)):
                raise TypeError("service handler must return bytes")
        except ServiceFault as exc:
            return 1, exc.message.encode(), exc.code
        except Exception as exc:  # handler fault propagates as a coded error
            return 1, str(exc).encode(), 1
        return 0, bytes(result), 0


# --------------------------------------------------------------------------
# participant
# --------------------------------------------------------------------------


class Participant:
    def __init__(self, domain: "Domain", participant_id: int, name: str, net):
        self.domain = domain
        self.participant_id = participant_id
        self.name = name
        self.alive = True
        self._next_entity = 1
        self.publishers: dict[int, Publisher] = {}
        self.subscribers: dict[int, Subscriber] = {}
        self.services: dict[str, _ServiceEndpoint] = {}  # by service name
        self._db = _DiscoveryDb(participant_id)
        self._inbox: deque[bytes] = deque()  # loopback frames waiting for spin
        # loopback route table: (pid, eid) of a matched remote publisher ->
        # [(subscriber, its receive state)], one entry per subscriber's ``_recv``
        self._routes: dict[tuple[int, int], list[tuple[Subscriber, _RecvState]]] = {}
        self._pending_calls: dict[int, list] = {}  # loopback calls awaiting a RESPONSE
        self._next_request_id = 1
        self._next_hb_ns = domain.now_ns()  # first heartbeat due immediately
        self._net = net  # _InProcPlane or _LoopbackBus: owns every operation that differs

    # -- lifecycle ---------------------------------------------------------

    def close(self, graceful: bool = True) -> None:
        """Leave the domain. Endpoints leave the data plane at once; a graceful
        close also withdraws records immediately, otherwise peers expire them
        after the liveliness window."""
        if not self.alive:
            return
        if graceful:
            self._net.send_control(self, _Leave())
        self._net.detach(self)
        self.alive = False

    def _require_alive(self) -> None:
        if not self.alive:
            raise ParticipantClosed(f"participant {self.name!r} is closed")

    # -- endpoint creation ---------------------------------------------------

    def create_publisher(self, topic: TopicDescriptor) -> Publisher:
        self._require_alive()
        return self._open(self.publishers, self._net.new_publisher(self, topic))

    def create_subscriber(self, topic: TopicDescriptor) -> Subscriber:
        self._require_alive()
        return self._open(self.subscribers, self._net.new_subscriber(self, topic))

    def register_service(self, descriptor: ServiceDescriptor, handler) -> None:
        self._require_alive()
        self._prune_db()
        name = descriptor.service_name
        if name in self._db.services:
            raise DuplicateService(f"service {name!r} is already registered")
        self._open(self.services, _ServiceEndpoint(descriptor, self._alloc_entity(), handler), name)

    def _open(self, endpoints: dict, ep, key=None):
        """Register a new endpoint under ``key``, by default its entity id,
        and announce it."""
        endpoints[ep.entity_id if key is None else key] = ep
        self._announce(ep._record(), ep.entity_id)
        return ep

    def _alloc_entity(self) -> int:
        """The next entity id; every transport calls this before it registers
        anything, so an id past u32 leaves the participant as it was."""
        eid = self._next_entity
        if eid >= 2**32:
            raise MiddlewareError(f"entity_id out of range: {eid}")
        self._next_entity = eid + 1
        return eid

    # -- discovery ------------------------------------------------------------

    def discover(self, filter: str = "all") -> list[DiscoveryRecord]:
        """Snapshot of live records: 'topics', 'services' or 'all'."""
        if filter not in _LISTED:
            raise MiddlewareError(f"bad discover filter {filter!r}")
        self._prune_db()
        now, listed = self.domain.now_ns(), _LISTED[filter]
        return [DiscoveryRecord(kind, pid, desc, self._db.deadline_for(pid, now))
                for (kind, pid, *_), desc in sorted(self._db.records.items(),
                                                    key=lambda kv: repr(kv[0]))
                if kind in listed]

    def _prune_db(self) -> None:
        gone = self._db.prune(self.domain.now_ns())
        self._unmatch(gone)

    def _unmatch(self, gone_keys: list[tuple]) -> None:
        for key in gone_keys:
            if key[0] != "publisher":
                continue
            pub_key = (key[1], key[2])
            for sub, _ in self._routes.pop(pub_key, ()):
                del sub._recv[pub_key]

    # -- announcements ---------------------------------------------------------

    def _announce(self, record, entity_id: int = 0) -> None:
        """State one of this participant's records, its own or an endpoint's:
        it enters this participant's own database and goes out to every peer."""
        self._db.add(*record.entry(self.participant_id, entity_id), self.domain.now_ns())
        self._net.send_control(self, record, entity_id)

    # -- client/server ------------------------------------------------------------

    def call(self, service_name: str, request: bytes, timeout_ms: int = 1000) -> bytes:
        self._require_alive()
        # the round prunes this participant at this instant, or a round at
        # this instant already did and nothing has happened since
        self.domain.spin()
        providers = self._db.services.get(service_name)
        if providers is None:
            raise ServiceNotFound(f"no live provider for service {service_name!r}")
        provider = providers[0][1]
        status, body, code = self._net.call(self, provider, service_name, request, timeout_ms)
        if status == 0:
            return body
        raise RemoteError(code, body.decode(errors="replace"))

    # -- spin: frames, heartbeats, liveliness, nacks ----------------------------

    def spin(self) -> None:
        """Process queued frames and run periodic protocol duties."""
        if not self.alive:
            return
        if self._inbox:
            self._net.receive(self)
        now = self.domain.now_ns()
        if now >= self._next_hb_ns:
            self._heartbeat()
            self._next_hb_ns = now + HEARTBEAT_PERIOD_NS
        self._prune_db()
        for sub in self.subscribers.values():
            self._net.send_nacks(self, sub, now)
            if sub._deadline_ns is not None:
                sub._check_deadline(now)

    def _heartbeat(self) -> None:
        self._announce(_Heartbeat(self.name))  # which also asserts this participant's liveliness
        # frames may have been lost, or a peer may have expired our records
        # while we were not spinning: periodically restate every endpoint
        for ep in (*self.publishers.values(), *self.services.values(),
                   *self.subscribers.values()):
            self._announce(ep._record(), ep.entity_id)

    def _handle_control(self, pid: int, eid: int, doc) -> None:
        """Enter a peer's control value, already typed by its transport, in
        the discovery database: a record is stored, a leave withdraws the
        peer's records, and a gap only asserts the peer's liveliness. A NACK
        never comes here. The transport does any wire duty itself."""
        now = self.domain.now_ns()
        self._db.heartbeat(pid, now)
        if type(doc) is _Leave:
            self._unmatch(self._db.remove_participant(pid))
        elif type(doc) is not _Gap:
            self._db.add(*doc.entry(pid, eid), now)


def _qos_flags(qos: QoSProfile) -> int:
    flags = 0
    if qos.reliability == Reliability.RELIABLE:
        flags |= FLAG_RELIABLE
    if qos.durability == Durability.TRANSIENT_LOCAL:
        flags |= FLAG_TRANSIENT_LOCAL
    return flags


# --------------------------------------------------------------------------
# domain
# --------------------------------------------------------------------------


class Domain:
    """A communication universe: clock, in-process plane, loopback buses."""

    def __init__(self, arena_slot_size: int = DEFAULT_SLOT_SIZE,
                 arena_slot_count: int = DEFAULT_SLOT_COUNT):
        self.clock = ManualClock()
        self.arena_slot_size = arena_slot_size
        self.arena_slot_count = arena_slot_count
        self._inproc = _InProcPlane(self)
        self._buses: dict[int, _LoopbackBus] = {}
        self._loss_config: dict[int, tuple[float, int]] = {}  # port -> (probability, seed)
        self._participants_by_id: dict[int, Participant] = {}
        self._next_pid = 1
        # the instant of the last full spin; until the clock moves or the
        # domain is stirred, another spin has nothing to do
        self._quiet_ns: int | None = None
        # a frame was sent or a participant created since that spin began
        self._stirred = False

    def now_ns(self) -> int:
        return self.clock.now

    def set_loss(self, port: int, drop_probability: float, seed: int = 0) -> None:
        """Set the probability that a loopback port's bus drops a frame on its
        way to one receiver, drawn from ``seed`` (before the port is used)."""
        if port in self._buses:
            raise MiddlewareError(f"port {port} already has participants")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self._loss_config[port] = (drop_probability, seed)

    def create_participant(self, name: str, transport=InProcess()) -> Participant:
        if not name:
            raise MiddlewareError("participant name must be non-empty")
        self._stirred = True
        pid = self._next_pid
        self._next_pid += 1
        if isinstance(transport, InProcess):
            net = self._inproc
        elif isinstance(transport, Loopback):
            if not 1 <= transport.port <= 65535:
                raise TransportUnavailable(f"cannot bind loopback port {transport.port}")
            net = self._buses.get(transport.port)
            if net is None:
                net = _LoopbackBus(self, *self._loss_config.get(transport.port, (0.0, 0)))
                self._buses[transport.port] = net
        else:
            raise TransportUnavailable(f"unknown transport {transport!r}")
        p = Participant(self, pid, name, net)
        net.join(p)
        self._participants_by_id[pid] = p
        p._announce(_ParticipantRecord(name))
        return p

    def bus(self, port: int) -> _LoopbackBus:
        return self._buses[port]

    def spin(self) -> None:
        """One deterministic progress round across all participants.

        Returns at once when nothing can be due: the clock reads what it read
        when the last full round began, and no frame was sent and no
        participant created since. A second round at that instant would find
        every inbox empty and every heartbeat, prune, NACK and deadline check
        done. (A round whose clock moved under it leaves a stale instant that
        the clock, which never goes back, does not read again.)
        """
        now = self.clock.now
        if now == self._quiet_ns and not self._stirred:
            return
        # a spin nested in this round (a handler that calls) runs in full
        self._quiet_ns, self._stirred = None, False
        for p in list(self._participants_by_id.values()):
            p.spin()
        self._quiet_ns = now

    def advance(self, ns: int, quantum_ns: int | None = None) -> None:
        """Step the manual clock by ``ns``, spinning at each quantum."""
        quantum = quantum_ns or HEARTBEAT_PERIOD_NS
        remaining = ns
        while remaining > 0:
            step = min(quantum, remaining)
            self.clock.advance(step)
            remaining -= step
            self.spin()
