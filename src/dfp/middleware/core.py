"""Participants, endpoints, discovery and the two transports.

A ``Domain`` is the desk-scale communication universe: it owns the clock,
the in-process plane and the loopback buses. ``Domain.create_participant``
picks a participant's transport once, and the participant holds it as
``_net``. Discovery, endpoints, services and ``spin`` are shared; the
transport owns every operation that differs between the two:

- ``InProcess()`` joins the domain's ``_InProcPlane``. Endpoints match
  synchronously through per-topic state, samples are references into the
  topic's slot arena (no payload copies), and announcements and calls
  reach peers as direct calls, so nothing is ever serialised. The wire
  duties (receive, NACKs, remote matching, gaps) are no-ops here, and a
  publisher keeps a retained ring only for a transient-local topic.
- ``Loopback(port)`` joins the ``_LoopbackBus`` that all participants on that
  port share. ``send`` DFP1-encodes every frame, and the bus itself draws a
  seeded drop per (frame, receiver) at the port's ``Domain.set_loss``
  probability. The bus runs the wire protocol
  over each participant's inbox and its subscribers' receive state:
  matching from announcements, NACK-driven retransmission for reliable
  topics, gaps, and transient-local replay, so a publisher keeps a retained
  ring for a reliable or a transient-local topic.

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
from typing import NamedTuple

from dfp import DfpError
from dfp.middleware.arena import (
    DEFAULT_SLOT_COUNT,
    DEFAULT_SLOT_SIZE,
    BufferHandle,
    PayloadTooLarge,
    SlotArena,
)
from dfp.middleware.qos import Durability, QoSProfile, Reliability, link
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
_DATA, _REQUEST, _RESPONSE, _HEARTBEAT, _NACK = (
    MsgType.DATA, MsgType.REQUEST, MsgType.RESPONSE, MsgType.HEARTBEAT, MsgType.NACK)

HEARTBEAT_PERIOD_NS = 100 * MS
LIVELINESS_PERIODS = 3
LIVELINESS_NS = LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS
NACK_INTERVAL_NS = 5 * MS
CALL_QUANTUM_NS = 1 * MS

_TOPIC_NAME_RE = re.compile(r"^[a-z0-9_/]+$")


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
        if not _TOPIC_NAME_RE.match(self.name):
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
            self.payload.release()


def _publisher_id(participant_id: int, entity_id: int) -> int:
    return ((participant_id << 24) | entity_id) & 0xFFFFFFFFFFFFFFFF


def _topic_record(kind: str, topic: TopicDescriptor, **fields) -> dict:
    """The discovery record of a publisher or subscriber on ``topic``."""
    return {"kind": kind, "topic": topic.name, "type_hash": topic.type_hash,
            "qos": topic.qos.to_json(), **fields}


def _record_key(pid: int, eid: int, info: dict) -> tuple:
    """An endpoint record's key in a discovery database: its kind, its
    participant, and its entity id, or a service's name."""
    kind = info["kind"]
    return (kind, pid, info.get("name", "") if kind == "service" else eid)


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
        # key -> ("publisher"|"subscriber", pid, eid) or ("service", pid, name)
        # or ("participant", pid)
        self.records: dict[tuple, dict] = {}
        # service name -> its keys in ``records``, in ``records`` order, so
        # the first is the provider a scan of ``records`` would find first
        self.services: dict[str, list[tuple]] = {}

    def heartbeat(self, pid: int, now: int) -> None:
        self.peer_last_hb[pid] = now

    def add(self, key: tuple, info: dict, now: int) -> None:
        if key[0] == "service" and key not in self.records:
            self.services.setdefault(key[2], []).append(key)
        self.records[key] = info
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
        dead = [pid for pid, last in self.peer_last_hb.items()
                if pid != self.self_id and now - last >= LIVELINESS_NS]
        gone: list[tuple] = []
        for pid in dead:
            gone.extend(self.remove_participant(pid))
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
    is its ``_inbox`` and its subscribers' ``_recv``. It drops each (frame,
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
                           json.dumps(payload_obj, sort_keys=True).encode()))

    def _send_data(self, pub: Publisher, seq: int, payload: bytes) -> None:
        frame = Frame(_DATA, pub._qos_flags, pub.participant.participant_id,
                      pub.entity_id, seq, payload)
        self.send(pub.participant, frame)

    def _check_known_topic(self, p: Participant, desc: TopicDescriptor) -> None:
        for key, info in p._db.records.items():
            if key[0] in ("publisher", "subscriber") and info["topic"] == desc.name:
                if info["type_hash"] != desc.type_hash:
                    raise TypeHashMismatch(
                        f"topic {desc.name!r} is announced with type_hash "
                        f"{info['type_hash']:#x}, got {desc.type_hash:#x}"
                    )

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
        if pub._retains:
            pub._retain(seq, payload)
        self._send_data(pub, seq, payload)

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
        if status == 0:
            payload += body
        else:
            payload += code.to_bytes(4, "big") + body
        self.send(p, Frame(_RESPONSE, 0, p.participant_id, 0, request_id, payload))

    def send_nacks(self, p: Participant, sub: Subscriber, now: int) -> None:
        for (pid, eid), state in sub._recv.items():
            if not state.reliable_path:
                continue
            if now - state.last_nack_ns < NACK_INTERVAL_NS:
                continue
            # every pending seq is below high_water: what is missing lies in between
            missing = [s for s in range(state.expected, state.high_water)
                       if s not in state.pending]
            if not missing:
                continue
            state.last_nack_ns = now
            self.broadcast(p, MsgType.NACK, {
                "target_pid": pid, "target_eid": eid,
                "topic": state.topic, "missing": missing[:64],
            }, entity_id=sub.entity_id)

    def _resend(self, pub: Publisher, seqs: list[int]) -> None:
        # the ring holds contiguous seqs from retained_first_seq() to next_seq
        first = pub.retained_first_seq()
        missing_evicted = False
        for seq in seqs:
            if not first <= seq < pub.next_seq:
                missing_evicted = True
                continue
            payload = pub._retained[seq - first][1]
            self._send_data(pub, seq, payload)
        if missing_evicted:
            # retention window moved past the request; tell readers to skip ahead
            self.broadcast(
                pub.participant, MsgType.ANNOUNCE,
                {"kind": "gap", "topic": pub.topic.name,
                 "first_available": pub.retained_first_seq()},
                entity_id=pub.entity_id,
            )

    # -- receiving (from ``Participant.spin``) ----------------------------

    def receive(self, p: Participant) -> None:
        while p._inbox:
            raw = p._inbox.popleft()
            try:
                frame = decode_frame(raw)
            except FrameError:
                continue  # a corrupt frame is dropped, not fatal
            self._handle_frame(p, frame)

    def _handle_frame(self, p: Participant, frame: Frame) -> None:
        mt = frame.msg_type
        if mt is _DATA:
            self._handle_data(p, frame)
        elif mt is _REQUEST:
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
                code = int.from_bytes(frame.payload[9:13], "big")
                slot.append((1, frame.payload[13:], code))
        else:  # ANNOUNCE, SUBSCRIBE, HEARTBEAT and NACK carry one JSON document
            try:
                obj = json.loads(frame.payload.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                return
            if type(obj) is not dict:
                return  # JSON, but not the object every control document is
            if mt is not _NACK:
                p._handle_control(mt, frame.participant_id, frame.entity_id, obj)
            elif obj.get("target_pid") == p.participant_id:
                pub = p.publishers.get(obj.get("target_eid"))
                if pub is not None:
                    self._resend(pub, [int(s) for s in obj.get("missing", [])])

    def match_publisher(self, p: Participant, pid: int, eid: int, info: dict) -> None:
        pub_qos = QoSProfile.from_json(info["qos"])
        key = (pid, eid)
        for sub in p.subscribers.values():
            if sub.topic.name != info["topic"] or sub.topic.type_hash != info["type_hash"]:
                continue
            linked = link(pub_qos, sub.topic.qos)
            if linked is None:
                continue
            state = sub._recv.get(key)
            if state is not None:
                state.high_water = max(state.high_water, info["next_seq"])
                continue
            reliable, replays = linked
            expected = info["retained_first"] if replays else info["next_seq"]
            sub._recv[key] = _RecvState(info["topic"], expected, reliable, info["next_seq"])

    def court_subscriber(self, p: Participant, info: dict) -> None:
        matched = info.get("matched", ())
        for pub in p.publishers.values():
            if (pub.topic.name != info["topic"] or pub.topic.type_hash != info["type_hash"]
                    or [p.participant_id, pub.entity_id] in matched):
                continue
            linked = link(pub.topic.qos, QoSProfile.from_json(info["qos"]))
            if linked is None:
                continue
            p._announce(pub)
            if linked[1]:  # replays
                for seq, payload in pub._retained:
                    self._send_data(pub, seq, payload)

    def apply_gap(self, p: Participant, pid: int, eid: int, obj: dict) -> None:
        key = (pid, eid)
        first = int(obj.get("first_available", 0))
        for sub in p.subscribers.values():
            state = sub._recv.get(key)
            if state is None or first <= state.expected:
                continue
            sub.drops_gap += first - state.expected
            state.expected = first
            self._drain_pending(sub, key, state)

    def _handle_data(self, p: Participant, frame: Frame) -> None:
        key = (frame.participant_id, frame.entity_id)
        for sub in p.subscribers.values():
            state = sub._recv.get(key)
            if state is None:
                continue
            seq = frame.seq
            if seq >= state.high_water:
                state.high_water = seq + 1
            if seq < state.expected or seq in state.pending:
                continue  # duplicate or already-superseded sample
            if state.reliable_path:
                if seq == state.expected:
                    self._deliver_wire(sub, state, key, seq, frame.payload)
                    state.expected = seq + 1
                    self._drain_pending(sub, key, state)
                else:
                    state.pending[seq] = frame.payload
            else:
                sub.drops_gap += seq - state.expected
                self._deliver_wire(sub, state, key, seq, frame.payload)
                state.expected = seq + 1

    def _drain_pending(self, sub: Subscriber, key: tuple[int, int],
                       state: _RecvState) -> None:
        while state.expected in state.pending:
            payload = state.pending.pop(state.expected)
            self._deliver_wire(sub, state, key, state.expected, payload)
            state.expected += 1
        if state.pending and min(state.pending) < state.expected:
            for stale in [s for s in state.pending if s < state.expected]:
                del state.pending[stale]

    def _deliver_wire(self, sub: Subscriber, state: _RecvState, key: tuple[int, int],
                      seq: int, payload: bytes) -> None:
        sample = Sample(state.topic, seq, _publisher_id(*key),
                        self.domain.now_ns(), BufferHandle(payload))
        sub._enqueue(sample)


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
            for key, info in peer._db.records.items():
                if key[1] == peer.participant_id:
                    p._db.add(key, info, now)
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
            state = _InProcTopic(
                desc.type_hash,
                SlotArena(self.domain.arena_slot_size, self.domain.arena_slot_count),
            )
            self.topics[desc.name] = state
        elif state.type_hash != desc.type_hash:
            raise TypeHashMismatch(
                f"topic {desc.name!r} already exists with type_hash "
                f"{state.type_hash:#x}, got {desc.type_hash:#x}"
            )
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

    def broadcast(self, p: Participant, msg_type: MsgType, payload_obj: dict,
                  entity_id: int = 0, flags: int = 0) -> None:
        for peer in self.participants:
            if peer is not p:
                peer._handle_control(msg_type, p.participant_id, entity_id, payload_obj)

    def publish(self, pub: Publisher, seq: int, payload: bytes) -> None:
        # one reference per holder: each matched subscriber, plus the ring
        subs = pub._matched_subs
        handle = pub._arena.acquire(payload, len(subs) + pub._retains)
        if pub._retains:
            evicted = pub._retain(seq, handle)
            if evicted is not None:
                evicted.release()
        # one sample per delivery, every one on the same handle: no copy
        name, pid, now = pub.topic.name, pub.publisher_id, self.domain.now_ns()
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

    # the wire duties have nothing to do on the plane

    def receive(self, p: Participant) -> None:
        """An in-process peer's inbox stays empty: control arrives as calls."""

    def send_nacks(self, p: Participant, sub: Subscriber, now: int) -> None:
        """Nothing is lost on the plane, so nothing is asked for again."""

    def match_publisher(self, p: Participant, pid: int, eid: int, info: dict) -> None:
        """The plane matched its endpoints when they were created."""

    def court_subscriber(self, p: Participant, info: dict) -> None:
        """The plane matched, and replayed to, a subscriber when it was created."""


# --------------------------------------------------------------------------
# endpoints
# --------------------------------------------------------------------------


class Publisher:
    def __init__(self, participant: "Participant", topic: TopicDescriptor, entity_id: int,
                 arena: SlotArena | None, retains: bool):
        self.participant = participant
        self.topic = topic
        self.entity_id = entity_id
        self.publisher_id = _publisher_id(participant.participant_id, entity_id)
        self._qos_flags = _qos_flags(topic.qos)  # the DFP1 flags of its DATA and ANNOUNCE frames
        self.next_seq = 0
        self._arena = arena  # None on the loopback path
        # retained ring: (seq, handle-or-bytes), kept when the transport says
        # so; serves transient-local replay and reliable retransmission
        self._retained: deque = deque()
        self._retain_depth = topic.qos.history.depth  # None = unbounded
        self._retains = retains
        self._matched_subs: tuple = ()
        self.published_count = 0

    def _retain(self, seq: int, item):
        """Ring ``item``; return the item it evicts, or None."""
        self._retained.append((seq, item))
        if self._retain_depth is not None and len(self._retained) > self._retain_depth:
            return self._retained.popleft()[1]
        return None

    def retained_first_seq(self) -> int:
        return self._retained[0][0] if self._retained else self.next_seq

    def _announcement(self) -> tuple[MsgType, int, dict]:
        return MsgType.ANNOUNCE, self._qos_flags, _topic_record(
            "publisher", self.topic, next_seq=self.next_seq,
            retained_first=self.retained_first_seq())

    def publish(self, payload: bytes) -> int:
        self.participant._require_alive()
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise MiddlewareError("payload must be bytes-like")
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        seq = self.next_seq
        self.participant._net.publish(self, seq, payload)
        self.next_seq = seq + 1
        self.published_count += 1
        return seq

    def matched_subscriptions(self) -> int:
        return len(self._matched_subs)


class _RecvState:
    """Per matched remote publisher, on the subscriber side (loopback)."""

    __slots__ = ("topic", "expected", "pending", "last_nack_ns", "reliable_path",
                 "high_water")

    def __init__(self, topic: str, expected: int, reliable_path: bool, high_water: int):
        self.topic = topic
        self.expected = expected
        self.pending: dict[int, bytes] = {}
        self.last_nack_ns = -(10**18)
        self.reliable_path = reliable_path
        # highest next_seq the publisher has announced; lets the reader
        # notice trailing losses that no later data frame would reveal
        self.high_water = high_water


class Subscriber:
    def __init__(self, participant: "Participant", topic: TopicDescriptor, entity_id: int):
        self.participant = participant
        self.topic = topic
        self.entity_id = entity_id
        self._depth = topic.qos.history.depth  # None = keep all
        self._queue: deque[Sample] = deque()
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
        if self._depth is not None and len(self._queue) >= self._depth:
            old = self._queue.popleft()
            old.release()
            self.drops_overflow += 1
        self._queue.append(sample)
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

    def _announcement(self) -> tuple[MsgType, int, dict]:
        # publishers already matched need not re-announce or replay
        return MsgType.SUBSCRIBE, 0, _topic_record("subscriber", self.topic,
                                                   matched=sorted(self._recv))

    def _check_deadline(self, now: int) -> None:
        if self._deadline_ns is None:
            return
        while now - self._last_activity_ns >= self._deadline_ns:
            self.deadline_misses += 1
            self._last_activity_ns += self._deadline_ns


class _ServiceEndpoint:
    def __init__(self, descriptor: ServiceDescriptor, entity_id: int, handler):
        self.descriptor = descriptor
        self.entity_id = entity_id
        self.handler = handler

    def _announcement(self) -> tuple[MsgType, int, dict]:
        return MsgType.ANNOUNCE, 0, {
            "kind": "service",
            "name": self.descriptor.service_name,
            "request_type_hash": self.descriptor.request_type_hash,
            "response_type_hash": self.descriptor.response_type_hash,
            "entity_id": self.entity_id,
        }

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
            self._net.broadcast(self, MsgType.ANNOUNCE, {"kind": "leave"})
        self._net.detach(self)
        self.alive = False

    def _require_alive(self) -> None:
        if not self.alive:
            raise ParticipantClosed(f"participant {self.name!r} is closed")

    # -- endpoint creation ---------------------------------------------------

    def create_publisher(self, topic: TopicDescriptor) -> Publisher:
        self._require_alive()
        pub = self._net.new_publisher(self, topic)
        self.publishers[pub.entity_id] = pub
        self._announce(pub)
        return pub

    def create_subscriber(self, topic: TopicDescriptor) -> Subscriber:
        self._require_alive()
        sub = self._net.new_subscriber(self, topic)
        self.subscribers[sub.entity_id] = sub
        self._announce(sub)
        return sub

    def register_service(self, descriptor: ServiceDescriptor, handler) -> None:
        self._require_alive()
        self._prune_db()
        name = descriptor.service_name
        if name in self._db.services:
            raise DuplicateService(f"service {name!r} is already registered")
        ep = _ServiceEndpoint(descriptor, self._alloc_entity(), handler)
        self.services[name] = ep
        self._announce(ep)

    def _alloc_entity(self) -> int:
        eid = self._next_entity
        self._next_entity += 1
        return eid

    # -- discovery ------------------------------------------------------------

    def discover(self, filter: str = "all") -> list[DiscoveryRecord]:
        """Snapshot of live records: 'topics', 'services' or 'all'."""
        if filter not in ("topics", "services", "all"):
            raise MiddlewareError(f"bad discover filter {filter!r}")
        self._prune_db()
        now = self.domain.now_ns()
        out: list[DiscoveryRecord] = []
        for key, info in sorted(self._db.records.items(), key=lambda kv: repr(kv[0])):
            kind = key[0]
            if filter == "topics" and kind not in ("publisher", "subscriber"):
                continue
            if filter == "services" and kind != "service":
                continue
            pid = key[1]
            deadline = self._db.deadline_for(pid, now)
            if kind in ("publisher", "subscriber"):
                desc = TopicDescriptor(info["topic"], info["type_hash"],
                                       QoSProfile.from_json(info["qos"]))
            elif kind == "service":
                desc = ServiceDescriptor(key[2], info.get("request_type_hash", 0),
                                         info.get("response_type_hash", 0))
            else:
                desc = info.get("name", "")
            out.append(DiscoveryRecord(kind, pid, desc, deadline))
        return out

    def _prune_db(self) -> None:
        gone = self._db.prune(self.domain.now_ns())
        self._unmatch(gone)

    def _unmatch(self, gone_keys: list[tuple]) -> None:
        for key in gone_keys:
            if key[0] != "publisher":
                continue
            pub_key = (key[1], key[2])
            for sub in self.subscribers.values():
                sub._recv.pop(pub_key, None)

    # -- announcements ---------------------------------------------------------

    def _announce(self, ep: Publisher | Subscriber | _ServiceEndpoint) -> None:
        """State one endpoint: its record enters this participant's own
        database and goes out to every peer."""
        msg_type, flags, info = ep._announcement()
        self._db.add(_record_key(self.participant_id, ep.entity_id, info), info,
                     self.domain.now_ns())
        self._net.broadcast(self, msg_type, info, entity_id=ep.entity_id, flags=flags)

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
        self._net.receive(self)
        now = self.domain.now_ns()
        if now >= self._next_hb_ns:
            self._heartbeat(now)
            self._next_hb_ns = now + HEARTBEAT_PERIOD_NS
        self._prune_db()
        for sub in self.subscribers.values():
            self._net.send_nacks(self, sub, now)
            sub._check_deadline(now)

    def _heartbeat(self, now: int) -> None:
        self._db.heartbeat(self.participant_id, now)
        self._net.broadcast(self, MsgType.HEARTBEAT,
                            {"kind": "heartbeat", "name": self.name})
        # frames may have been lost, or a peer may have expired our records
        # while we were not spinning: periodically restate every endpoint
        for ep in (*self.publishers.values(), *self.services.values(),
                   *self.subscribers.values()):
            self._announce(ep)

    def _handle_control(self, mt: MsgType, pid: int, eid: int, obj: dict) -> None:
        now = self.domain.now_ns()
        kind = obj.get("kind")
        self._db.heartbeat(pid, now)
        if mt is _HEARTBEAT or kind == "participant":
            # liveliness assertions double as identity for late joiners
            self._db.add(("participant", pid), {"name": obj.get("name", "")}, now)
        elif kind in ("publisher", "subscriber", "service"):
            self._db.add(_record_key(pid, eid, obj), obj, now)
            if kind == "publisher":
                self._net.match_publisher(self, pid, eid, obj)
            elif kind == "subscriber":
                self._net.court_subscriber(self, obj)
        elif kind == "leave":
            gone = self._db.remove_participant(pid)
            self._unmatch(gone)
        elif kind == "gap":
            self._net.apply_gap(self, pid, eid, obj)


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
        return self.clock.now_ns()

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
        p._db.add(("participant", pid), {"name": name}, self.now_ns())
        net.broadcast(p, MsgType.ANNOUNCE, {"kind": "participant", "name": name})
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
        now = self.clock.now_ns()
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
