"""Unified pub/sub + client/server middleware with QoS and discovery.

Participants, endpoints, discovery and services are shared. Each
participant holds one transport, and the transport owns every operation
that differs between the two:

- in-process (``InProcess()``): the domain's zero-copy plane matches
  endpoints when they are created and hands subscribers references into a
  fixed-slot buffer arena; payload bytes are never copied or serialised
- loopback (``Loopback(port)``): the port's bus serialises every frame
  with the DFP1 wire format, hands it to each other participant on the
  port, drawing a seeded drop per (frame, receiver) itself at the
  probability ``Domain.set_loss`` gives, and runs the wire protocol, with
  NACK-driven retransmission for reliable topics

Discovery is broker-less: every participant periodically announces its
endpoints and liveliness; records of a silent peer expire after three
missed heartbeats.
"""

from dfp.middleware.qos import (
    Durability,
    History,
    QoSProfile,
    Reliability,
    qos_compatible,
)
from dfp.middleware.wire import (
    FLAG_RELIABLE,
    FLAG_TRANSIENT_LOCAL,
    Frame,
    FrameError,
    HEADER_LEN,
    MsgType,
    decode_frame,
    encode_frame,
)
from dfp.middleware.arena import ArenaExhausted, BufferHandle, PayloadTooLarge, SlotArena
from dfp.middleware.core import (
    Domain,
    DiscoveryRecord,
    DuplicateService,
    InProcess,
    Loopback,
    MiddlewareError,
    Participant,
    Publisher,
    RemoteError,
    Sample,
    ServiceDescriptor,
    ServiceNotFound,
    Subscriber,
    Timeout,
    TopicDescriptor,
    TransportUnavailable,
    TypeHashMismatch,
    type_hash_of,
)

__all__ = [
    "ArenaExhausted",
    "BufferHandle",
    "DiscoveryRecord",
    "Domain",
    "DuplicateService",
    "Durability",
    "FLAG_RELIABLE",
    "FLAG_TRANSIENT_LOCAL",
    "Frame",
    "FrameError",
    "HEADER_LEN",
    "History",
    "InProcess",
    "Loopback",
    "MiddlewareError",
    "MsgType",
    "Participant",
    "PayloadTooLarge",
    "Publisher",
    "QoSProfile",
    "Reliability",
    "RemoteError",
    "Sample",
    "ServiceDescriptor",
    "ServiceNotFound",
    "SlotArena",
    "Subscriber",
    "Timeout",
    "TopicDescriptor",
    "TransportUnavailable",
    "TypeHashMismatch",
    "decode_frame",
    "encode_frame",
    "qos_compatible",
    "type_hash_of",
]
