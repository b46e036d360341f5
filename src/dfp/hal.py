"""Simulated hardware abstraction: devices, frames, and normalization.

Devices are registered with a descriptor and produce deterministic frames:
every attribute is a pure function of (seed, device_id, seq, field), so a
stream can be replayed bit-for-bit on any host. Simulated time derives
from the sequence counter, never from the wall clock.

One device kind produces frames, the radar, whose measurements feed the
drive. Its raw and normalized attributes::

    raw attributes                      normalized attributes
    ----------------------------------  -------------------------------
    range_km, range_rate_mps,           range_m, range_rate_mps,
    azimuth_rad (default 0.0)           azimuth_rad

Normalization is idempotent: a frame whose attributes are already
normalized maps to the same normalized map. A GPS device registers, but
generating or normalizing a frame of any kind other than the radar raises
``UnsupportedKind``.

A device descriptor and a frame, raw or normalized, are immutable named
tuples: their fields read by name or position, assigning one raises
``AttributeError``, and two with equal fields compare equal (to a plain
tuple of them too). A drive builds two frames per step, and each is one
tuple allocation.

A dict handed to the HAL is kept, not copied: ``DeviceHandle.stamp`` puts
the caller's ``raw`` dict in its frame, and the environment store keeps a
normalized frame's dict as its record's ``attributes``. Whoever hands a
dict over does not change it afterwards.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from dfp import DfpError
from dfp.util import unit_float


class HalError(DfpError):
    pass


class DuplicateDeviceId(HalError):
    pass


class InvalidRate(HalError):
    pass


class UnknownDevice(HalError):
    pass


class UnsupportedKind(HalError):
    pass


class DeviceKind(enum.Enum):
    RADAR = "radar"
    GPS = "gps"  # registers, but produces and normalizes no frame


_RADAR = DeviceKind.RADAR

MAX_RATE_HZ = 1000.0


class DeviceDescriptor(NamedTuple):
    device_id: str
    kind: DeviceKind
    rate_hz: float
    seed: int = 0
    binding_label: str = "compute-unit"  # affinity hint: ai/compute/control unit


class SensorFrame(NamedTuple):
    device_id: str
    kind: DeviceKind
    seq: int
    timestamp_ns: int
    raw: dict


class AbstractFrame(NamedTuple):
    source_id: str
    kind: DeviceKind
    seq: int
    timestamp_ns: int
    normalized: dict


# -- synthetic generation ----------------------------------------------------

def _val(desc: DeviceDescriptor, seq: int, fld: str, lo: float, hi: float) -> float:
    return lo + (hi - lo) * unit_float(desc.seed, desc.device_id, seq, fld)


def _gen_radar(desc, seq):
    return {
        "range_km": round(_val(desc, seq, "range_km", 0.01, 0.2), 6),
        "range_rate_mps": round(_val(desc, seq, "range_rate", -10.0, 10.0), 4),
        "azimuth_rad": round(_val(desc, seq, "azimuth", -0.5, 0.5), 4),
    }


# -- normalization -------------------------------------------------------------

def _norm_radar(raw):
    if "range_km" in raw:
        range_m = raw["range_km"] * 1000.0
    elif "range_m" in raw:  # already normalized
        range_m = raw["range_m"]
    else:
        raise UnsupportedKind("attribute 'range_km'/'range_m' missing from frame")
    return {
        "range_m": range_m,
        "range_rate_mps": float(raw["range_rate_mps"]),
        "azimuth_rad": float(raw.get("azimuth_rad", 0.0)),
    }


def normalize(frame: SensorFrame) -> AbstractFrame:
    """Map a radar frame to its device-independent form (idempotent)."""
    kind = frame.kind
    if kind is not _RADAR:
        raise UnsupportedKind(f"no normalization schema for kind {kind!r}")
    return AbstractFrame(frame.device_id, kind, frame.seq, frame.timestamp_ns,
                         _norm_radar(frame.raw))


# -- registry ------------------------------------------------------------------


class DeviceHandle:
    """Ticking interface of one registered device.

    A handle must not be ticked from two contexts at once; distinct
    handles are independent.
    """

    def __init__(self, descriptor: DeviceDescriptor):
        self.descriptor = descriptor
        self._next_seq = 0

    def stamp(self, raw: dict) -> SensorFrame:
        """Wrap caller-supplied raw attributes in the next frame slot.

        This is the injection point for simulated worlds that feed a device
        with scenario-derived measurements instead of synthetic ones. The
        frame keeps ``raw`` itself, not a copy: the caller hands the dict
        over and does not change it afterwards.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        desc = self.descriptor
        return SensorFrame(desc.device_id, desc.kind, seq, round(seq * 1e9 / desc.rate_hz), raw)

    def tick(self, n: int = 1) -> list[SensorFrame]:
        """Generate the next ``n`` synthetic frames for this device."""
        desc = self.descriptor
        if desc.kind is not _RADAR:
            raise UnsupportedKind(f"no frame generator for kind {desc.kind!r}")
        frames = []
        for _ in range(n):
            seq = self._next_seq
            self._next_seq = seq + 1
            frames.append(SensorFrame(desc.device_id, desc.kind, seq,
                                      round(seq * 1e9 / desc.rate_hz), _gen_radar(desc, seq)))
        return frames


class DeviceRegistry:
    def __init__(self):
        self._devices: dict[str, DeviceHandle] = {}

    def register_device(self, desc: DeviceDescriptor) -> DeviceHandle:
        if not isinstance(desc.kind, DeviceKind):
            raise UnsupportedKind(f"kind must be a DeviceKind, got {desc.kind!r}")
        if not desc.device_id:
            raise HalError("device_id must be non-empty")
        if desc.device_id in self._devices:
            raise DuplicateDeviceId(f"device {desc.device_id!r} already registered")
        if not (0 < desc.rate_hz <= MAX_RATE_HZ):
            raise InvalidRate(f"rate_hz must be in (0, {MAX_RATE_HZ}], got {desc.rate_hz}")
        handle = DeviceHandle(desc)
        self._devices[desc.device_id] = handle
        return handle

    def handle(self, device_id: str) -> DeviceHandle:
        try:
            return self._devices[device_id]
        except KeyError:
            raise UnknownDevice(f"no device {device_id!r}") from None
