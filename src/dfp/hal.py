"""Simulated hardware abstraction: devices, frames, and normalization.

Devices are registered with a descriptor and produce deterministic frames:
every attribute is a pure function of (seed, device_id, seq, field), so a
stream can be replayed bit-for-bit on any host. Simulated time derives
from the sequence counter, never from the wall clock.

Raw and normalized attribute schemas, per device kind::

    kind    raw attributes                      normalized attributes
    ------  ----------------------------------  -------------------------------
    CAMERA  width, height, checksum             width_px, height_px, checksum
    RADAR   range_km, range_rate_mps,           range_m, range_rate_mps,
            azimuth_rad                         azimuth_rad
    LIDAR   point_count, min_range_cm,          point_count, min_range_m,
            max_range_cm                        max_range_m
    GPS     lat_deg, lon_deg, alt_m             lat_rad, lon_rad, alt_m
    IMU     accel_mg, gyro_dps                  accel_mps2, gyro_rps
    HDMAP   tile_id, lane_count,                tile_id, lane_count,
            speed_limit_kph                     speed_limit_mps
    V2X     event_code, distance_km             event_code, distance_m

Normalization is total over these schemas and idempotent: a frame whose
attributes are already normalized maps to the same normalized map.

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
import math
from typing import NamedTuple

from dfp import DfpError
from dfp.util import stable_u64, unit_float


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
    # members are singletons compared by identity, so they hash by identity
    # too: object's hash is a C call, Enum's a Python one, and a kind keys a
    # table lookup for every frame normalized or ingested
    __hash__ = object.__hash__

    CAMERA = "camera"
    RADAR = "radar"
    LIDAR = "lidar"
    GPS = "gps"
    IMU = "imu"
    HDMAP = "hdmap"
    V2X = "v2x"


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


def _gen_camera(desc, seq):
    return {
        "width": 1280,
        "height": 720,
        "checksum": stable_u64(desc.seed, desc.device_id, seq, "checksum") & 0xFFFFFFFF,
    }


def _gen_radar(desc, seq):
    return {
        "range_km": round(_val(desc, seq, "range_km", 0.01, 0.2), 6),
        "range_rate_mps": round(_val(desc, seq, "range_rate", -10.0, 10.0), 4),
        "azimuth_rad": round(_val(desc, seq, "azimuth", -0.5, 0.5), 4),
    }


def _gen_lidar(desc, seq):
    return {
        "point_count": int(_val(desc, seq, "points", 1000, 20000)),
        "min_range_cm": round(_val(desc, seq, "min_range", 50.0, 200.0), 2),
        "max_range_cm": round(_val(desc, seq, "max_range", 5000.0, 20000.0), 2),
    }


def _gen_gps(desc, seq):
    return {
        "lat_deg": round(_val(desc, seq, "lat", -90.0, 90.0), 7),
        "lon_deg": round(_val(desc, seq, "lon", -180.0, 180.0), 7),
        "alt_m": round(_val(desc, seq, "alt", 0.0, 500.0), 3),
    }


def _gen_imu(desc, seq):
    return {
        "accel_mg": round(_val(desc, seq, "accel", -2000.0, 2000.0), 3),
        "gyro_dps": round(_val(desc, seq, "gyro", -250.0, 250.0), 4),
    }


def _gen_hdmap(desc, seq):
    return {
        "tile_id": stable_u64(desc.seed, desc.device_id, seq, "tile") % 10000,
        "lane_count": 1 + stable_u64(desc.seed, desc.device_id, seq, "lanes") % 4,
        "speed_limit_kph": [30, 50, 80, 100, 120][
            stable_u64(desc.seed, desc.device_id, seq, "limit") % 5],
    }


def _gen_v2x(desc, seq):
    return {
        "event_code": stable_u64(desc.seed, desc.device_id, seq, "event") % 4,
        "distance_km": round(_val(desc, seq, "distance", 0.05, 2.0), 6),
    }


_GENERATORS = {
    DeviceKind.CAMERA: _gen_camera,
    DeviceKind.RADAR: _gen_radar,
    DeviceKind.LIDAR: _gen_lidar,
    DeviceKind.GPS: _gen_gps,
    DeviceKind.IMU: _gen_imu,
    DeviceKind.HDMAP: _gen_hdmap,
    DeviceKind.V2X: _gen_v2x,
}


# -- normalization -------------------------------------------------------------

def _pick(raw: dict, raw_key: str, norm_key: str, convert):
    """Convert raw_key if present; accept already-normalized input as-is."""
    if raw_key in raw:
        return convert(raw[raw_key])
    if norm_key in raw:
        return raw[norm_key]
    raise UnsupportedKind(f"attribute {raw_key!r}/{norm_key!r} missing from frame")


def _norm_camera(raw):
    return {
        "width_px": _pick(raw, "width", "width_px", int),
        "height_px": _pick(raw, "height", "height_px", int),
        "checksum": int(raw["checksum"]),
    }


def _norm_radar(raw):
    # the raw form inline, not through _pick: a drive normalizes a radar frame every step
    if "range_km" in raw:
        range_m = raw["range_km"] * 1000.0
    else:
        range_m = _pick(raw, "range_km", "range_m", None)  # never converts: no range_km
    return {
        "range_m": range_m,
        "range_rate_mps": float(raw["range_rate_mps"]),
        "azimuth_rad": float(raw.get("azimuth_rad", 0.0)),
    }


def _norm_lidar(raw):
    return {
        "point_count": int(raw["point_count"]),
        "min_range_m": _pick(raw, "min_range_cm", "min_range_m", lambda v: v / 100.0),
        "max_range_m": _pick(raw, "max_range_cm", "max_range_m", lambda v: v / 100.0),
    }


def _norm_gps(raw):
    return {
        "lat_rad": _pick(raw, "lat_deg", "lat_rad", math.radians),
        "lon_rad": _pick(raw, "lon_deg", "lon_rad", math.radians),
        "alt_m": float(raw["alt_m"]),
    }


def _norm_imu(raw):
    return {
        "accel_mps2": _pick(raw, "accel_mg", "accel_mps2", lambda v: v * 9.80665e-3),
        "gyro_rps": _pick(raw, "gyro_dps", "gyro_rps", math.radians),
    }


def _norm_hdmap(raw):
    return {
        "tile_id": int(raw["tile_id"]),
        "lane_count": int(raw["lane_count"]),
        "speed_limit_mps": _pick(raw, "speed_limit_kph", "speed_limit_mps",
                                 lambda v: v / 3.6),
    }


def _norm_v2x(raw):
    return {
        "event_code": int(raw["event_code"]),
        "distance_m": _pick(raw, "distance_km", "distance_m", lambda v: v * 1000.0),
    }


_NORMALIZERS = {
    DeviceKind.CAMERA: _norm_camera,
    DeviceKind.RADAR: _norm_radar,
    DeviceKind.LIDAR: _norm_lidar,
    DeviceKind.GPS: _norm_gps,
    DeviceKind.IMU: _norm_imu,
    DeviceKind.HDMAP: _norm_hdmap,
    DeviceKind.V2X: _norm_v2x,
}

NORMALIZED_SCHEMAS = {
    DeviceKind.CAMERA: ("width_px", "height_px", "checksum"),
    DeviceKind.RADAR: ("range_m", "range_rate_mps", "azimuth_rad"),
    DeviceKind.LIDAR: ("point_count", "min_range_m", "max_range_m"),
    DeviceKind.GPS: ("lat_rad", "lon_rad", "alt_m"),
    DeviceKind.IMU: ("accel_mps2", "gyro_rps"),
    DeviceKind.HDMAP: ("tile_id", "lane_count", "speed_limit_mps"),
    DeviceKind.V2X: ("event_code", "distance_m"),
}


def normalize(frame: SensorFrame) -> AbstractFrame:
    """Map a raw frame to its device-independent form (total, idempotent)."""
    kind = frame.kind
    normalizer = _NORMALIZERS.get(kind)
    if normalizer is None:
        raise UnsupportedKind(f"no normalization schema for kind {kind!r}")
    return AbstractFrame(frame.device_id, kind, frame.seq, frame.timestamp_ns,
                         normalizer(frame.raw))


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
        gen = _GENERATORS[desc.kind]
        frames = []
        for _ in range(n):
            seq = self._next_seq
            self._next_seq = seq + 1
            frames.append(SensorFrame(desc.device_id, desc.kind, seq,
                                      round(seq * 1e9 / desc.rate_hz), gen(desc, seq)))
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
