"""Small shared helpers: stable hashing, the manual clock, canonical JSON."""

from __future__ import annotations

import hashlib
import json

def stable_u64(*parts: object) -> int:
    """Deterministic 64-bit hash of the given parts.

    Stable across processes and runs (unlike builtin ``hash``), so it is safe
    for seeds, type hashes and generated field values.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            data = part
        else:
            data = repr(part).encode()
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int.from_bytes(h.digest(), "big")


def unit_float(*parts: object) -> float:
    """Deterministic pseudo-random float in [0, 1) derived from parts."""
    return stable_u64(*parts) / float(1 << 64)


def clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


def canonical_json(obj: object) -> str:
    """JSON with sorted keys and no whitespace variance; byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


class ManualClock:
    """Simulated nanosecond clock stepped explicitly by the harness.

    ``now`` is the reading in ns, an attribute, so a hot path reads it
    without a call; only ``advance`` changes it.
    """

    __slots__ = ("now",)

    def __init__(self, start_ns: int = 0):
        self.now = int(start_ns)

    def advance(self, ns: int) -> int:
        if ns < 0:
            raise ValueError("clock cannot go backwards")
        self.now += int(ns)
        return self.now


MS = 1_000_000
