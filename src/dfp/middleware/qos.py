"""Per-topic quality-of-service contracts and endpoint compatibility."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from dfp import DfpError


class QoSError(DfpError):
    """Invalid QoS profile."""


class Reliability(enum.IntEnum):
    BEST_EFFORT = 0
    RELIABLE = 1


class Durability(enum.IntEnum):
    VOLATILE = 0
    TRANSIENT_LOCAL = 1


@dataclass(frozen=True)
class History:
    """Retention depth: keep the last ``depth`` samples, or all when None."""

    depth: int | None

    @classmethod
    def keep_last(cls, depth: int) -> "History":
        return cls(depth=depth)

    @classmethod
    def keep_all(cls) -> "History":
        return cls(depth=None)

    def __post_init__(self):
        if self.depth is not None and self.depth < 1:
            raise QoSError(f"keep_last depth must be >= 1, got {self.depth}")

    def to_json(self) -> object:
        return "keep_all" if self.depth is None else {"keep_last": self.depth}

    @classmethod
    def from_json(cls, obj: object) -> "History":
        if obj == "keep_all":
            return cls.keep_all()
        if isinstance(obj, dict) and set(obj) == {"keep_last"}:
            return cls.keep_last(int(obj["keep_last"]))
        raise QoSError(f"bad history spec: {obj!r}")


@dataclass(frozen=True)
class QoSProfile:
    reliability: Reliability = Reliability.BEST_EFFORT
    history: History = History.keep_last(1)
    durability: Durability = Durability.VOLATILE
    deadline_ms: int | None = None

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise QoSError(f"deadline_ms must be positive, got {self.deadline_ms}")

    def to_json(self) -> dict:
        return {
            "reliability": self.reliability.name.lower(),
            "history": self.history.to_json(),
            "durability": self.durability.name.lower(),
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QoSProfile":
        known = {"reliability", "history", "durability", "deadline_ms"}
        unknown = set(obj) - known
        if unknown:
            raise QoSError(f"unknown qos keys: {sorted(unknown)}")
        return cls(
            reliability=Reliability[obj.get("reliability", "best_effort").upper()],
            history=History.from_json(obj.get("history", {"keep_last": 1})),
            durability=Durability[obj.get("durability", "volatile").upper()],
            deadline_ms=obj.get("deadline_ms"),
        )


def qos_compatible(offered: QoSProfile, requested: QoSProfile) -> bool:
    """True iff the offer covers the request.

    Reliability and durability are ordered axes (RELIABLE > BEST_EFFORT,
    TRANSIENT_LOCAL > VOLATILE) and the offer must be at least as strong on
    both. History depth and deadline never block matching; deadline misses
    are reported on the subscriber instead.
    """
    return (
        offered.reliability >= requested.reliability
        and offered.durability >= requested.durability
    )
