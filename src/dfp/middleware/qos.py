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
        """``"keep_all"``, or ``{"keep_last": n}`` with ``n`` an int (a bool is not)."""
        if obj == "keep_all":
            return cls.keep_all()
        if type(obj) is dict and obj.keys() == {"keep_last"} and type(obj["keep_last"]) is int:
            return cls.keep_last(obj["keep_last"])
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
        """The profile ``to_json`` writes, each key optional and none coerced:
        ``reliability`` and ``durability`` are member names, ``history`` is
        read by ``History.from_json``, and ``deadline_ms`` is an int (a bool
        is not) or None."""
        unknown = obj.keys() - {"reliability", "history", "durability", "deadline_ms"}
        if unknown:
            raise QoSError(f"unknown qos keys: {sorted(unknown)}")
        deadline_ms = obj.get("deadline_ms")
        if deadline_ms is not None and type(deadline_ms) is not int:
            raise QoSError(f"deadline_ms must be int or None, not {deadline_ms!r}")
        return cls(
            reliability=_member(Reliability, obj.get("reliability", "best_effort")),
            history=History.from_json(obj.get("history", {"keep_last": 1})),
            durability=_member(Durability, obj.get("durability", "volatile")),
            deadline_ms=deadline_ms,
        )


def _member(axis: type[enum.IntEnum], name: object):
    """The member of ``axis`` that ``name`` names, in any case."""
    if type(name) is str and name.upper() in axis.__members__:
        return axis[name.upper()]
    raise QoSError(f"{axis.__name__.lower()} must be one of "
                   f"{[m.name.lower() for m in axis]}, not {name!r}")


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


def link(offered: QoSProfile, requested: QoSProfile) -> tuple[bool, bool] | None:
    """How a writer offering ``offered`` serves a reader requesting ``requested``.

    None when ``qos_compatible`` fails; otherwise ``(reliable, replays)``:
    the pair takes the reliable path when both sides are RELIABLE, and the
    writer's retained ring replays to the reader when both are
    TRANSIENT_LOCAL.
    """
    if not qos_compatible(offered, requested):
        return None
    return (offered.reliability == requested.reliability == Reliability.RELIABLE,
            offered.durability == requested.durability == Durability.TRANSIENT_LOCAL)
