"""Fixed-slot buffer arena backing the zero-copy in-process path.

A published payload occupies one slot. Deliveries hand out references to
the slot, never copies of the bytes. A slot is taken with one reference per
holder known at publish time: each matched subscriber, plus the retained
ring on a transient-local topic; the publisher keeps no reference of its
own. The slot returns to the free list only when every reference has been
released. Slot bookkeeping is explicit so the recycling contract is
observable in tests.

An arena takes no lock. Like the domain whose plane holds it, it belongs to
one thread at a time, so calls into one arena must not overlap (see
``dfp.middleware.core``).
"""

from __future__ import annotations

from dfp import DfpError

DEFAULT_SLOT_SIZE = 8 * 1024 * 1024
DEFAULT_SLOT_COUNT = 1024


class PayloadTooLarge(DfpError):
    """Payload exceeds the arena slot size (or the wire length field)."""


class ArenaExhausted(DfpError):
    """No free slot: too many samples are still held by readers."""


class BufferHandle:
    """Reference to one immutable payload occupying an arena slot.

    ``release()`` drops one reference; callers release once per occurrence
    they received (each queued delivery holds exactly one reference, and
    each delivery is its own ``Sample``).
    Detached handles (no arena) wrap wire-received payloads and ignore
    release entirely.
    """

    __slots__ = ("_arena", "slot", "data")

    def __init__(self, data: bytes, arena: "SlotArena | None" = None, slot: int = -1):
        self._arena = arena
        self.slot = slot
        self.data = data

    def release(self) -> None:
        if self._arena is not None:
            self._arena.release(self.slot)


class SlotArena:
    def __init__(self, slot_size: int = DEFAULT_SLOT_SIZE, slot_count: int = DEFAULT_SLOT_COUNT):
        if slot_size < 1 or slot_count < 1:
            raise ValueError("slot_size and slot_count must be positive")
        self.slot_size = slot_size
        self.slot_count = slot_count
        self._refs = [0] * slot_count
        self._free = list(range(slot_count - 1, -1, -1))

    def acquire(self, payload: bytes, holders: int = 1) -> BufferHandle:
        """Place a payload in a free slot with one reference per holder;
        with no holder the checks still apply but the slot stays free."""
        if len(payload) > self.slot_size:
            raise PayloadTooLarge(
                f"payload of {len(payload)} bytes exceeds slot size {self.slot_size}"
            )
        if not self._free:
            raise ArenaExhausted(f"all {self.slot_count} slots are held by readers")
        if holders < 1:
            return BufferHandle(payload)
        slot = self._free.pop()
        self._refs[slot] = holders
        return BufferHandle(payload, self, slot)

    def retain(self, slot: int) -> None:
        if self._refs[slot] <= 0:
            raise ValueError(f"retain on free slot {slot}")
        self._refs[slot] += 1

    def release(self, slot: int) -> None:
        if self._refs[slot] <= 0:
            return  # over-release is a no-op; the slot is already free
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            self._free.append(slot)

    def refcount(self, slot: int) -> int:
        return self._refs[slot]

    @property
    def free_count(self) -> int:
        return len(self._free)
