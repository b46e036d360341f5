import pytest

from dfp.middleware.arena import ArenaExhausted, BufferHandle, PayloadTooLarge, SlotArena


def test_acquire_returns_handle_to_same_bytes_object():
    arena = SlotArena(slot_size=64, slot_count=4)
    payload = b"hello"
    handle = arena.acquire(payload)
    assert handle.data is payload
    assert len(handle.data) == 5


def test_payload_larger_than_slot_rejected():
    arena = SlotArena(slot_size=8, slot_count=2)
    with pytest.raises(PayloadTooLarge):
        arena.acquire(b"x" * 9)


def test_slot_recycles_only_at_zero_references():
    arena = SlotArena(slot_size=16, slot_count=1)
    handle = arena.acquire(b"a")
    arena.retain(handle.slot)  # two readers now
    assert arena.free_count == 0
    handle.release()
    assert arena.free_count == 0  # one reader still holds the slot
    handle.release()
    assert arena.free_count == 1


def test_exhaustion_and_reuse():
    arena = SlotArena(slot_size=16, slot_count=2)
    h1 = arena.acquire(b"a")
    h2 = arena.acquire(b"b")
    with pytest.raises(ArenaExhausted):
        arena.acquire(b"c")
    h1.release()
    h3 = arena.acquire(b"c")
    assert h3.slot == h1.slot  # the freed slot is the one reused
    assert arena.refcount(h2.slot) == 1


def test_over_release_is_a_noop():
    arena = SlotArena(slot_size=16, slot_count=1)
    handle = arena.acquire(b"a")
    handle.release()
    handle.release()
    assert arena.free_count == 1
    assert arena.acquire(b"b").slot == handle.slot


def test_detached_handle_ignores_release():
    handle = BufferHandle(b"wire payload")
    handle.release()
    assert handle.data == b"wire payload"
