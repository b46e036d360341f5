"""In-process pub/sub: delivery, history bounds, durability, zero-copy."""

import random

import pytest

from dfp.middleware import (
    ArenaExhausted,
    Domain,
    Durability,
    History,
    InProcess,
    Loopback,
    PayloadTooLarge,
    QoSProfile,
    Reliability,
    TopicDescriptor,
    TypeHashMismatch,
    qos_compatible,
    type_hash_of,
)
from dfp.middleware.core import ParticipantClosed


def topic(name="sensors/test", schema="t", rel=Reliability.RELIABLE,
          hist=None, dur=Durability.VOLATILE, deadline=None):
    return TopicDescriptor(name, type_hash_of(schema),
                           QoSProfile(rel, hist or History.keep_last(8), dur, deadline))


@pytest.fixture
def domain():
    return Domain()


@pytest.fixture
def pair(domain):
    return domain.create_participant("writer"), domain.create_participant("reader")


def test_publish_take_roundtrip_identity(pair):
    w, r = pair
    pub = w.create_publisher(topic())
    sub = r.create_subscriber(topic())
    assert pub.publish(b"abc") == 0
    got = sub.take()
    assert [(s.seq, s.data) for s in got] == [(0, b"abc")]


def test_take_on_empty_queue_returns_nothing(pair):
    _, r = pair
    sub = r.create_subscriber(topic())
    assert sub.take() == []


def test_reliable_fifo_order(pair):
    w, r = pair
    pub = w.create_publisher(topic())
    sub = r.create_subscriber(topic(hist=History.keep_all()))
    for i in range(10):
        pub.publish(bytes([i]))
    got = sub.take(100)
    assert [s.seq for s in got] == list(range(10))


def test_keep_last_bounds_slow_subscriber_queue(pair):
    # oracle: replay the publish sequence against a plain ring buffer
    w, r = pair
    pub = w.create_publisher(topic(hist=History.keep_all()))
    sub = r.create_subscriber(topic(hist=History.keep_last(8)))
    ring = []
    for i in range(1000):
        pub.publish(i.to_bytes(2, "big"))
        ring.append(i)
        if len(ring) > 8:
            ring.pop(0)
    assert sub.queued() == 8
    got = sub.take()
    assert [int.from_bytes(s.data, "big") for s in got] == ring
    assert sub.drops_overflow == 992


def test_per_publisher_order_with_interleaved_publishers(domain):
    w1 = domain.create_participant("w1")
    w2 = domain.create_participant("w2")
    r = domain.create_participant("r")
    pub_a = w1.create_publisher(topic())
    pub_b = w2.create_publisher(topic())
    sub = r.create_subscriber(topic(hist=History.keep_all()))
    rng = random.Random(3)
    log = {pub_a.publisher_id: [], pub_b.publisher_id: []}
    for _ in range(200):
        pub = pub_a if rng.random() < 0.5 else pub_b
        seq = pub.publish(b"x")
        log[pub.publisher_id].append(seq)
    got = sub.take()
    seen = {pub_a.publisher_id: [], pub_b.publisher_id: []}
    for s in got:
        seen[s.publisher_id].append(s.seq)
    assert seen == log  # per-publisher subsequences arrive complete and in order


def test_transient_local_late_subscriber_gets_latest_only(pair):
    w, r = pair
    tl = topic(dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(1))
    pub = w.create_publisher(tl)
    for i in range(5):
        pub.publish(f"v{i}".encode())
    late = r.create_subscriber(tl)
    got = late.take()
    assert [(s.seq, s.data) for s in got] == [(4, b"v4")]


def test_volatile_late_subscriber_gets_nothing_until_next_publish(pair):
    w, r = pair
    tl = topic(dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(1))
    pub = w.create_publisher(tl)
    pub.publish(b"old")
    vol = r.create_subscriber(topic(dur=Durability.VOLATILE, hist=History.keep_last(1)))
    assert vol.take() == []
    pub.publish(b"new")
    assert [s.data for s in vol.take()] == [b"new"]


def test_reliable_subscriber_does_not_match_best_effort_publisher(pair):
    w, r = pair
    pub = w.create_publisher(topic(rel=Reliability.BEST_EFFORT))
    sub = r.create_subscriber(topic(rel=Reliability.RELIABLE))
    pub.publish(b"x")
    assert sub.take() == []
    assert pub.matched_subscriptions() == 0


def test_best_effort_subscriber_matches_reliable_publisher(pair):
    w, r = pair
    pub = w.create_publisher(topic(rel=Reliability.RELIABLE))
    sub = r.create_subscriber(topic(rel=Reliability.BEST_EFFORT))
    pub.publish(b"x")
    assert [s.data for s in sub.take()] == [b"x"]


TRANSPORTS = pytest.mark.parametrize("transport", [InProcess(), Loopback(7201)],
                                     ids=["inprocess", "loopback"])


@TRANSPORTS
def test_type_hash_mismatch_on_second_publisher(domain, transport):
    w = domain.create_participant("writer", transport)
    domain.create_participant("reader", transport)
    w.create_publisher(topic(schema="a"))
    domain.spin()
    with pytest.raises(TypeHashMismatch):
        w.create_publisher(topic(schema="b"))
    # the refused create allocated no entity id
    assert w.create_publisher(topic(schema="a")).entity_id == 2


@TRANSPORTS
def test_type_hash_mismatch_on_subscriber(domain, transport):
    w = domain.create_participant("writer", transport)
    r = domain.create_participant("reader", transport)
    w.create_publisher(topic(schema="a"))
    domain.spin()  # on loopback, the reader learns the topic from the writer's announce
    with pytest.raises(TypeHashMismatch):
        r.create_subscriber(topic(schema="b"))
    assert r.create_subscriber(topic(schema="a")).entity_id == 1


def test_zero_copy_buffer_identity_across_subscribers(domain):
    w = domain.create_participant("w")
    r1 = domain.create_participant("r1")
    r2 = domain.create_participant("r2")
    pub = w.create_publisher(topic())
    sub1 = r1.create_subscriber(topic())
    sub2 = r2.create_subscriber(topic())
    payload = b"shared payload bytes"
    pub.publish(payload)
    s1 = sub1.take()[0]
    s2 = sub2.take()[0]
    assert s1.payload is s2.payload  # the very same buffer handle
    assert s1.data is payload  # and no byte was copied on the way


def test_slot_recycled_only_after_all_readers_release(domain):
    domain = Domain(arena_slot_size=64, arena_slot_count=1)
    w = domain.create_participant("w")
    r1 = domain.create_participant("r1")
    r2 = domain.create_participant("r2")
    pub = w.create_publisher(topic(hist=History.keep_last(1)))
    sub1 = r1.create_subscriber(topic(hist=History.keep_last(1)))
    sub2 = r2.create_subscriber(topic(hist=History.keep_last(1)))
    pub.publish(b"a")
    s1 = sub1.take()[0]
    s2 = sub2.take()[0]
    with pytest.raises(ArenaExhausted):
        pub.publish(b"b")  # both readers still hold the only slot
    s1.release()
    with pytest.raises(ArenaExhausted):
        pub.publish(b"b")
    s2.release()
    assert pub.publish(b"b") == 1


def test_slot_is_counted_once_for_each_reader_and_the_retained_ring():
    domain = Domain(arena_slot_size=64, arena_slot_count=2)
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    tl = topic(dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(1))
    pub = w.create_publisher(tl)
    readers = (r.create_subscriber(tl), r.create_subscriber(tl))
    arena = pub._arena
    pub.publish(b"a")
    first = [sub.take()[0] for sub in readers]
    slot = first[0].payload.slot
    assert arena.refcount(slot) == 3  # two readers and the ring, no publisher
    for sample in first:
        sample.release()
    assert arena.refcount(slot) == 1 and arena.free_count == 1  # the ring holds it
    late = r.create_subscriber(tl)  # replay retains the ring's slot
    (replayed,) = late.take()
    assert (replayed.seq, replayed.data) == (0, b"a")
    assert arena.refcount(slot) == 2
    replayed.release()
    pub.publish(b"b")  # the ring evicts "a" and its slot recycles
    assert arena.refcount(slot) == 0
    assert arena.free_count == 1  # "b" holds the other slot
    volatile = w.create_publisher(topic(hist=History.keep_last(1)))
    assert volatile.matched_subscriptions() == 0  # volatile cannot serve TL readers
    volatile.publish(b"c")
    assert arena.free_count == 1


def test_releasing_a_sample_twice_leaves_the_ring_its_reference():
    domain = Domain(arena_slot_size=64, arena_slot_count=2)
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    tl = topic(dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(1))
    pub = w.create_publisher(tl)
    reader = r.create_subscriber(tl)
    arena = pub._arena
    pub.publish(b"one")
    (sample,) = reader.take()
    sample.release()
    sample.release()
    pub.publish(b"two")
    (queued,) = reader._queue
    slot = queued.payload.slot
    assert arena.refcount(slot) == 2  # the reader and the ring
    late = r.create_subscriber(tl)
    (replayed,) = late.take()
    assert (replayed.seq, replayed.data) == (1, b"two")
    assert arena.refcount(slot) == 3  # the reader, the ring and the late reader


def test_over_release_by_one_reader_never_reaches_the_rings_reference():
    domain = Domain(arena_slot_size=64, arena_slot_count=2)
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    tl = topic(dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(1))
    pub = w.create_publisher(tl)
    first, second = r.create_subscriber(tl), r.create_subscriber(tl)
    arena = pub._arena
    pub.publish(b"a")
    (mine,), (theirs,) = first.take(), second.take()
    slot = mine.payload.slot
    for _ in range(3):
        mine.release()
    assert arena.refcount(slot) == 2  # only its own delivery is spent: theirs and the ring
    theirs.release()
    assert arena.refcount(slot) == 1  # the ring still holds "a"
    late = r.create_subscriber(tl)
    (replayed,) = late.take()
    assert replayed.data == b"a" and arena.refcount(slot) == 2


def test_a_second_release_never_spends_a_sibling_readers_reference():
    domain = Domain(arena_slot_size=64, arena_slot_count=1)
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    pub = w.create_publisher(topic())
    first, second = r.create_subscriber(topic()), r.create_subscriber(topic())
    pub.publish(b"a")
    (mine,), (theirs,) = first.take(), second.take()
    mine.release()
    mine.release()
    with pytest.raises(ArenaExhausted):  # the one slot still holds reader 2's "a"
        pub.publish(b"b")
    assert theirs.data == b"a"


def test_publish_too_large_for_arena_slot():
    domain = Domain(arena_slot_size=16)
    w = domain.create_participant("w")
    pub = w.create_publisher(topic())
    with pytest.raises(PayloadTooLarge):
        pub.publish(b"x" * 17)


def test_empty_payload_is_legal(pair):
    w, r = pair
    pub = w.create_publisher(topic())
    sub = r.create_subscriber(topic())
    pub.publish(b"")
    got = sub.take()
    assert got[0].data == b""


def test_publishing_with_zero_subscribers_is_legal(pair):
    w, _ = pair
    pub = w.create_publisher(topic())
    assert pub.publish(b"x") == 0
    assert pub.publish(b"y") == 1


def test_matching_oracle_over_randomized_descriptor_pairs(domain):
    # endpoint pairs connect iff names equal, hashes equal and qos covers
    rng = random.Random(11)
    names = ["a", "b"]
    schemas = ["s1", "s2"]
    cases = []
    for _ in range(120):
        cases.append((
            rng.choice(names), rng.choice(schemas),
            rng.choice(list(Reliability)), rng.choice(list(Durability)),
            rng.choice(names), rng.choice(schemas),
            rng.choice(list(Reliability)), rng.choice(list(Durability)),
        ))
    for i, (pn, ps, pr, pd, sn, ss, sr, sd) in enumerate(cases):
        d = Domain()
        w = d.create_participant("w")
        r = d.create_participant("r")
        t_pub = TopicDescriptor(pn, type_hash_of(ps), QoSProfile(pr, History.keep_last(4), pd))
        t_sub = TopicDescriptor(sn, type_hash_of(ss), QoSProfile(sr, History.keep_last(4), sd))
        pub = w.create_publisher(t_pub)
        try:
            sub = r.create_subscriber(t_sub)
        except TypeHashMismatch:
            assert pn == sn and ps != ss
            continue
        expect = pn == sn and ps == ss and qos_compatible(t_pub.qos, t_sub.qos)
        pub.publish(b"probe")
        assert (len(sub.take()) == 1) == expect, f"case {i}: {cases[i]}"


def test_deadline_misses_are_reported_not_match_blocking(domain):
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    pub = w.create_publisher(topic(deadline=10))
    sub = r.create_subscriber(topic(deadline=10))
    pub.publish(b"x")
    assert len(sub.take()) == 1
    domain.advance(35_000_000, 5_000_000)  # 35 ms with no samples
    assert sub.deadline_misses == 3


def test_concurrent_publishers_and_taker(domain):
    import threading
    import time

    w1 = domain.create_participant("w1")
    w2 = domain.create_participant("w2")
    r = domain.create_participant("r")
    pub1 = w1.create_publisher(topic())
    pub2 = w2.create_publisher(topic())
    sub = r.create_subscriber(topic(hist=History.keep_all()))
    n = 2000
    taken = []
    # a domain belongs to one thread at a time: threads that share it
    # serialize their calls, here with one lock the program owns
    domain_lock = threading.Lock()

    def writer(pub):
        for i in range(n):
            while True:  # a full arena is backpressure, not an error
                try:
                    with domain_lock:
                        pub.publish(i.to_bytes(4, "big"))
                    break
                except ArenaExhausted:
                    time.sleep(0.0005)

    def taker():
        # consuming promptly releases slots; writers never hit backpressure
        while len(taken) < 2 * n:
            with domain_lock:
                for sample in sub.take():
                    taken.append((sample.publisher_id, sample.seq))
                    sample.release()

    threads = [threading.Thread(target=writer, args=(pub1,)),
               threading.Thread(target=writer, args=(pub2,)),
               threading.Thread(target=taker)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(taken) == 2 * n
    for pid in (pub1.publisher_id, pub2.publisher_id):
        seqs = [seq for got_pid, seq in taken if got_pid == pid]
        assert seqs == list(range(n))  # per-publisher order survives threading


def test_silently_closed_participant_leaves_the_data_plane_and_frees_its_slots(domain):
    w = domain.create_participant("w")
    r = domain.create_participant("r")
    keep_all = topic(hist=History.keep_all())
    pub = w.create_publisher(keep_all)
    sub = r.create_subscriber(keep_all)
    ring_topic = topic("env/state", dur=Durability.TRANSIENT_LOCAL, hist=History.keep_last(4))
    ring = r.create_publisher(ring_topic)
    for i in range(10):
        pub.publish(bytes([i]))
        ring.publish(bytes([i]))
    arena, ring_arena = pub._arena, ring._arena
    assert sub.queued() == 10 and ring_arena.free_count == arena.slot_count - 4
    r.close(graceful=False)
    assert pub.matched_subscriptions() == 0
    with pytest.raises(ParticipantClosed):
        ring.publish(b"late")
    assert arena.free_count == arena.slot_count  # the queue's ten slots are back
    assert ring_arena.free_count == ring_arena.slot_count  # and the ring's four
    # the records stay until liveliness expires them
    assert any(rec.participant_id == r.participant_id for rec in w.discover("topics"))
    for i in range(2000):  # past the 1024 slots a queued reader would hold
        pub.publish(i.to_bytes(2, "big"))
    assert arena.free_count == arena.slot_count
