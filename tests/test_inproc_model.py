"""The in-process plane's slot accounting against a reference model.

A seeded state machine creates participants and endpoints, publishes,
takes, releases (twice, sometimes) and closes, on one domain whose arenas
have 1-4 slots. ``oracles.InProcArenaModel`` counts the references each
slot should hold. After every step each topic's arena must agree with it
slot by slot, and ``publish`` must raise ``ArenaExhausted`` exactly when the
model has no free slot. Each subscriber must take each publisher's seqs in
increasing order. Derandomized, with 150 examples of up to 30 steps, it
runs in about 3-4 s on a 2-vCPU guest; its budget in tier-1 is 5 s.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dfp.middleware import (
    ArenaExhausted,
    Domain,
    Durability,
    History,
    QoSProfile,
    Reliability,
    TopicDescriptor,
    type_hash_of,
)
from dfp.middleware.core import ParticipantClosed
from oracles import InProcArenaModel

TOPICS = ("model/a", "model/b")
index = st.integers(min_value=0, max_value=7)
histories = st.sampled_from((1, 2, 3, None))  # keep_last(1..3) or keep_all


def descriptor(name: str, transient_local: bool, depth: int | None) -> TopicDescriptor:
    qos = QoSProfile(Reliability.RELIABLE,
                     History.keep_all() if depth is None else History.keep_last(depth),
                     Durability.TRANSIENT_LOCAL if transient_local else Durability.VOLATILE)
    return TopicDescriptor(name, type_hash_of(name), qos)


def pick(items: list, i: int):
    return items[i % len(items)]


class InProcArenaMachine(RuleBasedStateMachine):
    @initialize(slot_count=st.integers(min_value=1, max_value=4))
    def make_domain(self, slot_count):
        self.domain = Domain(arena_slot_size=64, arena_slot_count=slot_count)
        self.model = InProcArenaModel(slot_count)
        self.parts, self.pubs, self.subs = [], [], []
        self.arenas = {}  # topic -> its arena, seen through a publisher
        self.held = []  # (sample, model delivery) taken, released or not
        self.last_seq = {}  # (subscriber, publisher id) -> last seq taken
        for _ in range(2):
            self.create_participant()

    def _live(self) -> list[int]:
        return [i for i, alive in enumerate(self.model.alive) if alive]

    def _slot_refs(self, topic):
        arena = self.arenas[topic]
        return [arena.refcount(slot) for slot in range(arena.slot_count)]

    @precondition(lambda self: len(self.parts) < 5)
    @rule()
    def create_participant(self):
        self.parts.append(self.domain.create_participant(f"p{len(self.parts)}"))
        self.model.add_participant()

    @rule(part=index, topic=st.sampled_from(TOPICS), transient_local=st.booleans(),
          depth=histories, publisher=st.booleans())
    def create_endpoint(self, part, topic, transient_local, depth, publisher):
        i = pick(self._live(), part)
        desc = descriptor(topic, transient_local, depth)
        if publisher:
            pub = self.parts[i].create_publisher(desc)
            assert self.arenas.setdefault(topic, pub._arena) is pub._arena
            self.pubs.append(pub)
            self.model.add_publisher(i, topic, transient_local, depth)
        else:
            self.subs.append(self.parts[i].create_subscriber(desc))
            self.model.add_subscriber(i, topic, transient_local, depth)

    @precondition(lambda self: self.pubs)
    @rule(which=index)
    def publish(self, which):
        i = which % len(self.pubs)
        pub = self.pubs[i]
        before = self._slot_refs(pub.topic.name)
        expected = self.model.publish(i)
        try:
            seq = pub.publish(b"%d:%d" % (i, pub.next_seq))
        except ParticipantClosed:
            assert expected == "closed"
            return
        except ArenaExhausted:
            assert expected == "exhausted"
            return
        assert expected not in ("closed", "exhausted"), expected
        model_seq, item = expected
        assert seq == model_seq
        after = self._slot_refs(pub.topic.name)
        taken = [s for s, (b, a) in enumerate(zip(before, after)) if b == 0 and a > 0]
        assert len(taken) == (item is not None)
        if item is not None:
            self.model.place(item, taken[0])

    @precondition(lambda self: self.subs)
    @rule(which=index, releases=st.integers(min_value=0, max_value=2))
    def take(self, which, releases):
        # a queue with something in it, when there is one
        i = pick([i for i, sub in enumerate(self.subs) if sub.queued()]
                 or range(len(self.subs)), which)
        samples = self.subs[i].take()
        deliveries = self.model.take(i)
        assert len(samples) == len(deliveries)
        for sample, delivery in zip(samples, deliveries):
            _, pub_index, seq, _ = delivery
            pub = self.pubs[pub_index]
            assert (sample.publisher_id, sample.seq) == (pub.publisher_id, seq)
            assert sample.data == b"%d:%d" % (pub_index, seq)
            key = (i, pub.publisher_id)
            assert seq > self.last_seq.get(key, -1)  # each publisher's seqs ascend
            self.last_seq[key] = seq
            self.held.append((sample, delivery))
            for _ in range(releases):  # at once, or keep it for ``release``
                sample.release()
                self.model.release(delivery)

    @precondition(lambda self: self.held)
    @rule(which=index, twice=st.booleans())
    def release(self, which, twice):
        sample, delivery = pick(self.held, which)
        for _ in range(1 + twice):
            sample.release()
            self.model.release(delivery)

    @precondition(lambda self: len(self._live()) > 1)  # one participant always lives
    @rule(part=index, graceful=st.booleans())
    def close(self, part, graceful):
        i = pick(self._live(), part)
        self.parts[i].close(graceful=graceful)
        self.model.close(i)

    @invariant()
    def arenas_hold_what_the_model_counts(self):
        for topic, arena in self.arenas.items():
            held = self.model.held(topic)
            assert self._slot_refs(topic) == [held.get(s, 0) for s in range(arena.slot_count)]
            assert arena.free_count + len(held) == arena.slot_count


InProcArenaMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, derandomize=True, deadline=None)
test_inproc_arena_accounting = InProcArenaMachine.TestCase
