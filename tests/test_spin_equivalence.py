"""A quiet ``Domain.spin`` skips only rounds that would change nothing.

Each seeded script runs twice: once on a ``Domain``, whose spin returns at
once when nothing can be due, and once on a reference domain that spins
every participant on every call. Everything a user can observe must match.
"""

from hypothesis import example, given, settings, strategies as st

from dfp.middleware import (
    Domain,
    Durability,
    History,
    InProcess,
    Loopback,
    MiddlewareError,
    QoSProfile,
    Reliability,
    ServiceDescriptor,
    TopicDescriptor,
    type_hash_of,
)
from dfp.middleware.core import ServiceFault
from dfp.util import MS

PORTS = (9301, 9302)
TOPICS = (
    TopicDescriptor("eq/reliable", type_hash_of("r"),
                    QoSProfile(Reliability.RELIABLE, History.keep_last(4))),
    TopicDescriptor("eq/best_effort", type_hash_of("b"),
                    QoSProfile(Reliability.BEST_EFFORT, History.keep_all(), deadline_ms=20)),
    TopicDescriptor("eq/latched", type_hash_of("l"),
                    QoSProfile(Reliability.RELIABLE, History.keep_last(2),
                               Durability.TRANSIENT_LOCAL, deadline_ms=50)),
)
SERVICES = ("svc/echo", "svc/fail", "svc/relay")


class AlwaysSpinDomain(Domain):
    """The reference: every spin runs every participant's protocol round."""

    def spin(self) -> None:
        for p in list(self._participants_by_id.values()):
            p.spin()


def handler(service: str, owner):
    """``svc/relay`` calls ``svc/echo`` from inside a spin, so its rounds nest."""
    def handle(request: bytes) -> bytes:
        if service == "svc/fail":
            raise ServiceFault(7, owner.name)
        if service == "svc/relay":
            return owner.call("svc/echo", request, timeout_ms=3)
        return owner.name.encode() + b":" + request
    return handle


index = st.integers(min_value=0, max_value=3)
creates = st.tuples(st.just("create"), st.sampled_from((None, None, PORTS[0], PORTS[0], PORTS[1])))
spins = st.tuples(st.just("spin"))
clock_steps = st.tuples(st.just("clock"), st.sampled_from((0, 0, 1, 5, 100, 300)))
# one_of draws its branches evenly, so the cheap and telling steps (spins,
# clock steps that often keep the instant) are listed more than once
steps = st.one_of(
    creates,
    st.tuples(st.just("publisher"), index, index),
    st.tuples(st.just("subscriber"), index, index),
    st.tuples(st.just("service"), index, st.sampled_from(SERVICES)),
    st.tuples(st.just("publish"), index, st.binary(max_size=8)),
    st.tuples(st.just("take"), index, st.sampled_from((None, 1, 2))),
    st.tuples(st.just("call"), index, st.sampled_from(SERVICES + ("svc/none",)),
              st.sampled_from((0, 3, 20))),
    st.tuples(st.just("close"), index, st.booleans()),
    clock_steps,
    clock_steps,
    st.tuples(st.just("advance"), st.sampled_from((0, 1, 5, 120)), st.sampled_from((1, 100))),
    st.tuples(st.just("set_loss"), st.sampled_from(PORTS), st.sampled_from((0.2, 0.5))),
    spins,
    spins,
    spins,
    st.tuples(st.just("discover"), index),
)
scripts = st.tuples(st.lists(creates, min_size=2, max_size=4),
                    st.lists(steps, max_size=40)).map(lambda parts: parts[0] + parts[1])


def pick(items: list, i: int):
    return items[i % len(items)] if items else None


def run_script(domain: Domain, script) -> list:
    """Apply the script; return every observation a user could make."""
    parts, pubs, subs = [], [], []
    seen: list = []
    for step in script:
        kind = step[0]
        try:
            if kind == "create":
                transport = InProcess() if step[1] is None else Loopback(step[1])
                parts.append(domain.create_participant(f"p{len(parts)}", transport))
            elif kind == "publisher" and parts:
                pubs.append(pick(parts, step[1]).create_publisher(pick(TOPICS, step[2])))
            elif kind == "subscriber" and parts:
                subs.append(pick(parts, step[1]).create_subscriber(pick(TOPICS, step[2])))
            elif kind == "service" and parts:
                p = pick(parts, step[1])
                p.register_service(ServiceDescriptor(step[2]), handler(step[2], p))
            elif kind == "publish" and pubs:
                seen.append(pick(pubs, step[1]).publish(step[2]))
            elif kind == "take" and subs:
                taken = pick(subs, step[1]).take(step[2])
                seen.append([(s.seq, s.data) for s in taken])
                for sample in taken:
                    sample.release()
            elif kind == "call" and parts:
                seen.append(pick(parts, step[1]).call(step[2], b"q", timeout_ms=step[3]))
            elif kind == "close" and parts:
                pick(parts, step[1]).close(graceful=step[2])
            elif kind == "clock":
                domain.clock.advance(step[1] * MS)
            elif kind == "advance":
                domain.advance(step[1] * MS, step[2] * MS)
            elif kind == "set_loss":
                domain.set_loss(step[1], step[2], seed=3)
            elif kind == "spin":
                domain.spin()
            elif kind == "discover" and parts:
                seen.append(pick(parts, step[1]).discover("all"))
        except (MiddlewareError, ValueError) as exc:
            seen.append((kind, type(exc).__name__, getattr(exc, "code", None)))
        seen.append(domain.now_ns())
    seen.append([p.discover("all") for p in parts])
    for sub in subs:
        seen.append((sub.delivered_count, sub.drops_gap, sub.drops_overflow,
                     sub.deadline_misses, [(s.seq, s.data) for s in sub.take()]))
    for port in PORTS:
        if port in domain._buses:
            bus = domain.bus(port)
            seen.append((port, bus.dropped_frames, bus.frame_log))
    return seen


@settings(max_examples=200, deadline=None)
@given(scripts)
# a frame sent between two spins at one instant must still be handled
@example([("create", PORTS[0]), ("create", PORTS[0]), ("spin",), ("publisher", 1, 0),
          ("spin",), ("discover", 0)])
# a participant created between them must still send its first heartbeat then
@example([("create", None), ("create", None), ("spin",), ("create", None), ("spin",),
          ("clock", 5), ("spin",), ("discover", 0)])
def test_quiet_spin_is_observably_a_full_spin(script):
    assert run_script(Domain(), script) == run_script(AlwaysSpinDomain(), script)

