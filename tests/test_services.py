"""Client/server calls: correlation, timeouts, faults, liveliness."""

import pytest

from dfp.middleware import (
    Domain,
    DuplicateService,
    InProcess,
    Loopback,
    Participant,
    RemoteError,
    ServiceDescriptor,
    ServiceNotFound,
    Timeout,
)
from dfp.middleware.core import ServiceFault
from dfp.middleware.core import HEARTBEAT_PERIOD_NS, LIVELINESS_PERIODS


@pytest.fixture
def domain():
    return Domain()


TRANSPORTS = pytest.mark.parametrize("transport", [InProcess(), Loopback(7101)],
                                     ids=["inprocess", "loopback"])


def test_echo_roundtrip(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    handle = server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    assert handle.service_name == "diag/echo"
    assert client.call("diag/echo", b"x", timeout_ms=100) == b"x"


def test_inprocess_call_answered_at_once_spins_the_domain_once(domain, monkeypatch):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    domain.spin()
    spins = []
    original = Domain.spin

    def counted(self):
        spins.append(self)
        return original(self)

    monkeypatch.setattr(Domain, "spin", counted)
    assert client.call("diag/echo", b"x", timeout_ms=100) == b"x"
    # the spin before the lookup keeps liveliness pruning; the reply needs none
    assert spins == [domain]


def test_inprocess_calls_at_an_unchanged_clock_spin_no_participant(domain, monkeypatch):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    assert client.call("diag/echo", b"first", timeout_ms=100) == b"first"
    spins = []
    spin = Participant.spin

    def counted_spin(self):
        spins.append(self.name)
        return spin(self)

    monkeypatch.setattr(Participant, "spin", counted_spin)
    for i in range(200):
        assert client.call("diag/echo", bytes([i]), timeout_ms=100) == bytes([i])
    # the first call's round left nothing due at this instant
    assert spins == []


def test_registered_service_is_discoverable(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    names = [r.descriptor.service_name for r in client.discover("services")]
    assert names == ["diag/echo"]


def test_call_unknown_service_raises(domain):
    client = domain.create_participant("client")
    with pytest.raises(ServiceNotFound):
        client.call("no/such", b"", timeout_ms=10)


def test_duplicate_registration_rejected(domain):
    server = domain.create_participant("server")
    other = domain.create_participant("other")
    server.register_service(ServiceDescriptor("cfg/get"), lambda req: req)
    with pytest.raises(DuplicateService):
        server.register_service(ServiceDescriptor("cfg/get"), lambda req: req)
    with pytest.raises(DuplicateService):
        other.register_service(ServiceDescriptor("cfg/get"), lambda req: req)


def test_slow_handler_times_out_and_late_response_is_discarded(domain):
    client = domain.create_participant("client", Loopback(7101))
    server = domain.create_participant("server", Loopback(7101))
    calls = []
    held = []  # frames delayed until the provider handles its next request

    def echo(req):
        calls.append(req)
        client._inbox.extend(held)
        held.clear()
        return b"re:" + req

    server.register_service(ServiceDescriptor("diag/echo"), echo)
    domain.spin()
    # the server answers in the same spin the call times out in, so the
    # reply is still queued for the client when Timeout is raised
    with pytest.raises(Timeout):
        client.call("diag/echo", b"first", timeout_ms=0)
    assert len(client._inbox) == 1
    # deliver the late reply while the next call is waiting: it must not
    # answer that call
    held.append(client._inbox.popleft())
    assert client.call("diag/echo", b"second", timeout_ms=100) == b"re:second"
    assert calls == [b"first", b"second"] and not held and not client._inbox
    # a silent provider whose record is still live leaves the call unanswered
    server.close(graceful=False)
    with pytest.raises(Timeout):
        client.call("diag/echo", b"third", timeout_ms=10)
    assert calls == [b"first", b"second"]


@TRANSPORTS
def test_handler_fault_propagates_with_code(domain, transport):
    server = domain.create_participant("server", transport)
    client = domain.create_participant("client", transport)

    def failing(req):
        raise ServiceFault(42, "bad input")

    server.register_service(ServiceDescriptor("diag/fail"), failing)
    domain.spin()
    with pytest.raises(RemoteError) as err:
        client.call("diag/fail", b"", timeout_ms=100)
    assert err.value.code == 42
    assert "bad input" in err.value.message


@TRANSPORTS
def test_unexpected_handler_exception_becomes_remote_error(domain, transport):
    server = domain.create_participant("server", transport)
    client = domain.create_participant("client", transport)
    server.register_service(ServiceDescriptor("diag/crash"),
                            lambda req: 1 / 0)
    domain.spin()
    with pytest.raises(RemoteError) as err:
        client.call("diag/crash", b"", timeout_ms=100)
    assert err.value.code == 1


@TRANSPORTS
def test_handler_returning_non_bytes_becomes_remote_error(domain, transport):
    server = domain.create_participant("server", transport)
    client = domain.create_participant("client", transport)
    server.register_service(ServiceDescriptor("diag/text"), lambda req: "not bytes")
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    domain.spin()
    with pytest.raises(RemoteError, match="must return bytes") as err:
        client.call("diag/text", b"", timeout_ms=100)
    assert err.value.code == 1
    # the fault ended that call only: the domain goes on answering
    assert client.call("diag/echo", b"after", timeout_ms=100) == b"after"


def test_inprocess_call_to_a_silently_closed_provider_is_refused(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda r: r)
    assert client.call("diag/echo", b"x", timeout_ms=10) == b"x"
    server.close(graceful=False)
    # the record is still live, but the plane sees the provider has closed
    with pytest.raises(ServiceNotFound, match="is gone"):
        client.call("diag/echo", b"y", timeout_ms=10)


def test_service_record_expires_after_provider_goes_silent(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda r: r)
    domain.spin()
    server.close(graceful=False)
    domain.clock.advance(LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS)
    client.spin()
    assert client.discover("services") == []
    with pytest.raises(ServiceNotFound):
        client.call("diag/echo", b"", timeout_ms=10)


def test_quiet_calls_still_see_a_silent_provider_expire(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/echo"), lambda r: r)
    for _ in range(3):  # the later calls find the domain quiet
        assert client.call("diag/echo", b"x", timeout_ms=10) == b"x"
    server.close(graceful=False)
    domain.clock.advance(LIVELINESS_PERIODS * HEARTBEAT_PERIOD_NS)
    # the call's own round prunes the provider before the lookup
    with pytest.raises(ServiceNotFound, match="no live provider"):
        client.call("diag/echo", b"", timeout_ms=10)
    with pytest.raises(ServiceNotFound, match="no live provider"):
        client.call("diag/echo", b"", timeout_ms=10)
    assert client.discover("services") == []


def test_call_over_loopback(domain):
    server = domain.create_participant("server", Loopback(7100))
    client = domain.create_participant("client", Loopback(7100))
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: b"<" + req + b">")
    domain.spin()
    assert client.call("diag/echo", b"ping", timeout_ms=500) == b"<ping>"
