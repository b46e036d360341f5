"""Client/server calls: correlation, timeouts, faults, liveliness."""

import pytest

from dfp.middleware import (
    Domain,
    DuplicateService,
    Loopback,
    RemoteError,
    ServiceDescriptor,
    ServiceNotFound,
    Timeout,
)
from dfp.middleware.core import DelayedResponse, ServiceFault
from dfp.middleware.core import HEARTBEAT_PERIOD_NS, LIVELINESS_PERIODS


@pytest.fixture
def domain():
    return Domain()


def test_echo_roundtrip(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    handle = server.register_service(ServiceDescriptor("diag/echo"), lambda req: req)
    assert handle.service_name == "diag/echo"
    assert client.call("diag/echo", b"x", timeout_ms=100) == b"x"


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
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    calls = []

    def slow(req):
        calls.append(req)
        return DelayedResponse(b"late:" + req, delay_ms=50)

    server.register_service(ServiceDescriptor("diag/slow"), slow)
    with pytest.raises(Timeout):
        client.call("diag/slow", b"first", timeout_ms=10)
    # the late response must not leak into an unrelated later call
    server2 = domain.create_participant("server2")
    server2.register_service(ServiceDescriptor("diag/fast"), lambda req: b"fast")
    assert client.call("diag/fast", b"second", timeout_ms=200) == b"fast"
    assert calls == [b"first"]


def test_handler_fault_propagates_with_code(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")

    def failing(req):
        raise ServiceFault(42, "bad input")

    server.register_service(ServiceDescriptor("diag/fail"), failing)
    with pytest.raises(RemoteError) as err:
        client.call("diag/fail", b"", timeout_ms=100)
    assert err.value.code == 42
    assert "bad input" in err.value.message


def test_unexpected_handler_exception_becomes_remote_error(domain):
    server = domain.create_participant("server")
    client = domain.create_participant("client")
    server.register_service(ServiceDescriptor("diag/crash"),
                            lambda req: 1 / 0)
    with pytest.raises(RemoteError) as err:
        client.call("diag/crash", b"", timeout_ms=100)
    assert err.value.code == 1


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


def test_call_over_loopback(domain):
    server = domain.create_participant("server", Loopback(7100))
    client = domain.create_participant("client", Loopback(7100))
    server.register_service(ServiceDescriptor("diag/echo"), lambda req: b"<" + req + b">")
    domain.spin()
    assert client.call("diag/echo", b"ping", timeout_ms=500) == b"<ping>"
