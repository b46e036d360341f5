"""Device registry, deterministic frame generation, normalization."""

import pytest
from hypothesis import given, strategies as st

from dfp.hal import (
    NORMALIZED_SCHEMAS,
    DeviceDescriptor,
    DeviceKind,
    DeviceRegistry,
    DuplicateDeviceId,
    InvalidRate,
    SensorFrame,
    UnknownDevice,
    UnsupportedKind,
    normalize,
)


def cam(device_id="cam0", rate=30.0, seed=7):
    return DeviceDescriptor(device_id, DeviceKind.CAMERA, rate, seed, "ai-unit")


def test_first_registration_succeeds():
    reg = DeviceRegistry()
    handle = reg.register_device(cam())
    assert handle.descriptor.device_id == "cam0"
    assert reg.handle("cam0") is handle


def test_duplicate_device_id_rejected():
    reg = DeviceRegistry()
    reg.register_device(cam())
    with pytest.raises(DuplicateDeviceId):
        reg.register_device(cam())


def test_rate_boundaries():
    reg = DeviceRegistry()
    with pytest.raises(InvalidRate):
        reg.register_device(cam(device_id="a", rate=0))
    with pytest.raises(InvalidRate):
        reg.register_device(cam(device_id="b", rate=1001))
    reg.register_device(cam(device_id="c", rate=1000))


def test_unknown_device_lookup():
    reg = DeviceRegistry()
    with pytest.raises(UnknownDevice):
        reg.handle("ghost")


def test_tick_counter_semantics():
    reg = DeviceRegistry()
    handle = reg.register_device(cam())
    first = handle.tick(3)
    second = handle.tick(1)
    assert [f.seq for f in first] == [0, 1, 2]
    assert [f.seq for f in second] == [3]


def test_gps_timestamp_formula():
    reg = DeviceRegistry()
    handle = reg.register_device(DeviceDescriptor("gps0", DeviceKind.GPS, 10.0, 1))
    frames = handle.tick(11)
    assert frames[10].timestamp_ns == 1_000_000_000


def test_two_registries_same_descriptor_generate_identical_streams():
    # determinism oracle: run the generator twice, compare the streams
    for kind in DeviceKind:
        desc = DeviceDescriptor("dev", kind, 20.0, seed=99)
        a = DeviceRegistry().register_device(desc).tick(5)
        b = DeviceRegistry().register_device(desc).tick(5)
        assert a == b


def test_different_seed_changes_payloads():
    d1 = DeviceDescriptor("dev", DeviceKind.RADAR, 20.0, seed=1)
    d2 = DeviceDescriptor("dev", DeviceKind.RADAR, 20.0, seed=2)
    a = DeviceRegistry().register_device(d1).tick(3)
    b = DeviceRegistry().register_device(d2).tick(3)
    assert [f.raw for f in a] != [f.raw for f in b]


@given(st.integers(min_value=1, max_value=40))
def test_seq_and_timestamp_strictly_increase(n):
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("imu0", DeviceKind.IMU, 100.0, 3))
    frames = handle.tick(n)
    seqs = [f.seq for f in frames]
    stamps = [f.timestamp_ns for f in frames]
    assert seqs == list(range(n))
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_radar_unit_conversion():
    frame = SensorFrame("radar0", DeviceKind.RADAR, 0, 0,
                        {"range_km": 0.05, "range_rate_mps": -1.5, "azimuth_rad": 0.1})
    out = normalize(frame)
    assert out.normalized["range_m"] == 50.0
    assert out.normalized["range_rate_mps"] == -1.5
    assert out.source_id == "radar0"


def test_normalize_is_idempotent_on_normalized_attributes():
    frame = SensorFrame("radar0", DeviceKind.RADAR, 0, 0,
                        {"range_km": 0.05, "range_rate_mps": -1.5, "azimuth_rad": 0.1})
    once = normalize(frame)
    again = normalize(SensorFrame("radar0", DeviceKind.RADAR, 0, 0, once.normalized))
    assert again.normalized == once.normalized


def test_unsupported_kind_rejected():
    frame = SensorFrame("x", "sonar", 0, 0, {})
    with pytest.raises(UnsupportedKind):
        normalize(frame)
    # a kind is a DeviceKind member; its value as a string is not one
    with pytest.raises(UnsupportedKind):
        normalize(SensorFrame("radar0", "radar", 0, 0, {"range_km": 0.05}))


def test_generated_corpus_validates_against_published_schemas():
    # schema-validation oracle over >= 100 generated frames of all kinds
    reg = DeviceRegistry()
    count = 0
    for kind in DeviceKind:
        handle = reg.register_device(DeviceDescriptor(f"{kind.value}0", kind, 50.0, 5))
        for frame in handle.tick(15):
            out = normalize(frame)
            assert tuple(sorted(out.normalized)) == tuple(sorted(NORMALIZED_SCHEMAS[kind]))
            count += 1
    assert count >= 100


def test_stamp_injects_world_measurements():
    reg = DeviceRegistry()
    handle = reg.register_device(DeviceDescriptor("radar0", DeviceKind.RADAR, 20.0, 1))
    frame = handle.stamp({"range_km": 0.04, "range_rate_mps": 2.0, "azimuth_rad": 0.0})
    assert frame.seq == 0 and frame.raw["range_km"] == 0.04
    assert handle.tick(1)[0].seq == 1  # injection and generation share one counter
