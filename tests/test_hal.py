"""Device registry, deterministic frame generation, normalization."""

import pytest
from hypothesis import given, strategies as st

from dfp.envmodel import EnvStore, InvalidRecord
from dfp.hal import (
    AbstractFrame,
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


def radar(device_id="radar0", rate=30.0, seed=7):
    return DeviceDescriptor(device_id, DeviceKind.RADAR, rate, seed, "ai-unit")


def test_first_registration_succeeds():
    reg = DeviceRegistry()
    handle = reg.register_device(radar())
    assert handle.descriptor.device_id == "radar0"
    assert reg.handle("radar0") is handle


def test_duplicate_device_id_rejected():
    reg = DeviceRegistry()
    reg.register_device(radar())
    with pytest.raises(DuplicateDeviceId):
        reg.register_device(radar())


def test_rate_boundaries():
    reg = DeviceRegistry()
    with pytest.raises(InvalidRate):
        reg.register_device(radar(device_id="a", rate=0))
    with pytest.raises(InvalidRate):
        reg.register_device(radar(device_id="b", rate=1001))
    reg.register_device(radar(device_id="c", rate=1000))


def test_unknown_device_lookup():
    reg = DeviceRegistry()
    with pytest.raises(UnknownDevice):
        reg.handle("ghost")


def test_tick_counter_semantics():
    reg = DeviceRegistry()
    handle = reg.register_device(radar())
    first = handle.tick(3)
    second = handle.tick(1)
    assert [f.seq for f in first] == [0, 1, 2]
    assert [f.seq for f in second] == [3]


def test_timestamp_formula():
    reg = DeviceRegistry()
    handle = reg.register_device(DeviceDescriptor("radar0", DeviceKind.RADAR, 10.0, 1))
    frames = handle.tick(11)
    assert frames[10].timestamp_ns == 1_000_000_000


def test_two_registries_same_descriptor_generate_identical_streams():
    # determinism oracle: run the generator twice, compare the streams
    desc = DeviceDescriptor("dev", DeviceKind.RADAR, 20.0, seed=99)
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
        DeviceDescriptor("radar0", DeviceKind.RADAR, 100.0, 3))
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


def test_a_radar_frame_without_a_range_is_refused_by_name():
    frame = SensorFrame("radar0", DeviceKind.RADAR, 0, 0, {"range_rate_mps": 1.0})
    with pytest.raises(UnsupportedKind, match="'range_km'/'range_m' missing"):
        normalize(frame)


def test_generated_corpus_validates_against_published_schemas():
    # schema-validation oracle over 100 generated frames: the module
    # docstring's radar schema, in SI units
    frames = DeviceRegistry().register_device(radar(rate=50.0, seed=5)).tick(100)
    for frame in frames:
        out = normalize(frame).normalized
        assert sorted(out) == ["azimuth_rad", "range_m", "range_rate_mps"]
        assert out["range_m"] == frame.raw["range_km"] * 1000.0
        assert 10.0 <= out["range_m"] <= 200.0
    assert len({f.raw["range_km"] for f in frames}) > 90  # the values move


def test_a_gps_device_registers_and_produces_nothing(tmp_path):
    # the demo declares gps0; only the radar has a frame schema
    assert list(DeviceKind) == [DeviceKind.RADAR, DeviceKind.GPS]
    handle = DeviceRegistry().register_device(
        DeviceDescriptor("gps0", DeviceKind.GPS, 10.0, 11, "compute-unit"))
    frame = handle.stamp({"lat_deg": 48.1, "lon_deg": 11.6, "alt_m": 519.0})
    with pytest.raises(UnsupportedKind):
        normalize(frame)
    with pytest.raises(UnsupportedKind):
        handle.tick()
    log = tmp_path / "env.jsonl"
    with EnvStore(log_path=str(log)) as store:
        store.ingest({"class": "weather", "tags": ["rain"]})
        records, text = store.all_records(), log.read_text()
        with pytest.raises(InvalidRecord):
            store.ingest(AbstractFrame("gps0", DeviceKind.GPS, 0, 0, {"lat_rad": 0.84}))
        assert store.all_records() == records
        assert log.read_text() == text
        assert store.ingest({"class": "weather", "tags": ["fog"]}) == 1  # next id unchanged


def test_stamp_injects_world_measurements():
    reg = DeviceRegistry()
    handle = reg.register_device(DeviceDescriptor("radar0", DeviceKind.RADAR, 20.0, 1))
    frame = handle.stamp({"range_km": 0.04, "range_rate_mps": 2.0, "azimuth_rad": 0.0})
    assert frame.seq == 0 and frame.raw["range_km"] == 0.04
    assert handle.tick(1)[0].seq == 1  # injection and generation share one counter
