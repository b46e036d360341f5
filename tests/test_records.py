"""The record contract of the values a drive step builds: HAL frames and
environment records are immutable named tuples."""

import pytest

from dfp.envmodel import (
    EnvRecord,
    EnvStore,
    InvalidRecord,
    OddQuery,
    RecordClass,
    Source,
)
from dfp.hal import AbstractFrame, DeviceKind, SensorFrame

SENSOR = {"device_id": "radar0", "kind": DeviceKind.RADAR, "seq": 3,
          "timestamp_ns": 150_000_000, "raw": {"range_km": 0.04}}
ABSTRACT = {"source_id": "radar0", "kind": DeviceKind.RADAR, "seq": 3,
            "timestamp_ns": 150_000_000, "normalized": {"range_m": 40.0}}
RECORD = {"record_id": 7, "record_class": RecordClass.OBJECT,
          "tags": frozenset({"vehicle", "lead"}), "timestamp_ns": 150_000_000,
          "attributes": {"range_m": 40.0}, "position": (40.0, 0.0),
          "source": Source.FUSION}
CASES = [(SensorFrame, SENSOR), (AbstractFrame, ABSTRACT), (EnvRecord, RECORD)]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_read_by_name_and_position_under_either_construction(cls, fields):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert cls._fields == tuple(fields)
    for value in (positional, keyword):
        assert {name: getattr(value, name) for name in cls._fields} == fields
        assert tuple(value) == tuple(fields.values())
    assert positional == keyword


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_assigning_a_field_or_a_new_attribute_raises(cls, fields):
    value = cls(**fields)
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_env_record_defaults_give_each_record_its_own_attributes_dict():
    first = EnvRecord(1, RecordClass.OBJECT, frozenset({"a"}), 0)
    second = EnvRecord(2, RecordClass.OBJECT, frozenset({"a"}), 0)
    assert first.attributes == second.attributes == {}
    assert first.attributes is not second.attributes
    assert (first.position, first.source) == (None, Source.PERCEPTION)


def test_env_record_round_trips_through_its_json_object():
    rec = EnvRecord(**RECORD)
    assert EnvRecord.from_json_obj(rec.to_json_obj()) == rec
    bare = EnvRecord(0, RecordClass.LANE, frozenset({"lane"}), 5)
    assert EnvRecord.from_json_obj(bare.to_json_obj()) == bare


def _snapshot(store):
    return (dict(store._records),
            {tag: set(ids) for tag, ids in store._postings.items()},
            list(store._order),
            {name: list(odd.matches) for name, odd in store._odds.items()},
            dict(store._odds_by_tags),
            store._next_id)


def test_an_update_with_a_bad_tag_raises_and_changes_nothing(tmp_path):
    log = tmp_path / "env.jsonl"
    with EnvStore(log) as store:
        store.save_odd("lead", OddQuery(("vehicle", "lead")))
        store.create(EnvRecord(**RECORD))
        store.create(EnvRecord(8, RecordClass.OBJECT, frozenset({"vehicle"}), 10))
        before, log_before = _snapshot(store), log.read_bytes()
        with pytest.raises(InvalidRecord, match="bad tag"):
            store.update(7, {"tags": ["vehicle", "Not A Tag"], "timestamp_ns": 1})
        assert _snapshot(store) == before
        assert log.read_bytes() == log_before
        assert store.read(7) == EnvRecord(**RECORD)
        assert store.run_odd("lead") == [EnvRecord(**RECORD)]
